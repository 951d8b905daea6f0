type t = { width : int; value : int }

let max_width = 62

let make ~width ~value =
  if width < 0 || width > max_width then invalid_arg "Bits.make: width out of range";
  if value < 0 || (width < max_width && value lsr width <> 0) then
    invalid_arg "Bits.make: value does not fit in width";
  { width; value }

let width t = t.width

let value t = t.value

let bit t i =
  if i < 0 || i >= t.width then invalid_arg "Bits.bit: index out of range";
  (t.value lsr i) land 1 = 1

let of_bool b = { width = 1; value = (if b then 1 else 0) }

let to_bool t =
  if t.width <> 1 then invalid_arg "Bits.to_bool: width is not 1";
  t.value = 1

let of_int ~width value = make ~width ~value

let append a b =
  if a.width + b.width > max_width then invalid_arg "Bits.append: result too wide";
  { width = a.width + b.width; value = a.value lor (b.value lsl a.width) }

let slice t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.width then invalid_arg "Bits.slice: out of range";
  { width = len; value = (t.value lsr pos) land ((1 lsl len) - 1) }

let equal a b = a.width = b.width && a.value = b.value

let compare a b =
  let c = Int.compare a.width b.width in
  if c <> 0 then c else Int.compare a.value b.value

let to_string t = String.init t.width (fun i -> if bit t (t.width - 1 - i) then '1' else '0')

let of_string s =
  let width = String.length s in
  let value =
    String.fold_left
      (fun acc c ->
        match c with
        | '0' -> acc * 2
        | '1' -> (acc * 2) + 1
        | _ -> invalid_arg "Bits.of_string: expected only '0' and '1'")
      0 s
  in
  make ~width ~value

(* Growable packed bit sequences: the >62-bit sibling of the fixed word
   above. Bits are stored LSB-first inside bytes; every bit of [data] at
   position >= [len] is 0, which is what lets equal/compare/hash work
   bytewise over the used prefix instead of bit by bit. *)
module Seq = struct
  type seq = { mutable len : int; mutable data : Bytes.t }

  let used_bytes len = (len + 7) lsr 3

  let create ?(capacity = 64) () =
    { len = 0; data = Bytes.make (max 1 (used_bytes capacity)) '\000' }

  let length s = s.len

  let copy s = { len = s.len; data = Bytes.copy s.data }

  let ensure s extra =
    let need = used_bytes (s.len + extra) in
    let cap = Bytes.length s.data in
    if need > cap then begin
      let cap' = max need (2 * cap) in
      let data' = Bytes.make cap' '\000' in
      Bytes.blit s.data 0 data' 0 cap;
      s.data <- data'
    end

  let unsafe_set_bit s i =
    let b = Char.code (Bytes.unsafe_get s.data (i lsr 3)) in
    Bytes.unsafe_set s.data (i lsr 3) (Char.unsafe_chr (b lor (1 lsl (i land 7))))

  let append_bit s b =
    ensure s 1;
    if b then unsafe_set_bit s s.len;
    s.len <- s.len + 1

  (* Append the [width] low bits of [value], LSB first, by whole-byte
     chunks: O(width/8) writes, amortised O(1) growth. *)
  let append_word s ~width ~value =
    if width < 0 || width > max_width then invalid_arg "Bits.Seq.append_word: width out of range";
    if value < 0 || (width < max_width && value lsr width <> 0) then
      invalid_arg "Bits.Seq.append_word: value does not fit in width";
    ensure s width;
    let pos = ref s.len and remaining = ref width and v = ref value in
    while !remaining > 0 do
      let byte = !pos lsr 3 and off = !pos land 7 in
      let take = min !remaining (8 - off) in
      let chunk = !v land ((1 lsl take) - 1) in
      let b = Char.code (Bytes.unsafe_get s.data byte) in
      Bytes.unsafe_set s.data byte (Char.unsafe_chr (b lor (chunk lsl off)));
      v := !v lsr take;
      pos := !pos + take;
      remaining := !remaining - take
    done;
    s.len <- s.len + width

  let append s w = append_word s ~width:w.width ~value:w.value

  let get s i =
    if i < 0 || i >= s.len then invalid_arg "Bits.Seq.get: index out of range";
    Char.code (Bytes.unsafe_get s.data (i lsr 3)) lsr (i land 7) land 1 = 1

  (* Read [len] bits starting at [pos] as a fixed word (len <= 62). *)
  let word s ~pos ~len =
    if pos < 0 || len < 0 || len > max_width || pos + len > s.len then
      invalid_arg "Bits.Seq.word: out of range";
    let v = ref 0 and got = ref 0 and p = ref pos in
    while !got < len do
      let byte = !p lsr 3 and off = !p land 7 in
      let take = min (len - !got) (8 - off) in
      let chunk = Char.code (Bytes.unsafe_get s.data byte) lsr off land ((1 lsl take) - 1) in
      v := !v lor (chunk lsl !got);
      got := !got + take;
      p := !p + take
    done;
    { width = len; value = !v }

  let slice s ~pos ~len =
    if pos < 0 || len < 0 || pos + len > s.len then invalid_arg "Bits.Seq.slice: out of range";
    let out = create ~capacity:len () in
    let remaining = ref len and p = ref pos in
    while !remaining > 0 do
      let take = min !remaining max_width in
      append out (word s ~pos:!p ~len:take);
      p := !p + take;
      remaining := !remaining - take
    done;
    out

  let equal a b =
    a.len = b.len
    &&
    let nb = used_bytes a.len in
    let rec eq i = i >= nb || (Bytes.unsafe_get a.data i = Bytes.unsafe_get b.data i && eq (i + 1)) in
    eq 0

  let compare a b =
    let c = Int.compare a.len b.len in
    if c <> 0 then c
    else begin
      let nb = used_bytes a.len in
      let rec cmp i =
        if i >= nb then 0
        else begin
          let c = Char.compare (Bytes.unsafe_get a.data i) (Bytes.unsafe_get b.data i) in
          if c <> 0 then c else cmp (i + 1)
        end
      in
      cmp 0
    end

  (* FNV-1a over the used bytes, seeded with the length. *)
  let hash s =
    let h = ref (0x811c9dc5 lxor s.len) in
    for i = 0 to used_bytes s.len - 1 do
      h := (!h lxor Char.code (Bytes.unsafe_get s.data i)) * 0x01000193 land max_int
    done;
    !h

  (* The used bytes, verbatim. Because every bit at position >= len is 0,
     two sequences of equal length are equal iff their packed strings are
     — which is what lets variable-width census keys live in string-keyed
     hash tables without a per-bit decode. The bit length is NOT part of
     the string; callers that mix lengths under one key space must carry
     it separately (fixed-record key schemes need not). *)
  let to_packed_string s = Bytes.sub_string s.data 0 (used_bytes s.len)

  let of_packed_string ~len str =
    if len < 0 then invalid_arg "Bits.Seq.of_packed_string: negative length";
    let nb = used_bytes len in
    if String.length str <> nb then invalid_arg "Bits.Seq.of_packed_string: length/byte-count mismatch";
    let s = { len; data = Bytes.make (max 1 nb) '\000' } in
    Bytes.blit_string str 0 s.data 0 nb;
    (* Stray bits above [len] in the last byte would break the bytewise
       equal/compare/hash contract; reject rather than silently mask. *)
    if len land 7 <> 0 && nb > 0 then begin
      let last = Char.code (Bytes.get s.data (nb - 1)) in
      if last lsr (len land 7) <> 0 then
        invalid_arg "Bits.Seq.of_packed_string: nonzero bits beyond the declared length"
    end;
    s

  let to_string s = String.init s.len (fun i -> if get s (s.len - 1 - i) then '1' else '0')

  let of_string str =
    let n = String.length str in
    let s = create ~capacity:n () in
    for i = n - 1 downto 0 do
      match str.[i] with
      | '0' -> append_bit s false
      | '1' -> append_bit s true
      | _ -> invalid_arg "Bits.Seq.of_string: expected only '0' and '1'"
    done;
    s

  let of_bits w =
    let s = create ~capacity:w.width () in
    append s w;
    s
end
