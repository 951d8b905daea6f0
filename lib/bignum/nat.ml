(* Little-endian limbs in base 2^26, canonical form: no trailing zero limb.
   Zero is the empty array. Base 2^26 keeps limb products (2^52) plus carry
   accumulation safely inside a 63-bit native int even for numbers of a
   thousand limbs, which is far beyond anything this project computes. *)

type t = int array

let base_bits = 26
let base = 1 lsl base_bits
let mask = base - 1

let zero : t = [||]
let is_zero (t : t) = Array.length t = 0

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Nat.of_int: negative argument";
  let rec limbs acc n = if n = 0 then List.rev acc else limbs ((n land mask) :: acc) (n lsr base_bits) in
  Array.of_list (limbs [] n)

let one = of_int 1
let two = of_int 2

let to_int_opt (t : t) =
  let bits = Array.length t * base_bits in
  if bits <= 62 then begin
    let v = ref 0 in
    for i = Array.length t - 1 downto 0 do
      v := (!v lsl base_bits) lor t.(i)
    done;
    Some !v
  end
  else begin
    (* May still fit: check leading limbs. *)
    let v = ref 0 in
    let ok = ref true in
    for i = Array.length t - 1 downto 0 do
      if !v > (max_int - t.(i)) lsr base_bits then ok := false
      else v := (!v lsl base_bits) lor t.(i)
    done;
    if !ok then Some !v else None
  end

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else begin
    let rec loop i =
      if i < 0 then 0
      else begin
        let c = Int.compare a.(i) b.(i) in
        if c <> 0 then c else loop (i - 1)
      end
    in
    loop (la - 1)
  end

let equal a b = compare a b = 0

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb + 1 in
  let r = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  normalize r

(* [sub a b] requires a >= b. *)
let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Nat.sub: would be negative";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  normalize r

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let s = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- s land mask;
        carry := s lsr base_bits
      done;
      (* Propagate the final carry, which may itself be wider than a limb. *)
      let k = ref (i + lb) in
      while !carry <> 0 do
        let s = r.(!k) + !carry in
        r.(!k) <- s land mask;
        carry := s lsr base_bits;
        incr k
      done
    done;
    normalize r
  end

let mul_int a n = mul a (of_int n)

let divmod_small (a : t) d =
  if d <= 0 then invalid_arg "Nat.divmod_small: divisor must be positive";
  if d >= base then invalid_arg "Nat.divmod_small: divisor too large";
  let la = Array.length a in
  let q = Array.make la 0 in
  let rem = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!rem lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    rem := cur mod d
  done;
  (normalize q, !rem)

let num_bits (t : t) =
  let l = Array.length t in
  if l = 0 then 0
  else begin
    let top = t.(l - 1) in
    ((l - 1) * base_bits) + (Bcclb_util.Mathx.ilog2 top + 1)
  end

let shift_left (t : t) k =
  if k < 0 then invalid_arg "Nat.shift_left: negative shift";
  if is_zero t then zero
  else begin
    let limb_shift = k / base_bits and bit_shift = k mod base_bits in
    let la = Array.length t in
    let r = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      let v = t.(i) lsl bit_shift in
      r.(i + limb_shift) <- r.(i + limb_shift) lor (v land mask);
      r.(i + limb_shift + 1) <- r.(i + limb_shift + 1) lor (v lsr base_bits)
    done;
    normalize r
  end

let shift_right (t : t) k =
  if k < 0 then invalid_arg "Nat.shift_right: negative shift";
  let limb_shift = k / base_bits and bit_shift = k mod base_bits in
  let la = Array.length t in
  if limb_shift >= la then zero
  else begin
    let n = la - limb_shift in
    let r = Array.make n 0 in
    for i = 0 to n - 1 do
      let lo = t.(i + limb_shift) lsr bit_shift in
      let hi = if i + limb_shift + 1 < la && bit_shift > 0 then t.(i + limb_shift + 1) lsl (base_bits - bit_shift) else 0 in
      r.(i) <- (lo lor hi) land mask
    done;
    normalize r
  end

(* Binary long division. Number sizes in this project stay in the low
   thousands of bits, where the simplicity beats Knuth's algorithm D. *)
let divmod (a : t) (b : t) =
  if is_zero b then raise Division_by_zero;
  let c = compare a b in
  if c < 0 then (zero, a)
  else if c = 0 then (one, zero)
  else begin
    match (to_int_opt a, to_int_opt b) with
    | Some x, Some y -> (of_int (x / y), of_int (x mod y))
    | _, Some y when y < base ->
      let q, r = divmod_small a y in
      (q, of_int r)
    | _ ->
      let shift = num_bits a - num_bits b in
      let q = Array.make (shift / base_bits + 1) 0 in
      let rem = ref a in
      for i = shift downto 0 do
        let d = shift_left b i in
        if compare !rem d >= 0 then begin
          rem := sub !rem d;
          q.(i / base_bits) <- q.(i / base_bits) lor (1 lsl (i mod base_bits))
        end
      done;
      (normalize q, !rem)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let rec gcd a b = if is_zero b then a else gcd b (rem a b)

let pow a k =
  if k < 0 then invalid_arg "Nat.pow: negative exponent";
  let rec loop acc a k =
    if k = 0 then acc
    else if k land 1 = 1 then loop (mul acc a) (mul a a) (k asr 1)
    else loop acc (mul a a) (k asr 1)
  in
  loop one a k

let to_string (t : t) =
  if is_zero t then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec loop t =
      if not (is_zero t) then begin
        let q, r = divmod_small t 10 in
        Buffer.add_char buf (Char.chr (Char.code '0' + r));
        loop q
      end
    in
    loop t;
    let s = Buffer.contents buf in
    String.init (String.length s) (fun i -> s.[String.length s - 1 - i])
  end

let of_string s =
  if s = "" then invalid_arg "Nat.of_string: empty string";
  String.fold_left
    (fun acc c ->
      match c with
      | '0' .. '9' -> add (mul_int acc 10) (of_int (Char.code c - Char.code '0'))
      | '_' -> acc
      | _ -> invalid_arg "Nat.of_string: expected digits")
    zero s

let to_float (t : t) = Array.fold_right (fun limb acc -> (acc *. float_of_int base) +. float_of_int limb) t 0.0

let log2 (t : t) =
  if is_zero t then invalid_arg "Nat.log2: zero";
  let bits = num_bits t in
  if bits <= 52 then Bcclb_util.Mathx.log2 (to_float t)
  else begin
    (* Use the top 52 bits as a mantissa to keep precision. *)
    let shifted = shift_right t (bits - 52) in
    Bcclb_util.Mathx.log2 (to_float shifted) +. float_of_int (bits - 52)
  end

let pp fmt t = Format.pp_print_string fmt (to_string t)
