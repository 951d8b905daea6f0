type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* Shortest decimal representation that round-trips the float exactly —
   identical output for identical values, whatever produced them. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_string ?(pretty = false) t =
  let buf = Buffer.create 256 in
  let indent d = Buffer.add_string buf (String.make (2 * d) ' ') in
  let rec go d = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | Str s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
    | List [] -> Buffer.add_string buf "[]"
    | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          if pretty then begin
            Buffer.add_char buf '\n';
            indent (d + 1)
          end;
          go (d + 1) x)
        xs;
      if pretty then begin
        Buffer.add_char buf '\n';
        indent d
      end;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          if pretty then begin
            Buffer.add_char buf '\n';
            indent (d + 1)
          end;
          Buffer.add_char buf '"';
          add_escaped buf k;
          Buffer.add_string buf (if pretty then "\": " else "\":");
          go (d + 1) v)
        kvs;
      if pretty then begin
        Buffer.add_char buf '\n';
        indent d
      end;
      Buffer.add_char buf '}'
  in
  go 0 t;
  Buffer.contents buf

let write_file ?pretty path t = Fsutil.write_file_atomic path (to_string ?pretty t ^ "\n")

(* ---- parser ---- *)

(* Strict recursive descent over the constructors above. Fast enough for
   manifests and traces (the only things parsed); errors carry the byte
   position so a truncated file is diagnosable. *)

let parse_error pos msg = failwith (Printf.sprintf "Json.of_string: at byte %d: %s" pos msg)

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> parse_error !pos (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else parse_error !pos ("expected " ^ word)
  in
  (* Encode a Unicode scalar value as UTF-8. Covers the whole scalar
     range: \uXXXX escapes reach beyond the BMP via surrogate pairs,
     which [parse_string] combines before calling this. *)
  let add_utf8 buf u =
    if u < 0x80 then Buffer.add_char buf (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xc0 lor (u lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
    end
    else if u < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xe0 lor (u lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xf0 lor (u lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
      Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3f)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then parse_error !pos "unterminated string"
      else
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' -> (
          if !pos >= n then parse_error !pos "unterminated escape";
          let e = s.[!pos] in
          advance ();
          (match e with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
            let read_hex4 () =
              if !pos + 4 > n then parse_error !pos "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              match int_of_string_opt ("0x" ^ hex) with
              | Some u -> u
              | None -> parse_error !pos ("bad \\u escape " ^ hex)
            in
            let u = read_hex4 () in
            (* A high surrogate must be followed by \uDC00-\uDFFF; the
               pair combines into one scalar beyond the BMP (RFC 8259
               §7). Unpaired surrogates are malformed. *)
            if u >= 0xd800 && u <= 0xdbff then begin
              if not (!pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u') then
                parse_error !pos "unpaired high surrogate";
              pos := !pos + 2;
              let lo = read_hex4 () in
              if lo < 0xdc00 || lo > 0xdfff then
                parse_error !pos "bad low surrogate in \\u pair";
              add_utf8 buf (0x10000 + ((u - 0xd800) lsl 10) + (lo - 0xdc00))
            end
            else if u >= 0xdc00 && u <= 0xdfff then
              parse_error !pos "unpaired low surrogate"
            else add_utf8 buf u
          | _ -> parse_error !pos (Printf.sprintf "bad escape \\%c" e));
          go ())
        | c when Char.code c < 0x20 -> parse_error !pos "raw control character in string"
        | c ->
          Buffer.add_char buf c;
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    let is_int = String.for_all (fun c -> match c with '.' | 'e' | 'E' -> false | _ -> true) tok in
    if is_int then
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> parse_error start ("bad number " ^ tok))
    else
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> parse_error start ("bad number " ^ tok)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> parse_error !pos "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        let rec go () =
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items := parse_value () :: !items;
            go ()
          | Some ']' -> advance ()
          | _ -> parse_error !pos "expected ',' or ']'"
        in
        go ();
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let binding () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          (k, parse_value ())
        in
        let items = ref [ binding () ] in
        let rec go () =
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items := binding () :: !items;
            go ()
          | Some '}' -> advance ()
          | _ -> parse_error !pos "expected ',' or '}'"
        in
        go ();
        Obj (List.rev !items)
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> parse_error !pos (Printf.sprintf "unexpected %C" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then parse_error !pos "trailing content after JSON value";
  v

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_list_opt = function List xs -> Some xs | _ -> None

let to_float_opt = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None

let to_str_opt = function Str s -> Some s | _ -> None
