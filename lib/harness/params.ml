type value = Int of int | Float of float | Bool of bool | Str of string

type t = (string * value) list

let v bindings =
  let ok_key k =
    k <> "" && String.for_all (fun c -> c <> '=' && c <> ';' && c <> '\n') k
  in
  List.iter
    (fun (k, _) -> if not (ok_key k) then invalid_arg ("Params.v: bad key " ^ k))
    bindings;
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) bindings in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      if String.equal a b then invalid_arg ("Params.v: duplicate key " ^ a);
      check rest
    | _ -> ()
  in
  check sorted;
  sorted

let find_opt t k = List.assoc_opt k t

let missing fn t k =
  invalid_arg (Printf.sprintf "Params.%s: no %s parameter %S in {%s}" fn fn k
                 (String.concat "; " (List.map fst t)))

let int t k = match find_opt t k with Some (Int i) -> i | _ -> missing "int" t k
let float t k = match find_opt t k with Some (Float f) -> f | _ -> missing "float" t k
let str t k = match find_opt t k with Some (Str s) -> s | _ -> missing "str" t k

let value_to_display = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Bool b -> string_of_bool b
  | Str s -> s

(* Injective: type tags disambiguate [Int 1] from [Str "1"], hex floats
   are lossless, strings are length-prefixed so separators inside them
   cannot collide with the binding syntax. *)
let value_canonical = function
  | Int i -> Printf.sprintf "i:%d" i
  | Float f -> Printf.sprintf "f:%h" f
  | Bool b -> Printf.sprintf "b:%b" b
  | Str s -> Printf.sprintf "s:%d:%s" (String.length s) s

let canonical t =
  String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ value_canonical v) t)

let to_json_fields t =
  List.map
    (fun (k, v) ->
      ( k,
        match v with
        | Int i -> Json.Int i
        | Float f -> Json.Float f
        | Bool b -> Json.Bool b
        | Str s -> Json.Str s ))
    t

let equal a b = a = b
