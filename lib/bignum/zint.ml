type sign = Pos | Neg

type t = { sign : sign; mag : Nat.t }

(* Canonical form: zero is always Pos. *)
let make sign mag = if Nat.is_zero mag then { sign = Pos; mag } else { sign; mag }

let zero = { sign = Pos; mag = Nat.zero }
let one = { sign = Pos; mag = Nat.one }

let of_nat mag = { sign = Pos; mag }

let of_int n = if n >= 0 then of_nat (Nat.of_int n) else make Neg (Nat.of_int (-n))

let to_int_opt t =
  match Nat.to_int_opt t.mag with
  | None -> None
  | Some m -> Some (match t.sign with Pos -> m | Neg -> -m)

let is_zero t = Nat.is_zero t.mag

let sign t = if Nat.is_zero t.mag then 0 else match t.sign with Pos -> 1 | Neg -> -1

let neg t = make (match t.sign with Pos -> Neg | Neg -> Pos) t.mag

let compare a b =
  match (a.sign, b.sign) with
  | Pos, Neg -> if is_zero a && is_zero b then 0 else 1
  | Neg, Pos -> -1
  | Pos, Pos -> Nat.compare a.mag b.mag
  | Neg, Neg -> Nat.compare b.mag a.mag

let equal a b = compare a b = 0

let add a b =
  if a.sign = b.sign then make a.sign (Nat.add a.mag b.mag)
  else begin
    let c = Nat.compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.sign (Nat.sub a.mag b.mag)
    else make b.sign (Nat.sub b.mag a.mag)
  end

let sub a b = add a (neg b)

let mul a b = make (if a.sign = b.sign then Pos else Neg) (Nat.mul a.mag b.mag)

(* Truncated division (round toward zero), matching OCaml's [/] and [mod]. *)
let divmod a b =
  if is_zero b then raise Division_by_zero;
  let q, r = Nat.divmod a.mag b.mag in
  let q = make (if a.sign = b.sign then Pos else Neg) q in
  let r = make a.sign r in
  (q, r)

(* [divexact a b] assumes b divides a exactly; checked. *)
let divexact a b =
  let q, r = divmod a b in
  if not (is_zero r) then invalid_arg "Zint.divexact: division is not exact";
  q

let gcd a b = of_nat (Nat.gcd a.mag b.mag)

let to_string t = (match t.sign with Pos -> "" | Neg -> "-") ^ Nat.to_string t.mag

let of_string s =
  if s = "" then invalid_arg "Zint.of_string: empty string";
  if s.[0] = '-' then make Neg (Nat.of_string (String.sub s 1 (String.length s - 1)))
  else of_nat (Nat.of_string s)

let to_float t = (match t.sign with Pos -> 1.0 | Neg -> -1.0) *. Nat.to_float t.mag

let pp fmt t = Format.pp_print_string fmt (to_string t)
