type t = { num : Zint.t; den : Zint.t }

(* Canonical form: den > 0, gcd(|num|, den) = 1, zero is 0/1. *)
let make num den =
  if Zint.is_zero den then raise Division_by_zero;
  if Zint.is_zero num then { num = Zint.zero; den = Zint.one }
  else begin
    let g = Zint.gcd num den in
    let num = Zint.divexact num g and den = Zint.divexact den g in
    if Zint.sign den < 0 then { num = Zint.neg num; den = Zint.neg den } else { num; den }
  end

let zero = { num = Zint.zero; den = Zint.one }
let one = { num = Zint.one; den = Zint.one }

let of_ints num den = make (Zint.of_int num) (Zint.of_int den)

let is_zero t = Zint.is_zero t.num

let neg t = { t with num = Zint.neg t.num }

let add a b = make (Zint.add (Zint.mul a.num b.den) (Zint.mul b.num a.den)) (Zint.mul a.den b.den)

let sub a b = add a (neg b)

let mul a b = make (Zint.mul a.num b.num) (Zint.mul a.den b.den)

let inv t =
  if is_zero t then raise Division_by_zero;
  make t.den t.num

let div a b = mul a (inv b)

let compare a b = Zint.compare (Zint.mul a.num b.den) (Zint.mul b.num a.den)

let equal a b = Zint.equal a.num b.num && Zint.equal a.den b.den

let to_float t = Zint.to_float t.num /. Zint.to_float t.den

let to_string t =
  if Zint.equal t.den Zint.one then Zint.to_string t.num
  else Zint.to_string t.num ^ "/" ^ Zint.to_string t.den

let pp fmt t = Format.pp_print_string fmt (to_string t)
