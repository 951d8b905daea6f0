type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

let next_int64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* 61 random bits: the largest power of two comfortably below OCaml's
   63-bit native int, so [1 lsl 61] is itself representable. *)
let bits61 t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 3)

let bool t = Int64.logand (next_int64 t) 1L = 1L

(* Unbiased bounded sampling by rejection on the top of the 61-bit range. *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let range = 1 lsl 61 in
  let limit = range - (range mod bound) in
  let rec loop () =
    let r = bits61 t in
    if r < limit then r mod bound else loop ()
  in
  loop ()

let int_in_range t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.int_in_range: lo > hi";
  lo + int t (hi - lo + 1)

let float t =
  Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) *. (1.0 /. 9007199254740992.0)

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle_in_place t a;
  a
