module Zmod = Bcclb_linalg.Zmod

type t = { p : int; bits : int; z : Zmod.t }

let of_prime p =
  if p < 2 || p > Zmod.default_prime then invalid_arg "Gfp.of_prime: modulus out of range";
  if not (Zmod.is_probable_prime p) then invalid_arg "Gfp.of_prime: not prime";
  { p; bits = Bcclb_util.Mathx.ceil_log2 p; z = Zmod.create ~p () }

(* Smallest prime strictly above the universe. Memoized: the same field
   is re-derived once per (n, process) rather than once per sketch, and
   the trial-division search never runs twice for one grid cell size. *)
let cache : (int, t) Hashtbl.t = Hashtbl.create 16
let cache_lock = Mutex.create ()

let for_universe ~universe =
  if universe <= 0 then invalid_arg "Gfp.for_universe: empty universe";
  if universe >= 1 lsl 30 then invalid_arg "Gfp.for_universe: universe too large for Zmod";
  Mutex.lock cache_lock;
  let r =
    match Hashtbl.find_opt cache universe with
    | Some f -> f
    | None ->
      let rec search k = if Zmod.is_probable_prime k then k else search (k + 1) in
      let f = of_prime (search (max 3 (universe + 1))) in
      Hashtbl.add cache universe f;
      f
  in
  Mutex.unlock cache_lock;
  r

let prime t = t.p
let element_bits t = t.bits
let normalize t x = Zmod.normalize t.z x
let add t a b = Zmod.add t.z a b
let sub t a b = Zmod.sub t.z a b
let mul t a b = Zmod.mul t.z a b
let pow t a e = Zmod.pow t.z a e
let inv t a = Zmod.inv t.z a

let signed t x =
  let x = Zmod.normalize t.z x in
  if 2 * x > t.p then x - t.p else x

let equal a b = a.p = b.p
