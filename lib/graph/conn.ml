module Ufind = Bcclb_ufind.Ufind

type t = Lf of Ufind.t | Dsu of Union_find.t

(* One read per process, at start-up: the oracle is an execution mode,
   not a per-call knob, so a sweep cannot mix structures mid-report. A
   plain value, not a lazy one, because pool domains call [create]
   concurrently and OCaml 5 raises [CamlinternalLazy.Undefined] when two
   domains force the same lazy at once. *)
let use_dsu = match Sys.getenv_opt "BCCLB_CONN_ORACLE" with Some "dsu" -> true | _ -> false

let lock_free () = not use_dsu

let create n = if use_dsu then Dsu (Union_find.create n) else Lf (Ufind.create n)

let size = function Lf u -> Ufind.size u | Dsu u -> Union_find.size u

let union t x y =
  match t with Lf u -> Ufind.union u x y | Dsu u -> Union_find.union u x y

let find t x = match t with Lf u -> Ufind.find u x | Dsu u -> Union_find.find u x

let same t x y =
  match t with Lf u -> Ufind.same_set u x y | Dsu u -> Union_find.same u x y

let components = function Lf u -> Ufind.components u | Dsu u -> Union_find.components u

let labels = function Lf u -> Ufind.labels u | Dsu u -> Union_find.labels u
