(** TokenRouting: the executable range-sensitivity demonstration for the
    RCC(b, r) spectrum of §1.3/[Bec+16]. Every vertex owes every other a
    distinct ⌈log₂ n⌉-bit token (pseudo-randomly derived from the ID
    pair, hence locally checkable). Serving r recipients per round gives
    ⌈(n−1)/r⌉ rounds — 1 round at the CC end (r = n−1), n−1 rounds at the
    BCC end (r = 1), matching the information floor (n−1)/r exactly. *)

val rounds_needed : n:int -> r:int -> int
(** ⌈(n−1)/r⌉. *)

val algo : r:int -> unit -> bool Rcc_algo.packed
(** Each vertex outputs whether it received a correct token from every
    other vertex (system AND = protocol succeeded).
    @raise Invalid_argument for r < 1 or on KT-0 instances. *)
