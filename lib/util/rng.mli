(** Deterministic pseudo-random number generator (splitmix64).

    Used everywhere in place of [Stdlib.Random] so that every experiment,
    test, and public-coin BCC execution is exactly reproducible from a
    seed. In the public-coin model of the paper (§1.2), all vertices share
    one random string: the simulator hands each vertex a {!copy} of the
    same generator. *)

type t

val create : seed:int -> t
(** Fresh generator from a seed. Equal seeds give equal streams. *)

val copy : t -> t
(** Independent copy that will replay the same future stream. *)

val bool : t -> bool

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound); rejection-sampled, unbiased.
    @raise Invalid_argument if [bound <= 0]. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** Uniform in the inclusive range. @raise Invalid_argument if [lo > hi]. *)

val float : t -> float
(** Uniform in [0, 1). *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** Uniform random permutation of [0..n-1]. *)
