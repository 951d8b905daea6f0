(** Arbitrary-precision natural numbers.

    The sealed build environment has no [zarith], but the paper's counting
    arguments need exact values far beyond [int64]: Bell numbers Bₙ
    (Theorem 2.3), the perfect-matching count r = n!/(2^{n/2}(n/2)!)
    (Lemma 4.1), and exact determinant arithmetic in the Bareiss rank
    computation. This module is a small, dependency-free bignum sufficient
    for those uses (numbers up to tens of thousands of bits). *)

type t

val zero : t
val one : t
val two : t

val is_zero : t -> bool

val of_int : int -> t
(** @raise Invalid_argument on negative input. *)

val to_int_opt : t -> int option
(** [Some n] iff the value fits a native [int]. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val add : t -> t -> t

val sub : t -> t -> t
(** @raise Invalid_argument if the result would be negative. *)

val mul : t -> t -> t
val mul_int : t -> int -> t

val divmod : t -> t -> t * t
(** Euclidean quotient and remainder. @raise Division_by_zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val divmod_small : t -> int -> t * int
(** Fast path for single-limb divisors (0 < d < 2^26). *)

val gcd : t -> t -> t

val pow : t -> int -> t
(** @raise Invalid_argument on negative exponent. *)

val num_bits : t -> int
(** Position of the highest set bit plus one; 0 for zero. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val to_string : t -> string
(** Decimal. *)

val of_string : string -> t
(** Decimal, underscores allowed. @raise Invalid_argument otherwise. *)

val to_float : t -> float
(** Nearest float (inf on overflow). *)

val log2 : t -> float
(** Accurate log₂, usable far beyond float range. @raise Invalid_argument on zero. *)

val pp : Format.formatter -> t -> unit
