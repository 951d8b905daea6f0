(** Exact rational numbers, always in lowest terms with positive
    denominator. Used for exact Gaussian elimination cross-checks and for
    exact probability mass accounting in the hard distribution μ of §3.1. *)

type t

val zero : t
val one : t

val of_ints : int -> int -> t
(** [of_ints num den]. @raise Division_by_zero on zero denominator. *)

val is_zero : t -> bool

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val inv : t -> t
(** @raise Division_by_zero on zero. *)

val div : t -> t -> t
(** @raise Division_by_zero on zero divisor. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val to_float : t -> float
val to_string : t -> string
val pp : Format.formatter -> t -> unit
