(** Arbitrary-precision signed integers on top of {!Nat}.

    Used by the fraction-free Bareiss elimination that verifies
    rank(Mⁿ) = Bₙ (Theorem 2.3) and rank(Eⁿ) = r (Lemma 4.1) exactly. *)

type t

val zero : t
val one : t

val of_int : int -> t
val to_int_opt : t -> int option

val is_zero : t -> bool

val sign : t -> int
(** -1, 0, or 1. *)

val neg : t -> t

val compare : t -> t -> int
val equal : t -> t -> bool

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** Truncated division (OCaml convention: remainder has the dividend's
    sign). @raise Division_by_zero. *)

val divexact : t -> t -> t
(** Exact division. @raise Invalid_argument if the remainder is non-zero —
    Bareiss steps are exact by construction, so a failure here signals a
    bug, not an input condition. *)

val gcd : t -> t -> t
(** Non-negative gcd of magnitudes. *)

val to_string : t -> string
val of_string : string -> t
val to_float : t -> float
val pp : Format.formatter -> t -> unit
