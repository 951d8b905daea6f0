(** Small exact-integer and floating-point math helpers shared across the
    reproduction: logarithms for round bounds, binomials and harmonic
    numbers for the counting lemmas of §3. *)

val ilog2 : int -> int
(** Floor of log₂. @raise Invalid_argument on non-positive input. *)

val ceil_log2 : int -> int
(** Ceiling of log₂. @raise Invalid_argument on non-positive input. *)

val pow : int -> int -> int
(** [pow base exp] by binary exponentiation (unchecked overflow).
    @raise Invalid_argument on negative exponent. *)

val isqrt : int -> int
(** Integer square root (floor). @raise Invalid_argument on negative input. *)

val harmonic : int -> float
(** n-th harmonic number H_n; H_0 = 0. Appears in Lemmas 3.8 and 3.9. *)

val binomial : int -> int -> int
(** Exact binomial coefficient; 0 outside the triangle.
    @raise Invalid_argument on int overflow. *)

val log2 : float -> float

val float_eq : ?eps:float -> float -> float -> bool
(** Relative-tolerance float comparison. *)
