(** The prime field GF(p) sized to a sketch's coordinate universe.

    Deterministic syndrome sketches ({!Syndrome}) evaluate power sums
    Σ c_e·α_e^j where α_e = e + 1 ranges over the coordinate universe, so
    the modulus must exceed the universe for the α_e to stay distinct and
    nonzero. [for_universe] picks the smallest such prime (memoized —
    every vertex of a BCC run re-derives the same field from n alone,
    with no coins involved), keeping element width at
    ⌈log₂ universe⌉ + O(1) bits: the log-factor bandwidth premium that
    determinism costs over the GF(2) samplers of {!Bcclb_sketch}.

    Arithmetic is {!Bcclb_linalg.Zmod} under the hood, hence the
    p ≤ 2³¹ − 1 ceiling (products stay within a native [int]). *)

type t

val for_universe : universe:int -> t
(** Field with the smallest prime p > universe (and p ≥ 3). Memoized.
    @raise Invalid_argument if [universe] is non-positive or ≥ 2³⁰
    (Bertrand would no longer keep p below {!Bcclb_linalg.Zmod}'s
    2³¹ − 1 ceiling). *)

val of_prime : int -> t
(** Field with an explicitly chosen modulus (checked for primality).
    @raise Invalid_argument if [p] is not a prime in [2, 2³¹ − 1]. *)

val prime : t -> int

val element_bits : t -> int
(** ⌈log₂ p⌉: bits to serialize one field element. *)

val normalize : t -> int -> int
val add : t -> int -> int -> int
val sub : t -> int -> int -> int
val mul : t -> int -> int -> int
val pow : t -> int -> int -> int
val inv : t -> int -> int

val signed : t -> int -> int
(** Representative of smallest absolute value: maps [0, p) onto
    (−p/2, p/2]. The syndrome decoder uses it to recognise the ±1
    coefficients of incidence vectors. *)

val equal : t -> t -> bool
