(** Arithmetic and matrix rank over the prime field ℤ_p (p < 2³¹).

    Rank over ℤ_p never exceeds rank over ℚ, so a full-rank result modulo
    any prime is an exact {e certificate} of full rank over ℚ — which is
    precisely what Theorem 2.3 (rank(Mⁿ) = Bₙ) and Lemma 4.1
    (rank(Eⁿ) = r) assert. The mod-p path makes those checks fast; the
    exact Bareiss path ({!Bareiss}) cross-checks small cases. *)

type t

val default_prime : int
(** 2³¹ − 1, prime. *)

val create : ?p:int -> unit -> t
(** Field with modulus [p] (assumed prime; see {!is_probable_prime}).
    @raise Invalid_argument if out of range. *)

val is_probable_prime : int -> bool
(** Trial-division primality (for choosing alternate moduli in tests). *)

val prime : t -> int

val normalize : t -> int -> int
(** Representative in [0, p). *)

val add : t -> int -> int -> int
val sub : t -> int -> int -> int
val mul : t -> int -> int -> int
val pow : t -> int -> int -> int

val inv : t -> int -> int
(** Multiplicative inverse. @raise Division_by_zero on zero. *)

val rank : t -> int array array -> int
(** Rank of an integer matrix over ℤ_p (entries reduced first). It takes
    ownership of the matrix: the elimination runs in place, so on return
    the rows are permuted and overwritten. Pass a copy to keep the
    original. *)
