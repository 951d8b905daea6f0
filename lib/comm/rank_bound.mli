(** Deterministic communication lower bounds via matrix rank
    (Corollaries 2.4 and 4.2): any deterministic protocol needs at least
    log₂ rank(M) bits [KN97, Lemma 1.28]. *)

val partition_bits : n:int -> float
(** log₂ Bₙ = Θ(n log n): the Partition lower bound, using the exact Bell
    number (Theorem 2.3 supplies rank(Mⁿ) = Bₙ). Works for any n. *)

val two_partition_bits : n:int -> float
(** log₂ r with r = n!/(2^{n/2}(n/2)!): the TwoPartition lower bound
    (Lemma 4.1). @raise Invalid_argument on odd n. *)

val rank_mod_p : int array array -> int
(** Rank over ℤ_p, p = 2³¹ − 1 ({!Bcclb_linalg.Zmod.rank}). It never
    exceeds the rank over ℚ, so rank = dimension certifies full rank
    over ℚ. Like {!Bcclb_linalg.Zmod.rank} it takes ownership of the
    matrix and eliminates it in place, so only [Array.length] of it is
    meaningful afterwards. Measured on a 2-vCPU Xeon virtual machine:
    M⁷ ranks in 0.07 s, E¹⁰ in 0.45 s and M⁸ (4140 × 4140) in 2.8 s. *)

val verified_partition_bits : n:int -> float
(** Builds Mⁿ and certifies full rank over ℚ (full rank mod p); the
    lower bound with the rank fact {e checked}, not assumed. Build and
    rank take 0.11 s at n = 7 and 3.8 s at n = 8 on the machine above.
    @raise Failure if the matrix is ever rank-deficient. *)

val verified_two_partition_bits : n:int -> float
(** Same for Eⁿ: 0.55 s at n = 10 on the machine above. *)

val kt1_round_lb : bits_per_round:int -> float -> float
(** Rounds forced on a KT-1 BCC(1) algorithm by a communication lower
    bound of [lb_bits], given that the §4.3 simulation spends
    [bits_per_round] bits per simulated round. *)
