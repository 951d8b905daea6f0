(** The communication matrices of the Partition problems.

    [Mⁿ(i,j) = 1] iff [Pᵢ ∨ Pⱼ = 1] over all Bₙ set partitions
    (Theorem 2.3 asserts rank(Mⁿ) = Bₙ); [Eⁿ] is the principal submatrix
    indexed by perfect matchings (Lemma 4.1 asserts it has full rank
    r = n!/(2^{n/2}(n/2)!)). With [Lemma 1.28, KN97], full rank gives the
    Ω(n log n) deterministic communication lower bounds of
    Corollaries 2.4 and 4.2.

    Rows follow {!Bcclb_partition.Set_partition.all} resp.
    {!Bcclb_partition.Two_partition.all}. Each entry is an
    allocation-free closure of element 0's block over per-element block
    bitmasks. *)

val m_matrix : n:int -> int array array
(** The Bₙ × Bₙ matrix Mⁿ, one word per entry. Measured build times on
    a 2-vCPU Xeon virtual machine: M⁶ (203 × 203) 2 ms, M⁷ (877 × 877)
    0.05 s, M⁸ (4140 × 4140, 137 MB) 0.96 s. *)

val e_matrix : n:int -> int array array
(** The r × r matrix Eⁿ: E¹⁰ (945 × 945) builds in 0.10 s on the same
    machine. @raise Invalid_argument on odd n. *)
