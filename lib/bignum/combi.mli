(** Exact combinatorial counts used by the paper's lemmas.

    All results are {!Nat} values: Bₙ = 2^{Θ(n log n)} (Theorem 2.3) and
    r = n!/(2^{n/2}(n/2)!) (Lemma 4.1) overflow machine integers around
    n = 20–25, and the communication lower bounds are log₂ of these. *)

val binomial : int -> int -> Nat.t
(** Zero outside the triangle. *)

val bell : int -> Nat.t
(** Bₙ, the number of set partitions of [n]. *)

val bell_numbers : int -> Nat.t array
(** [bell_numbers n] is [|B₀; …; Bₙ|], computed in one Bell-triangle pass. *)

val stirling2_row : int -> Nat.t array
(** Row [n] of Stirling numbers of the second kind: S(n,0), …, S(n,n);
    their sum is Bₙ. *)

val perfect_matchings : int -> Nat.t
(** Number of perfect matchings of the complete graph on [n] (even)
    vertices — the dimension r of Eⁿ in Lemma 4.1.
    @raise Invalid_argument on odd or negative [n]. *)

val cycles_on : int -> Nat.t
(** Distinct (undirected, unrooted) cycles on k ≥ 3 labelled vertices:
    (k−1)!/2. @raise Invalid_argument for k < 3. *)

val one_cycle_count : int -> Nat.t
(** |V₁| of §3.1: one-cycle input graphs on n labelled vertices. *)

val two_cycle_count : int -> Nat.t
(** |V₂| of §3.1: two-disjoint-cycle input graphs on n labelled vertices,
    both cycle lengths ≥ 3; zero for n < 6. *)
