(** Deterministic power-sum syndrome sketches with exact s-sparse
    recovery — the coin-free counterpart of {!Bcclb_sketch.L0_sampler}.

    The sketch of a vector x over a coordinate universe is the vector of
    power sums S_j = Σ_e x_e·α_e^j for j = 0..r−1, with evaluation points
    α_e = e + 1 distinct and nonzero in GF(p) (p > universe, see
    {!Gfp.for_universe}). It is linear, hence add-mergeable across vertex
    sets exactly like the GF(2) samplers — an edge internal to a merged
    set contributes +1 and −1 and cancels — but with no hash functions
    and no failure probability: [decode] recovers any vector of sparsity
    at most s exactly, from r = [elements_for] s = 2s + 3 elements.

    The three extra elements beyond the 2s that Prony decoding consumes
    are verification hardening: a decode that passes them cannot disagree
    with any true vector of sparsity ≤ s + 3 (the difference would be a
    ≤ 2s + 3-sparse vector with r zero syndromes, impossible since any r
    columns of the Vandermonde evaluation matrix are independent). So on
    vectors up to 3 beyond the budget the decoder fails loudly rather
    than fabricating coordinates. *)

type t

val elements_for : s:int -> int
(** 2s + 3: syndrome length needed to decode sparsity s with the ±3
    misdecode margin above. *)

val create : field:Gfp.t -> r:int -> t
(** The all-zero syndrome with [r] elements. *)

val add : t -> coord:int -> weight:int -> unit
(** S_j ← S_j + weight·(coord + 1)^j for every j. Linearity in person:
    [weight] may be negative (subtracting a now-known coordinate is
    [add ~weight:(−w)]).
    @raise Invalid_argument if [coord + 1] ≥ p. *)

val merge_into : into:t -> t -> unit
(** Pointwise sum: the sketch of the sum of the underlying vectors.
    @raise Invalid_argument on mismatched fields or lengths. *)

val is_zero : t -> bool
val equal : t -> t -> bool

val decode : t -> s:int -> candidates:int array -> (int * int) array option
(** Exact sparse recovery: the support and signed coefficients of the
    sketched vector, sorted by coordinate, each coefficient a signed
    representative in (−p/2, p/2]. [Some] is returned only if the full
    decode chain verifies — Berlekamp–Massey locator of degree ≤ s, all
    locator roots found among [candidates] (each [α] = coord + 1),
    coefficients solving the transposed-Vandermonde system, and ALL r
    syndrome elements reproduced. Guarantees: if the sketched vector is
    ≤ s-sparse with support inside [candidates], the decode succeeds and
    is exact; if it is ≤ (s+3)-sparse, the decode never lies (it is
    either exact or [None]).
    @raise Invalid_argument if [s] exceeds [max_sparsity ~r:(length t)]. *)

val serialized_bits : t -> int
(** r · element_bits of the field. *)

val to_bits : t -> string
(** '0'/'1' serialization, each element MSB-first — the broadcast format,
    mirroring {!Bcclb_sketch.L0_sampler.to_bits}. *)

val of_bits : field:Gfp.t -> r:int -> string -> t
(** Inverse of {!to_bits}. @raise Invalid_argument on length mismatch or
    an element ≥ p. *)
