(** A randomized Monte Carlo TwoCycle algorithm with a genuine
    rounds-vs-error trade-off: broadcast k-bit public-coin hashes of IDs
    instead of full IDs and decide connectivity of the hashed graph, in
    3k rounds.

    One-sided error: hashing only merges vertices, so YES (one-cycle)
    instances are always answered correctly, while a NO instance is
    answered YES iff some cross-cycle hash collision occurs — probability
    ≈ min(1, |C₁||C₂|/2^k). With k = o(log n) the error is constant;
    pushing it below a constant ε needs k = Ω(log n), i.e. Ω(log n)
    rounds — the trade-off Theorem 3.1 proves is unavoidable, exhibited
    by a concrete algorithm (experiment E3). *)

val connectivity : k:int -> bool Bcclb_bcc.Algo.packed
(** @raise Invalid_argument for k outside [1, 20], or at [init] on a
    vertex whose degree is not exactly 2. *)

val predicted_error : n:int -> k:int -> float
(** Union-bound prediction for the balanced two-cycle instance. *)
