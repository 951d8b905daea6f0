(** Randomized Connectivity/ConnectedComponents for ARBITRARY input
    graphs in BCC(1), O(log³ n) rounds, via public-coin AGM linear
    sketches — the polylog-round regime the paper's introduction cites
    ("Connectivity can be solved in BCC(b) for any b ≥ 1 in just
    O(poly(log n)) rounds"), realised as a concrete algorithm.

    Every vertex broadcasts GF(2) ℓ₀-samplers of its incidence vector
    (one per Borůvka phase and boosting copy, hashes drawn from the
    shared coins). The decoded sketches and the sketch-Borůvka over them
    are then the same at every vertex, so one vertex runs them for the
    run, reading every port's payload off the board
    ({!Bcclb_bcc.Inbox.once}), and each vertex reads its own label.
    Monte Carlo: per-phase sampling can fail (retried across copies and
    extra phases) and checksum collisions can fabricate edges; both are
    rare at the default parameters and are measured in experiment E14.
    KT-1 instances only.

    The same payload runs at any bandwidth b ≥ 1 ({!Chunked}): the sketch
    bits are broadcast b per round, so rounds = ⌈O(log³ n) / b⌉ — the
    randomized column of the E15 bandwidth × rounds frontier. *)

type params = { copies : int; check_bits : int; phases : int }

val default_params : n:int -> params

val connectivity : ?bandwidth:int -> unit -> bool Bcclb_bcc.Algo.packed

val components : ?bandwidth:int -> unit -> int Bcclb_bcc.Algo.packed
(** Smallest member ID of the vertex's component (when the sketch
    Borůvka fully converges). *)
