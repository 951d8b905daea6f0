(** Deterministic Connectivity in BCC(b) in O(1) rounds at b = Θ(log n) —
    the Montealegre–Todinca upper-bound counterpoint to the paper's 1-bit
    lower bounds, realised as a real engine algorithm.

    Every vertex broadcasts, per phase, the deterministic power-sum
    syndrome ({!Bcclb_detsketch.Syndrome}) of its residual incidence
    vector — the incident edges whose status is not yet public — chunked
    b bits per round. Every vertex hears every syndrome, so the phase's
    decode is public: it runs once per run, when the phase's last round
    has been heard ({!Bcclb_bcc.Inbox.once}), and yields an immutable
    edge-status table and component labels that every vertex reads. The
    decode is per-vertex exact sparse recovery (which certifies
    non-edges too), a peeling cascade (newly learnt edges are subtracted
    from both endpoints' syndromes, unlocking further decodes), and
    per-component syndrome sums whose internal edges cancel, so a
    component decodes its whole outgoing cut at once — sketch-Borůvka.
    A vertex keeps only its view, its own incidence, the public state
    and its payload. The sparsity budget doubles each phase (s·2^k), so
    O(1) phases cover the degree range of the promise families.

    Everything is coin-free. Exactness promise, from
    {!Bcclb_detsketch.Syndrome.decode}: any residual vector within 3 of
    the phase's sparsity budget is decoded exactly or refused — never
    fabricated. Under the promise that each phase's residual degrees stay
    in that envelope (all the E15 grid families do; max degree ≤ s
    already suffices for phase 1 to resolve everything), the output
    equals ground truth on YES and NO instances alike, which the tests
    check by execution against the {!Bcclb_graph.Conn} oracle.

    Round accounting mirrors {!Agm_connectivity}: [total_rounds] =
    Σ_k ⌈(2·s·2^k + 3)·⌈log₂ p⌉ / b⌉ — independent of n once
    b = Θ(log n) (the default bandwidth), and Θ(log n) rounds at b = 1:
    the frontier experiment E15 sweeps exactly this trade-off.
    KT-1 instances only. *)

type params = {
  s0 : int;  (** Phase-0 sparsity budget (doubles each phase). *)
  phases : int;  (** Number of sketch-and-decode phases. *)
  bandwidth : int;  (** b: bits broadcast per round, in [1, 62]. *)
}

val default_params : n:int -> params
(** s0 = 4, phases = 2, bandwidth = [element_bits ~n] = Θ(log n). *)

val element_bits : n:int -> int
(** ⌈log₂ p⌉ for the field sized to the n-vertex edge universe —
    the Θ(log n) unit the bandwidth is naturally measured in. *)

val syndrome_bits : n:int -> params -> int
(** Total broadcast payload per vertex, all phases. *)

val total_rounds : n:int -> params -> int
(** Σ over phases of ⌈phase payload / bandwidth⌉. *)

val connectivity : ?params:params -> unit -> bool Bcclb_bcc.Algo.packed

val components : ?params:params -> unit -> int Bcclb_bcc.Algo.packed
(** Smallest member ID of the vertex's component (under the promise). *)
