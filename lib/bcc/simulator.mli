(** The synchronous BCC(b) round simulator.

    Faithful to §1.2: in each round every vertex receives the previous
    round's broadcasts through its ports, updates its state, and
    broadcasts at most b bits (or stays silent); outputs consume the last
    round's broadcasts. Bandwidth violations raise immediately — an
    algorithm cannot cheat the model. Randomness is public-coin: all
    vertices receive generators with the same [seed].

    The three entries share one engine setup and differ only in what
    they record: {!run} keeps full transcripts, {!run_outputs} only the
    outputs, {!run_sent_codes} only the packed broadcast codes. Every
    entry enforces the bandwidth and feeds [engine.bits_broadcast]. A
    run keeps one board — each round's emissions, indexed by sender —
    and every vertex's inbox is a view of it through the vertex's port
    row ({!Inbox}); only {!run} copies inboxes, into its transcripts. *)

type 'o result = {
  outputs : 'o array;  (** Per-vertex outputs. *)
  transcripts : Transcript.t array;  (** Per-vertex transcripts. *)
  rounds_used : int;
}

val run : ?seed:int -> 'o Algo.packed -> Instance.t -> 'o result
(** Execute the algorithm on the instance.
    @raise Invalid_argument if a vertex exceeds the declared bandwidth. *)

val run_outputs : ?seed:int -> 'o Algo.packed -> Instance.t -> 'o array
(** [(run ?seed algo inst).outputs] without recording any traffic: the
    entry for callers that read only the decision (Monte Carlo error
    cells, exact distributional error, execution checks).
    @raise Invalid_argument if a vertex exceeds the declared bandwidth. *)

val run_sent_codes : ?seed:int -> 'o Algo.packed -> Instance.t -> int array
(** Lightweight execution recording only each vertex's packed broadcast
    sequence: 2 bits per round ({!Msg.code1}), LSB-first, one machine
    word per vertex. This is the fast path behind the §3 label machinery
    — no received-traffic capture, no transcript construction.
    @raise Invalid_argument if a vertex exceeds the declared bandwidth
    (which must be 1 for the code to be meaningful) or the round bound
    exceeds 31 (codes would not fit a word). *)

val indistinguishable : ?seed:int -> 'o Algo.packed -> Instance.t -> Instance.t -> bool
(** Do the two instances produce identical per-vertex states (initial
    knowledge + transcript) under this algorithm — the relation of
    Lemma 3.4? Vertices are compared by index, which is the natural
    correspondence for crossed instances. *)

val indistinguishable_from : 'o result -> Instance.t -> 'o result -> bool
(** [indistinguishable_from base i2 r2]: is [r2] (a run on [i2])
    vertex-wise transcript-equal to the memoized [base] run? Partial
    application over [base] lets a crossing sweep execute the base
    instance once instead of once per candidate pair. *)

val total_bits_broadcast : 'o result -> int
(** Σ over vertices of bits actually broadcast; the "information volume"
    the bottleneck arguments of §4 count. *)
