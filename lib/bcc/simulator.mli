(** The synchronous BCC(b) round simulator.

    Faithful to §1.2: in each round every vertex receives the previous
    round's broadcasts through its ports, updates its state, and
    broadcasts at most b bits (or stays silent); outputs consume the last
    round's broadcasts. Bandwidth violations raise immediately — an
    algorithm cannot cheat the model. Randomness is public-coin: all
    vertices receive generators with the same [seed].

    A run keeps one board — each round's emissions, indexed by sender —
    and it is the run's only record: every vertex's inbox is a view of
    it through the vertex's port row ({!Inbox}). The entries are reads
    of one execution: {!run} returns the outputs and every vertex's
    transcript, a view of the same board ({!Transcript}); {!run_members}
    the outputs of every requested member of a truncation family
    ({!run_outputs} the algorithm's own); {!run_sent_codes} the packed
    broadcast codes, read off the board after the last round. Every
    entry enforces the bandwidth and feeds [engine.bits_broadcast]. The
    entries that call [finish] land the board's shared-value counts
    ({!Inbox.once}) once per run in [bcc.shared_misses] (computed) and
    [bcc.shared_hits] (reused). *)

type 'o result = {
  outputs : 'o array;  (** Per-vertex outputs. *)
  transcripts : Transcript.t array;  (** Per-vertex transcripts. *)
  rounds_used : int;
}

val run : ?seed:int -> 'o Algo.packed -> Instance.t -> 'o result
(** Execute the algorithm on the instance.
    @raise Invalid_argument if a vertex exceeds the declared bandwidth. *)

val run_members : ?seed:int -> 'o Algo.packed -> Instance.t -> rounds:int array -> 'o array array
(** [run_members algo inst ~rounds] executes [algo] once and returns,
    for each entry r of [rounds], the outputs {!run_outputs} gives for
    the r-round member of its truncation family ({!Algo.deepen}): every
    vertex's [finish] on its live state and view once the run has played
    r rounds (r = 0 before round 1). Members run the same steps on the
    same board up to their own last round, so one execution of the
    deepest serves them all. A value [finish] shares through
    {!Inbox.once} is keyed by the rounds heard, so a finish at round r
    shares only with the other views at r. Only a read before the
    algorithm's last round mirrors the per-vertex states, and [finish]
    must leave the state it reads unchanged ({!Algo.field-finish}).
    @raise Invalid_argument if a vertex exceeds the declared bandwidth,
    if some r lies outside [0..rounds] of [algo], or if some r differs
    from [algo]'s own round count and [algo] is not a truncation. *)

val run_outputs : ?seed:int -> 'o Algo.packed -> Instance.t -> 'o array
(** [(run ?seed algo inst).outputs] — the {!run_members} read at the
    algorithm's own round count: the entry for callers that read only
    the decision (Monte Carlo error cells, execution checks).
    @raise Invalid_argument if a vertex exceeds the declared bandwidth. *)

val run_sent_codes : ?seed:int -> 'o Algo.packed -> Instance.t -> int array
(** Each vertex's broadcast sequence packed 2 bits per round
    ({!Msg.code1}), LSB-first, one machine word per vertex, read off the
    board after the last round. This is the fast path behind the §3
    label machinery — no transcripts, no [finish].
    @raise Invalid_argument if a vertex exceeds the declared bandwidth,
    if some broadcast is wider than 1 bit (codes exist for BCC(1) only),
    or if the round bound exceeds 31 (codes would not fit a word). *)

val indistinguishable : ?seed:int -> 'o Algo.packed -> Instance.t -> Instance.t -> bool
(** Do the two instances produce equal transcripts ({!Transcript.equal},
    initial knowledge included) at every vertex under this algorithm —
    the relation of Lemma 3.4? Vertices are compared by index, which is
    the natural correspondence for crossed instances. *)

val indistinguishable_from : 'o result -> Instance.t -> 'o result -> bool
(** [indistinguishable_from base i2 r2]: is [r2] (a run on [i2])
    vertex-wise transcript-equal to the memoized [base] run? Partial
    application over [base] lets a crossing sweep execute the base
    instance once instead of once per candidate pair. *)

val total_bits_broadcast : 'o result -> int
(** Σ over vertices of bits actually broadcast; the "information volume"
    the bottleneck arguments of §4 count. *)
