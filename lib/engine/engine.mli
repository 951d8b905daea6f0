(** The single synchronous round loop behind every simulator.

    A round is: each vertex consumes its inbox and emits (in increasing
    vertex order), observers see each emission (and may raise — that is
    how bandwidth/range validation works), then the {!Topology.t}
    exchange turns the emissions into the next round's inboxes. After
    [rounds] rounds the final states and inboxes are returned for the
    caller's output extraction. *)

type ('state, 'emit, 'inbox) spec = {
  n : int;  (** Number of vertices / parties. *)
  rounds : int;
  step : 'state -> round:int -> vertex:int -> inbox:'inbox -> 'state * 'emit;
  exchange : ('emit, 'inbox) Topology.t;
}

type ('state, 'inbox) outcome = {
  states : 'state array;  (** Per-vertex states after the last round. *)
  final_inbox : 'inbox array;  (** Inboxes produced by the last exchange. *)
  rounds_used : int;
}

val domain_run_count : unit -> int
(** The {!run} invocations made on the calling domain: its own shard of
    [engine.runs]. Exact at any time, and blind to runs on other
    domains, so a delta around work done on one domain counts exactly
    that work — the per-cell execution count of the run manifest. *)

val run :
  ?observers:('emit, 'inbox) Observer.t list ->
  ('state, 'emit, 'inbox) spec ->
  init_state:(int -> 'state) ->
  init_inbox:(int -> 'inbox) ->
  ('state, 'inbox) outcome
(** Execute the loop. [init_inbox v] is what vertex [v] consumes in
    round 1 (nothing was sent in "round 0").
    @raise Invalid_argument on a negative round bound or vertex count;
    whatever observers raise propagates. *)
