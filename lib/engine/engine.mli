(** The single synchronous round loop behind every simulator.

    A round is: each vertex consumes its inbox and emits, in increasing
    vertex order, then the {!Topology.t} exchange turns the emissions
    into the next round's inboxes. After [rounds] rounds the final
    states and inboxes are returned for the caller's output extraction.
    A model checks or counts an emission in its own [step] wrapper, as
    it leaves the vertex: a raise there rejects it before the
    exchange. *)

type ('state, 'emit, 'inbox) spec = {
  n : int;  (** Number of vertices / parties. *)
  rounds : int;
  step : 'state -> round:int -> vertex:int -> inbox:'inbox -> 'state * 'emit;
  exchange : ('emit, 'inbox) Topology.t;
}

type ('state, 'inbox) outcome = {
  states : 'state array;  (** Per-vertex states after the last round. *)
  final_inbox : 'inbox array;  (** Inboxes produced by the last exchange. *)
}

val domain_run_count : unit -> int
(** The {!run} invocations made on the calling domain: its own shard of
    [engine.runs]. Exact at any time, and blind to runs on other
    domains, so a delta around work done on one domain counts exactly
    that work — the per-cell execution count of the run manifest. *)

val run :
  ('state, 'emit, 'inbox) spec ->
  init_state:(int -> 'state) ->
  init_inbox:(int -> 'inbox) ->
  ('state, 'inbox) outcome
(** Execute the loop. [init_inbox v] is what vertex [v] consumes in
    round 1 (nothing was sent in "round 0").
    @raise Invalid_argument on a negative round bound or vertex count;
    whatever [step] raises propagates. *)
