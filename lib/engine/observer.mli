(** Composable per-round instrumentation for {!Engine.run}.

    Observers are how bandwidth checks, bit counters and transcripts
    attach to the single round loop: each hook is invoked at a fixed
    point of the round and may raise (validators do) or accumulate into
    its own state (counters, transcripts). ['emit] is whatever a vertex
    emits per round, ['inbox] whatever it receives. *)

type ('emit, 'inbox) t = {
  on_start : n:int -> rounds:int -> unit;  (** Once, before round 1. *)
  on_round_start : round:int -> unit;
  on_emit : round:int -> vertex:int -> inbox:'inbox -> emit:'emit -> unit;
      (** After vertex [vertex] steps in [round]: the inbox it consumed
          and the message(s) it emitted. Raise to reject the emission —
          validation happens before the exchange, as in the old
          simulators. Vertices are visited in increasing index order. *)
  on_round_end : round:int -> inboxes:'inbox array -> unit;
      (** After the exchange of [round]: the inboxes for the next round. *)
}

val make :
  ?on_start:(n:int -> rounds:int -> unit) ->
  ?on_round_start:(round:int -> unit) ->
  ?on_emit:(round:int -> vertex:int -> inbox:'inbox -> emit:'emit -> unit) ->
  ?on_round_end:(round:int -> inboxes:'inbox array -> unit) ->
  unit ->
  ('emit, 'inbox) t
(** Missing hooks default to no-ops. *)

val combine : ('emit, 'inbox) t list -> ('emit, 'inbox) t
(** One observer running each hook of the list in order. A one-element
    list is returned as it is and [[]] is [make ()], so neither adds a
    call, or an allocation, per hook. *)

val validator : (round:int -> vertex:int -> 'emit -> unit) -> ('emit, 'inbox) t
(** An observer that only checks emissions (raise to reject). *)
