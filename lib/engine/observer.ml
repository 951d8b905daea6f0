(* Per-round instrumentation for the engine: everything the four former
   simulators inlined — bandwidth/range validation, bit counting,
   transcript capture — is expressed as an observer composed into the
   one round loop instead of a fifth copy of it. *)

type ('emit, 'inbox) t = {
  on_start : n:int -> rounds:int -> unit;
  on_emit : round:int -> vertex:int -> inbox:'inbox -> emit:'emit -> unit;
  on_round_end : round:int -> inboxes:'inbox array -> unit;
}

let nop4 ~n:_ ~rounds:_ = ()
let nop_emit ~round:_ ~vertex:_ ~inbox:_ ~emit:_ = ()
let nop_end ~round:_ ~inboxes:_ = ()

let make ?(on_start = nop4) ?(on_emit = nop_emit) ?(on_round_end = nop_end) () =
  { on_start; on_emit; on_round_end }

(* A lone observer runs as it is, and none as the no-op: only a real
   list pays for the per-hook [List.iter] closure, which on [on_emit]
   would be an allocation per emission. *)
let combine = function
  | [] -> make ()
  | [ o ] -> o
  | observers ->
    { on_start = (fun ~n ~rounds -> List.iter (fun o -> o.on_start ~n ~rounds) observers);
      on_emit =
        (fun ~round ~vertex ~inbox ~emit ->
          List.iter (fun o -> o.on_emit ~round ~vertex ~inbox ~emit) observers);
      on_round_end =
        (fun ~round ~inboxes -> List.iter (fun o -> o.on_round_end ~round ~inboxes) observers) }

let validator check =
  make ~on_emit:(fun ~round ~vertex ~inbox:_ ~emit -> check ~round ~vertex emit) ()
