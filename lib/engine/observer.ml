(* Per-round instrumentation for the engine: everything the four former
   simulators inlined — bandwidth/range validation, bit counting,
   transcript capture, wall-clock timing — is expressed as an observer
   composed into the one round loop instead of a fifth copy of it. *)

type ('emit, 'inbox) t = {
  on_start : n:int -> rounds:int -> unit;
  on_round_start : round:int -> unit;
  on_emit : round:int -> vertex:int -> inbox:'inbox -> emit:'emit -> unit;
  on_round_end : round:int -> inboxes:'inbox array -> unit;
}

let nop4 ~n:_ ~rounds:_ = ()
let nop1 ~round:_ = ()
let nop_emit ~round:_ ~vertex:_ ~inbox:_ ~emit:_ = ()
let nop_end ~round:_ ~inboxes:_ = ()

let make ?(on_start = nop4) ?(on_round_start = nop1) ?(on_emit = nop_emit) ?(on_round_end = nop_end)
    () =
  { on_start; on_round_start; on_emit; on_round_end }

let combine observers =
  { on_start = (fun ~n ~rounds -> List.iter (fun o -> o.on_start ~n ~rounds) observers);
    on_round_start = (fun ~round -> List.iter (fun o -> o.on_round_start ~round) observers);
    on_emit =
      (fun ~round ~vertex ~inbox ~emit ->
        List.iter (fun o -> o.on_emit ~round ~vertex ~inbox ~emit) observers);
    on_round_end =
      (fun ~round ~inboxes -> List.iter (fun o -> o.on_round_end ~round ~inboxes) observers) }

let validator check =
  make ~on_emit:(fun ~round ~vertex ~inbox:_ ~emit -> check ~round ~vertex emit) ()

(* Counters are thin views over the obs layer: the per-run total is
   still read locally (callers need this run's bits, not the process
   total), but every width also feeds the process-wide
   [engine.bits_broadcast] series so traces and manifests see broadcast
   volume without a second mechanism. *)
let bits_broadcast_metric = Bcclb_obs.Metrics.Counter.v "engine.bits_broadcast"

let counter ~width =
  let total = ref 0 in
  let obs =
    make
      ~on_emit:(fun ~round:_ ~vertex:_ ~inbox:_ ~emit ->
        let w = width emit in
        total := !total + w;
        Bcclb_obs.Metrics.Counter.add bits_broadcast_metric w)
      ()
  in
  (obs, fun () -> !total)

(* Monotonic, same clock as Obs.Trace spans: wall-clock steps (NTP
   slews, DST) can never produce a negative or skewed round time, and a
   round timing laid next to a span timeline lines up. *)
let round_timer () =
  let times = ref [] and started = ref 0 in
  let obs =
    make
      ~on_round_start:(fun ~round:_ -> started := Bcclb_obs.Mclock.now_ns ())
      ~on_round_end:(fun ~round:_ ~inboxes:_ ->
        times := Bcclb_obs.Mclock.(ns_to_s (elapsed_ns ~since:!started)) :: !times)
      ()
  in
  (obs, fun () -> Array.of_list (List.rev !times))
