(* The worker half of the dist runtime: a single-threaded loop around
   one coordinator connection. While idle it wakes every
   heartbeat_interval to send a Heartbeat; while working a lease it
   drains control frames (more leases, revokes, shutdown) between
   cells, so a Revoke lands before the next stolen cell is started.
   Cells run through Runner.run_cell — the same probe/compute/
   checkpoint path as the in-process backend — so cache keys, stored
   entries and rows cannot diverge.

   Metrics stream home as deltas: every drained lease ships the
   Metrics.delta since the previous shipment (Lease_done), and Bye
   carries the final delta. Absorbing every delta equals absorbing one
   final snapshot — the partition-of-timeline property tested in
   test_obs — so the coordinator's merged totals are exactly what the
   old Bye-only snapshot gave, minus only what a crash loses. *)

module H = Bcclb_harness
module Obs = Bcclb_obs
module Conn = Transport.Conn

let cells_metric = Obs.Metrics.Counter.v "dist.worker.cells"
let heartbeats_metric = Obs.Metrics.Counter.v "dist.worker.heartbeats"
let leases_metric = Obs.Metrics.Counter.v "dist.worker.leases"
let revoked_metric = Obs.Metrics.Counter.v "dist.worker.cells_revoked"
let sessions_metric = Obs.Metrics.Counter.v "dist.worker.sessions"
let cell_seconds = Obs.Metrics.Histogram.v "dist.worker.cell_seconds"

exception Done  (* clean shutdown requested *)
exception Coordinator_gone  (* EOF from the coordinator *)
exception Rejected of string  (* handshake refused *)

let send tc m = Conn.send tc (Msg.from_worker_payload m)

let fatal tc message =
  (try send tc (Msg.Fatal { message }) with _ -> ());
  exit 3

(* One cell. Faults fire before any computation and only on attempt 0
   (see Faults) — and a stolen cell arrives at attempt >= 1, so a fault
   fires at most once per cell ever. A Crash is an abrupt exit — no
   farewell frame, exactly like a SIGKILL from outside — and a Stall
   just never answers, so the coordinator's progress deadline (and the
   other workers' stealing) have something real to catch.

   When the coordinator traces, [trace] is its sweep context: the cell
   wrapper span parents under the coordinator's [dist.sweep], and the
   [runner.cell] span inside Runner.run_cell nests under the wrapper —
   one connected tree across processes. *)
let serve_cell tc faults ?trace ~cache ~exp ~cell ~attempt ~params () =
  (match Faults.action faults ~cell ~attempt with
  | Some Faults.Crash -> exit 66
  | Some Faults.Stall ->
    while true do
      Unix.sleepf 3600.0
    done
  | None -> ());
  let stop = Obs.Mclock.counter () in
  let run () =
    Obs.Trace.span ?parent:trace
      ~attrs:[ ("cell", string_of_int cell); ("attempt", string_of_int attempt) ]
      "dist.cell"
      (fun () -> H.Runner.run_cell ?cache exp params)
  in
  match run () with
  | outcome ->
    let seconds = stop () in
    Obs.Metrics.Counter.incr cells_metric;
    Obs.Metrics.Histogram.observe cell_seconds seconds;
    send tc (Msg.Result { cell; outcome; seconds })
  | exception H.Runner.Cell_failed { message; _ } -> send tc (Msg.Cell_error { cell; message })

(* One coordinator session: Hello, Init, leases until Shutdown (or the
   peer vanishes). Shared by the dial-back (spawned) and listen-mode
   (pre-started) workers; the latter runs one session per accepted
   coordinator and then returns to accepting. *)
type session = {
  tc : Conn.t;
  faults : Faults.t;
  resolve : string -> H.Experiment.t option;
  mutable cache : H.Cache.t option;
  mutable interval : float;
  mutable work : Msg.assignment list;  (* local queue, lease order *)
  mutable baseline : (string * Obs.Metrics.value) list;  (* last shipped snapshot *)
  mutable trace : Obs.Trace.context option;  (* parent for this lease's cell spans *)
  mutable collecting : bool;  (* we own a Trace collect buffer for this session *)
}

let ship_delta s =
  let current = Obs.Metrics.snapshot () in
  let d = Obs.Metrics.delta ~baseline:s.baseline current in
  s.baseline <- current;
  d

(* Only drain a buffer this session created: a listen-mode worker
   tracing to its own $BCCLB_TRACE file keeps its spans local. *)
let ship_spans s = if s.collecting then Obs.Trace.drain () else []

let handle s = function
  | Msg.Init { cache_root; heartbeat_interval; trace } ->
    s.cache <- Option.map (fun root -> H.Cache.create ~root) cache_root;
    s.interval <- heartbeat_interval;
    s.trace <- trace;
    (match trace with
    | Some ctx when not (Obs.Trace.enabled ()) ->
      Obs.Trace.start_collect ~trace_id:ctx.trace_id ();
      s.collecting <- true
    | _ -> ())
  | Msg.Lease { cells; trace } ->
    Obs.Metrics.Counter.incr leases_metric;
    (match trace with Some _ -> s.trace <- trace | None -> ());
    s.work <- s.work @ Array.to_list cells
  | Msg.Revoke { cells } ->
    let before = List.length s.work in
    s.work <- List.filter (fun (a : Msg.assignment) -> not (List.mem a.cell cells)) s.work;
    Obs.Metrics.Counter.add revoked_metric (before - List.length s.work)
  | Msg.Reject { reason } -> raise (Rejected reason)
  | Msg.Shutdown ->
    send s.tc (Msg.Bye { metrics = ship_delta s; spans = ship_spans s });
    raise Done

let read_one s =
  match Conn.recv s.tc with
  | Error Wire.Closed -> raise Coordinator_gone
  | Error e -> fatal s.tc ("bad frame from coordinator: " ^ Wire.error_to_string e)
  | Ok payload -> (
    match Msg.of_payload_to_worker payload with
    | Error e -> fatal s.tc e
    | Ok m -> handle s m)

(* Handle every frame the kernel already has, without blocking for
   more — called between cells so revokes and shutdowns take effect
   before the next cell is started. *)
let rec drain_control s =
  match Unix.select [ Conn.fd s.tc ] [] [] 0.0 with
  | [], _, _ -> ()
  | _ ->
    read_one s;
    drain_control s
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let run_next s =
  match s.work with
  | [] -> ()
  | { Msg.cell; attempt; exp_id; params } :: rest ->
    s.work <- rest;
    (match s.resolve exp_id with
    | None -> fatal s.tc (Printf.sprintf "unknown experiment id %S" exp_id)
    | Some exp ->
      serve_cell s.tc s.faults ?trace:s.trace ~cache:s.cache ~exp ~cell ~attempt ~params ());
    if s.work = [] then
      send s.tc (Msg.Lease_done { metrics = ship_delta s; spans = ship_spans s })

let session ?stop ~resolve tc =
  Obs.Metrics.Counter.incr sessions_metric;
  let faults = match Faults.of_env () with Ok f -> f | Error e -> fatal tc e in
  let s =
    {
      tc;
      faults;
      resolve;
      cache = None;
      interval = 0.25;
      work = [];
      baseline = Obs.Metrics.snapshot ();
      trace = None;
      collecting = false;
    }
  in
  let stopped () = match stop with Some flag -> Atomic.get flag | None -> false in
  let result =
    try
      send tc (Msg.hello ());
      while not (stopped ()) do
        if s.work <> [] then begin
          drain_control s;
          run_next s
        end
        else
          match Unix.select [ Conn.fd tc ] [] [] s.interval with
          | [], _, _ ->
            Obs.Metrics.Counter.incr heartbeats_metric;
            send tc Msg.Heartbeat
          | _ -> read_one s
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      `Stopped
    with
    | Done -> `Done
    | Coordinator_gone -> `Gone
    | Rejected reason -> `Rejected reason
    | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> `Gone
  in
  (* Tear down a session-owned collect buffer so the next coordinator
     (listen mode) starts clean; stop on Buffer_only discards. *)
  if s.collecting then Obs.Trace.stop ();
  Conn.close tc;
  result

let parse_address address =
  match Addr.of_string address with
  | Ok a -> a
  | Error e ->
    prerr_endline ("dist worker: " ^ e);
    exit 3

(* Dial-back mode: one session against the coordinator that spawned us,
   then exit. *)
let main ?(resolve = H.Registry.find) ~address () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let addr = parse_address address in
  let tc =
    match Conn.dial addr with
    | Ok tc -> tc
    | Error e ->
      prerr_endline ("dist worker: " ^ e);
      exit 3
  in
  match session ~resolve tc with
  | `Done | `Gone | `Stopped -> exit 0
  | `Rejected reason ->
    prerr_endline ("dist worker: rejected by coordinator: " ^ reason);
    exit 3

(* Listen mode: a pre-started roster worker. Serves one coordinator
   session per accepted connection, forever, until SIGINT/SIGTERM —
   then drains (the in-flight session sees the flag between cells),
   unlinks its endpoint and returns, so the caller's own teardown (a
   metrics endpoint's unlink) still runs. A Reject is logged but not
   fatal: the skewed coordinator goes away, and a rebuilt one may dial
   in later. *)
let main_listen ?(resolve = H.Registry.find) ~address () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let addr = parse_address address in
  let stop = Transport.install_stop_signals () in
  (* A pre-started worker may trace to its own file ($BCCLB_TRACE);
     install_stop_signals registered the at_exit flush, so SIGTERM
     still writes a complete trace. *)
  Obs.Trace.start_from_env ();
  match Transport.listen addr with
  | Error e ->
    prerr_endline ("dist worker: " ^ e);
    exit 3
  | Ok l ->
    Printf.eprintf "[worker %d] listening on %s\n%!" (Unix.getpid ())
      (Addr.to_string (Transport.listener_addr l));
    let lfd = Transport.listener_fd l in
    while not (Transport.stop_requested stop) do
      match Unix.select [ lfd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ -> (
        match Unix.accept ~cloexec:true lfd with
        | fd, _ -> (
          match session ~stop ~resolve (Conn.of_fd fd) with
          | `Rejected reason ->
            Printf.eprintf "[worker %d] rejected by coordinator: %s — still listening\n%!"
              (Unix.getpid ()) reason
          | `Done | `Gone | `Stopped -> ())
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    Transport.close_listener l;
    Printf.eprintf "[worker %d] stopped, endpoint removed\n%!" (Unix.getpid ())
