(* The worker half of the dist runtime: a single-threaded loop around
   one coordinator connection, the socketpair end it was spawned with
   as stdin. While idle it blocks on the next frame; while working a
   lease it drains control frames (more leases, revokes, shutdown)
   between cells, so a Revoke lands before the next stolen cell is
   started.
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
let leases_metric = Obs.Metrics.Counter.v "dist.worker.leases"
let revoked_metric = Obs.Metrics.Counter.v "dist.worker.cells_revoked"
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

(* The coordinator session: Hello, Init, leases until Shutdown (or the
   peer vanishes). *)
type session = {
  tc : Conn.t;
  faults : Faults.t;
  resolve : string -> H.Experiment.t option;
  mutable cache : H.Cache.t option;
  mutable work : Msg.assignment list;  (* local queue, lease order *)
  mutable baseline : (string * Obs.Metrics.value) list;  (* last shipped snapshot *)
  mutable trace : Obs.Trace.context option;  (* parent for this lease's cell spans *)
}

let ship_delta s =
  let current = Obs.Metrics.snapshot () in
  let d = Obs.Metrics.delta ~baseline:s.baseline current in
  s.baseline <- current;
  d

let handle s = function
  | Msg.Init { cache_root; trace } ->
    s.cache <- Option.map (fun root -> H.Cache.create ~root) cache_root;
    s.trace <- trace;
    Option.iter
      (fun (ctx : Obs.Trace.context) -> Obs.Trace.start_collect ~trace_id:ctx.trace_id ())
      trace
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
    send s.tc (Msg.Bye { metrics = ship_delta s; spans = Obs.Trace.drain () });
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
      send s.tc (Msg.Lease_done { metrics = ship_delta s; spans = Obs.Trace.drain () })

let session ~resolve tc =
  let faults = match Faults.of_env () with Ok f -> f | Error e -> fatal tc e in
  let s =
    {
      tc;
      faults;
      resolve;
      cache = None;
      work = [];
      baseline = Obs.Metrics.snapshot ();
      trace = None;
    }
  in
  (* Ends only by exception: Shutdown, EOF, Reject or a dead socket. *)
  let rec loop () =
    if s.work <> [] then begin
      drain_control s;
      run_next s
    end
    else read_one s;
    loop ()
  in
  let result =
    try
      send tc (Msg.hello ());
      loop ()
    with
    | Done | Coordinator_gone | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> Ok ()
    | Rejected reason -> Error reason
  in
  Conn.close tc;
  result

(* One session against the coordinator that spawned us, then exit. A
   stdin that is not a socket (someone ran the worker by hand) has no
   coordinator behind it. *)
let main ?(resolve = H.Registry.find) () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if (Unix.fstat Unix.stdin).Unix.st_kind <> Unix.S_SOCK then begin
    prerr_endline "dist worker: stdin is not a coordinator's socket (workers are spawned by --backend procs)";
    exit 3
  end;
  match session ~resolve (Conn.of_fd Unix.stdin) with
  | Ok () -> exit 0
  | Error reason ->
    prerr_endline ("dist worker: rejected by coordinator: " ^ reason);
    exit 3
