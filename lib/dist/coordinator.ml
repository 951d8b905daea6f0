(* The coordinator event loop. Single-threaded: one select over the
   (optional) listener and every worker socket, then four passes per
   tick — population (spawn up to the target while work remains, local
   rosters only), assignment (idle workers get a batched cell lease, or
   steal the tail of the slowest lease when the queue is dry), reaping
   (waitpid WNOHANG so crashed local pids are seen even before their
   socket EOFs), and deadlines (leased workers against cell_timeout
   since their last progress, idle ones against heartbeat_timeout). All
   worker fds are nonblocking and read through Transport.Conn.pump;
   frames the reader rejects poison the connection and the worker is
   treated as crashed.

   Recovery invariant: a cell is *held* by at most one live worker at a
   time — grants come off the pending queue, steals move cells from one
   lease to another with a Revoke to the victim, and a dead worker's
   lease is requeued only after the worker is destroyed. The only
   duplicate computations possible are steal races (the victim had
   already started a revoked cell); those are settled by
   [is_resolved], and cells are deterministic, so duplicates cannot
   change a byte of the report. *)

module H = Bcclb_harness
module Obs = Bcclb_obs
module Conn = Transport.Conn

let workers_spawned = Obs.Metrics.Counter.v "dist.workers_spawned"
let worker_deaths = Obs.Metrics.Counter.v "dist.worker_deaths"
let leases_metric = Obs.Metrics.Counter.v "dist.leases"
let leased_cells_metric = Obs.Metrics.Counter.v "dist.leased_cells"
let steals_metric = Obs.Metrics.Counter.v "dist.steals"
let stolen_cells_metric = Obs.Metrics.Counter.v "dist.stolen_cells"
let requeues = Obs.Metrics.Counter.v "dist.requeues"
let frames_in = Obs.Metrics.Counter.v "dist.frames_in"
let bytes_in = Obs.Metrics.Counter.v "dist.bytes_in"
let heartbeats_metric = Obs.Metrics.Counter.v "dist.heartbeats"
let deltas_metric = Obs.Metrics.Counter.v "dist.metric_deltas_absorbed"
let snapshots_metric = Obs.Metrics.Counter.v "dist.metric_snapshots_absorbed"
let rejects_metric = Obs.Metrics.Counter.v "dist.handshake_rejects"
let remote_joins = Obs.Metrics.Counter.v "dist.remote_workers_joined"
let spans_ingested = Obs.Metrics.Counter.v "dist.spans_ingested"

type roster = Local_spawn of int | Remote of Addr.t list

type config = {
  roster : roster;
  transport : [ `Unix_socket | `Tcp ];
  heartbeat_interval : float;
  heartbeat_timeout : float;
  cell_timeout : float;
  max_retries : int;
  lease_target_seconds : float;
  spawn : address:string -> int;
}

let config ?(transport = `Unix_socket) ?(heartbeat_interval = 0.25) ?(heartbeat_timeout = 30.0)
    ?(cell_timeout = 600.0) ?(max_retries = 2) ?(lease_target_seconds = 1.0) ?(remotes = [])
    ~spawn ~workers () =
  let roster =
    match remotes with
    | [] ->
      if workers < 1 then invalid_arg "Coordinator.config: workers must be >= 1";
      Local_spawn workers
    | rs -> Remote rs
  in
  {
    roster;
    transport;
    heartbeat_interval;
    heartbeat_timeout;
    cell_timeout;
    max_retries;
    lease_target_seconds;
    spawn;
  }

type wstate =
  | Greeting  (** Connected, no accepted [Hello] yet. *)
  | Ready  (** Joined; may hold a lease (lease <> []) or be idle. *)
  | Saying_bye of float  (** [Shutdown] sent at this time. *)

type conn = {
  tc : Conn.t;
  origin : [ `Local | `Remote of Addr.t ];
  mutable pid : int;  (* -1 until Hello *)
  mutable state : wstate;
  mutable lease : int list;  (* outstanding cells, current first *)
  mutable progress_at : float;  (* lease grant or last Result *)
  established_ns : int;  (* raw Mclock at accept/dial: handshake send side *)
  mutable offset_ns : int;  (* worker clock -> our clock, from the Hello RTT *)
}

let now = Transport.now

let rec split_at k xs =
  if k <= 0 then ([], xs)
  else match xs with [] -> ([], []) | x :: tl -> let a, b = split_at (k - 1) tl in (x :: a, b)

(* The experiment a session cell belongs to. *)
let exp_id cells i = (fst cells.(i)).H.Experiment.id

let run c ~cache ~cells =
  let n = Array.length cells in
  if n = 0 then [||]
  else begin
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let expected =
      match c.roster with Local_spawn w -> w | Remote rs -> List.length rs
    in
    Obs.span "dist.sweep"
      ~attrs:[ ("cells", string_of_int n); ("workers", string_of_int expected) ]
    @@ fun () ->
    (* A listener only exists for self-populated rosters; remote rosters
       dial out instead. *)
    let listener =
      match c.roster with
      | Local_spawn _ ->
        let l = Transport.listen_local c.transport in
        Unix.set_nonblock (Transport.listener_fd l);
        Some l
      | Remote _ -> None
    in
    let address =
      match listener with
      | Some l -> Addr.to_string (Transport.listener_addr l)
      | None -> ""
    in
    let results : (H.Runner.cell_outcome * float) option array = Array.make n None in
    let failures : string option array = Array.make n None in
    let grants = Array.make n 0 in  (* lease grants, incl. steals: the wire's [attempt] *)
    let losses = Array.make n 0 in  (* worker deaths while holding the cell: the retry cap *)
    let resolved = ref 0 in
    let pending = Queue.create () in
    Array.iteri (fun i _ -> Queue.push i pending) cells;
    let conns : conn list ref = ref [] in
    let live_pids : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let helloed : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let unconnected = ref 0 in
    let spawned = ref 0 in
    let spawn_cap = expected + ((c.max_retries + 1) * n) in
    let shutdown_at = ref None in
    (* EWMA of observed per-cell seconds, for adaptive lease sizes. *)
    let avg_cell = ref None in
    let observe_seconds s =
      avg_cell := Some (match !avg_cell with None -> s | Some a -> (0.7 *. a) +. (0.3 *. s))
    in

    let is_resolved i = results.(i) <> None || failures.(i) <> None in
    let resolve_result i r =
      if not (is_resolved i) then begin
        results.(i) <- Some r;
        incr resolved
      end
    in
    let resolve_failure i msg =
      if not (is_resolved i) then begin
        failures.(i) <- Some msg;
        incr resolved
      end
    in
    let fail fmt = Printf.ksprintf (fun s -> failwith ("dist: " ^ s)) fmt in

    let spawn_one () =
      if !spawned >= spawn_cap then
        fail "spawn budget exhausted after %d workers (is the worker binary broken?)" !spawned;
      incr spawned;
      let pid = c.spawn ~address in
      Hashtbl.replace live_pids pid ();
      incr unconnected;
      Obs.Metrics.Counter.incr workers_spawned
    in

    let requeue i =
      Obs.Metrics.Counter.incr requeues;
      losses.(i) <- losses.(i) + 1;
      if losses.(i) > c.max_retries then
        fail "cell %d (%s) of %s lost its worker %d times; giving up" i
          (H.Params.canonical (snd cells.(i)))
          (exp_id cells i) losses.(i);
      Queue.push i pending
    in

    (* Graceful end of a connection (after Bye): no kill, no requeue —
       a local pid is reaped by the WNOHANG pass once it exits; a
       remote worker goes back to accepting its next coordinator. *)
    let retire conn = Conn.close conn.tc in
    (* Crash/timeout path: close, kill a local process (a remote one is
       out of reach — the active set just shrinks), and requeue the
       outstanding lease. *)
    let destroy ?(kill = true) conn =
      if not (Conn.is_closed conn.tc) then begin
        Conn.close conn.tc;
        (match conn.origin with
        | `Local when kill && conn.pid > 0 -> (
          try Unix.kill conn.pid Sys.sigkill with Unix.Unix_error _ -> ())
        | _ -> ());
        Obs.Metrics.Counter.incr worker_deaths;
        let lease = conn.lease in
        conn.lease <- [];
        List.iter (fun i -> if not (is_resolved i) then requeue i) lease
      end
    in

    let send conn m =
      try Conn.send conn.tc (Msg.to_worker_payload m) with Unix.Unix_error _ -> destroy conn
    in

    let live_ready () =
      List.length
        (List.filter (fun k -> (not (Conn.is_closed k.tc)) && k.state = Ready) !conns)
    in

    (* Lease sizing: carve the remaining grid fairly across the roster
       while latency is unknown, then shrink to ~lease_target_seconds
       of work per batch once cell times are observed. Shrinking fair
       shares as the grid drains is what makes the active set contract
       near the end — late leases are small, and idle workers steal the
       stragglers' tails. *)
    let lease_size () =
      let live = max expected (max 1 (live_ready ())) in
      let remaining = max 1 (n - !resolved) in
      let fair = max 1 ((remaining + live - 1) / live) in
      match !avg_cell with
      | None -> fair
      | Some a ->
        let by_latency =
          int_of_float (Float.ceil (c.lease_target_seconds /. Float.max a 1e-6))
        in
        max 1 (min fair by_latency)
    in

    let next_pending () =
      let rec go () =
        if Queue.is_empty pending then None
        else
          let i = Queue.pop pending in
          if is_resolved i then go () else Some i
      in
      go ()
    in
    let take_pending k =
      let rec go acc k =
        if k = 0 then List.rev acc
        else match next_pending () with None -> List.rev acc | Some i -> go (i :: acc) (k - 1)
      in
      go [] k
    in

    let grant conn idxs =
      if idxs <> [] then begin
        let cells_arr =
          Array.of_list
            (List.map
               (fun i ->
                 let attempt = grants.(i) in
                 grants.(i) <- attempt + 1;
                 { Msg.cell = i; attempt; exp_id = exp_id cells i; params = snd cells.(i) })
               idxs)
        in
        conn.lease <- conn.lease @ idxs;
        conn.progress_at <- now ();
        Obs.Metrics.Counter.incr leases_metric;
        Obs.Metrics.Counter.add leased_cells_metric (List.length idxs);
        send conn (Msg.Lease { cells = cells_arr; trace = Obs.Trace.context () })
      end
    in

    (* Work stealing: an idle worker facing an empty queue reclaims the
       tail half of the largest outstanding lease (the head is in
       flight at the victim and cannot be recalled). The victim gets a
       Revoke so it drops the cells from its local queue; if it already
       started one, the duplicate result is settled by is_resolved.
       Stolen cells are re-granted at their next attempt number, so
       injected faults (attempt-0-only) never re-fire. *)
    let try_steal thief =
      if !shutdown_at = None then begin
        let victim =
          List.fold_left
            (fun best k ->
              if k != thief && (not (Conn.is_closed k.tc)) && List.length k.lease >= 2 then
                match best with
                | Some b when List.length b.lease >= List.length k.lease -> best
                | _ -> Some k
              else best)
            None !conns
        in
        match victim with
        | None -> ()
        | Some v ->
          let len = List.length v.lease in
          let steal_n = len / 2 in
          let kept, stolen = split_at (len - steal_n) v.lease in
          v.lease <- kept;
          Obs.Metrics.Counter.incr steals_metric;
          Obs.Metrics.Counter.add stolen_cells_metric (List.length stolen);
          send v (Msg.Revoke { cells = stolen });
          if not (Conn.is_closed thief.tc) then grant thief stolen
          else List.iter (fun i -> if not (is_resolved i) then requeue i) stolen
      end
    in

    let handle conn = function
      | Msg.Hello { pid; fingerprint; cache_epoch; now_ns } -> (
        conn.pid <- pid;
        (* The worker read its clock between our connection setup and
           this receipt; the midpoint estimate places every span it
           ships at or after the moment we initiated the connection. *)
        conn.offset_ns <-
          Obs.Trace.offset_of_handshake ~sent_ns:conn.established_ns
            ~recv_ns:(Obs.Mclock.now_ns ()) ~remote_ns:now_ns;
        (match conn.origin with
        | `Local -> Hashtbl.replace helloed pid ()
        | `Remote _ -> ());
        match Msg.handshake_error ~fingerprint ~cache_epoch with
        | Some reason -> (
          Obs.Metrics.Counter.incr rejects_metric;
          send conn (Msg.Reject { reason });
          match conn.origin with
          | `Local ->
            (* A self-spawned worker can only skew via a broken deploy
               (or the test hook); respawning the same binary cannot
               help, so fail loudly now. *)
            fail "worker %d rejected at handshake: %s" pid reason
          | `Remote addr ->
            Printf.eprintf "[dist] roster worker %s rejected: %s\n%!" (Addr.to_string addr)
              reason;
            destroy ~kill:false conn)
        | None ->
          (match conn.origin with
          | `Remote _ -> Obs.Metrics.Counter.incr remote_joins
          | `Local -> ());
          if !shutdown_at <> None then begin
            (* Late joiner of a finished sweep: straight to goodbye. *)
            send conn Msg.Shutdown;
            if not (Conn.is_closed conn.tc) then conn.state <- Saying_bye (now ())
          end
          else begin
            conn.state <- Ready;
            send conn
              (Msg.Init
                 {
                   cache_root = Option.map H.Cache.root cache;
                   heartbeat_interval = c.heartbeat_interval;
                   trace = Obs.Trace.context ();
                 })
          end)
      | Msg.Heartbeat -> Obs.Metrics.Counter.incr heartbeats_metric
      | Msg.Result { cell; outcome; seconds } ->
        resolve_result cell (outcome, seconds);
        conn.lease <- List.filter (fun i -> i <> cell) conn.lease;
        conn.progress_at <- now ();
        observe_seconds seconds
      | Msg.Cell_error { cell; message } ->
        resolve_failure cell message;
        conn.lease <- List.filter (fun i -> i <> cell) conn.lease;
        conn.progress_at <- now ()
      | Msg.Lease_done { metrics; spans } ->
        Obs.Metrics.absorb metrics;
        Obs.Metrics.Counter.incr deltas_metric;
        if spans <> [] then begin
          Obs.Trace.ingest ~offset_ns:conn.offset_ns spans;
          Obs.Metrics.Counter.add spans_ingested (List.length spans)
        end
      | Msg.Bye { metrics; spans } ->
        Obs.Metrics.absorb metrics;
        Obs.Metrics.Counter.incr snapshots_metric;
        if spans <> [] then begin
          Obs.Trace.ingest ~offset_ns:conn.offset_ns spans;
          Obs.Metrics.Counter.add spans_ingested (List.length spans)
        end;
        retire conn
      | Msg.Fatal { message } -> fail "worker %d is unserviceable: %s" conn.pid message
    in

    let read_buf = Bytes.create 65536 in
    let pump conn =
      match
        Conn.pump conn.tc ~buf:read_buf
          ~on_bytes:(fun k -> Obs.Metrics.Counter.add bytes_in k)
          ~on_frame:(fun payload ->
            Obs.Metrics.Counter.incr frames_in;
            match Msg.of_payload_from_worker payload with
            | Ok m -> handle conn m
            | Error _ -> destroy conn)
      with
      | `Ok | `Closed -> ()
      | `Eof -> destroy ~kill:false conn
      | `Error _ -> destroy conn
    in

    let accept_new l =
      Transport.accept_all l ~on_conn:(fun tc ->
          Unix.set_nonblock (Conn.fd tc);
          if !unconnected > 0 then decr unconnected;
          conns :=
            {
              tc;
              origin = `Local;
              pid = -1;
              state = Greeting;
              lease = [];
              progress_at = now ();
              established_ns = Obs.Mclock.now_ns ();
              offset_ns = 0;
            }
            :: !conns)
    in

    let dial_roster () =
      match c.roster with
      | Local_spawn _ -> ()
      | Remote addrs ->
        List.iter
          (fun a ->
            match Conn.dial ~tries:100 a with
            | Ok tc ->
              Unix.set_nonblock (Conn.fd tc);
              conns :=
                {
                  tc;
                  origin = `Remote a;
                  pid = -1;
                  state = Greeting;
                  lease = [];
                  progress_at = now ();
                  established_ns = Obs.Mclock.now_ns ();
                  offset_ns = 0;
                }
                :: !conns
            | Error e -> fail "cannot reach roster worker %s: %s" (Addr.to_string a) e)
          addrs
    in

    let reap () =
      let gone =
        Hashtbl.fold
          (fun pid () acc ->
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ -> acc
            | _ -> pid :: acc
            | exception Unix.Unix_error (Unix.ECHILD, _, _) -> pid :: acc)
          live_pids []
      in
      List.iter
        (fun pid ->
          Hashtbl.remove live_pids pid;
          if Hashtbl.mem helloed pid then (
            (* Its connection EOF handles (or handled) the rest. *)
            match
              List.find_opt (fun k -> k.pid = pid && not (Conn.is_closed k.tc)) !conns
            with
            | Some conn -> destroy ~kill:false conn
            | None -> ())
          else if
            (* Died before it ever connected: give its spawn slot back so
               the population pass replaces it. *)
            !unconnected > 0
          then decr unconnected)
        gone
    in

    let check_deadlines () =
      let t = now () in
      List.iter
        (fun conn ->
          if not (Conn.is_closed conn.tc) then
            if conn.lease <> [] then begin
              (* A leased worker must produce a result every cell_timeout:
                 progress_at resets on each Result, so a k-cell lease gets
                 the same per-cell deadline a k-assignment sequence did. *)
              if t -. conn.progress_at > c.cell_timeout then destroy conn
            end
            else
              match conn.state with
              | Greeting | Ready ->
                if Conn.idle_for ~now:t conn.tc > c.heartbeat_timeout then destroy conn
              | Saying_bye since -> if t -. since > c.heartbeat_timeout then destroy conn)
        !conns
    in

    let ensure_workers () =
      match c.roster with
      | Remote _ -> ()
      | Local_spawn target ->
        if !shutdown_at = None then begin
          let live =
            List.length (List.filter (fun k -> not (Conn.is_closed k.tc)) !conns)
            + !unconnected
          in
          let want = min target (n - !resolved) in
          for _ = live + 1 to want do
            spawn_one ()
          done
        end
    in

    let assign () =
      List.iter
        (fun conn ->
          if (not (Conn.is_closed conn.tc)) && conn.state = Ready && conn.lease = [] then
            match take_pending (lease_size ()) with
            | [] -> try_steal conn
            | idxs -> grant conn idxs)
        !conns
    in

    let broadcast_shutdown () =
      if !shutdown_at = None then begin
        shutdown_at := Some (now ());
        List.iter
          (fun conn ->
            if not (Conn.is_closed conn.tc) then begin
              send conn Msg.Shutdown;
              if not (Conn.is_closed conn.tc) then conn.state <- Saying_bye (now ())
            end)
          !conns
      end
    in

    let cleanup () =
      List.iter
        (fun conn ->
          Conn.close conn.tc;
          match conn.origin with
          | `Local when conn.pid > 0 -> (
            try Unix.kill conn.pid Sys.sigkill with Unix.Unix_error _ -> ())
          | _ -> ())
        !conns;
      Hashtbl.iter
        (fun pid () -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
        live_pids;
      Hashtbl.iter
        (fun pid () ->
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        live_pids;
      match listener with Some l -> Transport.close_listener l | None -> ()
    in

    Fun.protect ~finally:cleanup @@ fun () ->
    dial_roster ();
    let finished () = !resolved = n && !conns = [] && Hashtbl.length live_pids = 0 in
    while not (finished ()) do
      ensure_workers ();
      assign ();
      if !resolved = n then broadcast_shutdown ();
      let rds =
        (match listener with Some l -> [ Transport.listener_fd l ] | None -> [])
        @ List.filter_map
            (fun k -> if Conn.is_closed k.tc then None else Some (Conn.fd k.tc))
            !conns
      in
      (match Unix.select rds [] [] 0.05 with
      | ready, _, _ ->
        (match listener with
        | Some l when List.memq (Transport.listener_fd l) ready -> accept_new l
        | _ -> ());
        List.iter
          (fun k -> if (not (Conn.is_closed k.tc)) && List.memq (Conn.fd k.tc) ready then pump k)
          !conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      reap ();
      check_deadlines ();
      conns := List.filter (fun k -> not (Conn.is_closed k.tc)) !conns;
      (* A remote roster cannot respawn: losing every worker with cells
         still unresolved is a dead end, not a wait. *)
      match c.roster with
      | Remote _ when !resolved < n && !conns = [] ->
        fail "all %d roster workers lost with %d cells unresolved" expected (n - !resolved)
      | _ -> ()
    done;
    Array.init n (fun i ->
        match (results.(i), failures.(i)) with
        | Some r, _ -> Ok r
        | None, Some message ->
          Error
            (H.Runner.Cell_failed
               { exp_id = exp_id cells i; params = H.Params.canonical (snd cells.(i)); message })
        | None, None -> assert false)
  end
