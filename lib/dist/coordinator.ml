(* The coordinator event loop. Single-threaded: one select over every
   worker's socketpair end, then four passes per tick — population
   (spawn up to the target while work remains), assignment (idle
   workers get a fair-share cell lease, or steal the tail of the
   largest lease when the queue is dry), reaping (waitpid WNOHANG on
   exited pids; their deaths arrive as EOF, since only the child held
   its end), and deadlines (leased workers against cell_timeout since
   their last progress, a worker yet to say Hello or Bye against
   handshake_timeout). All worker fds are nonblocking and read through
   Transport.Conn.pump; frames the reader rejects poison the connection
   and the worker is treated as crashed.

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
let deltas_metric = Obs.Metrics.Counter.v "dist.metric_deltas_absorbed"
let snapshots_metric = Obs.Metrics.Counter.v "dist.metric_snapshots_absorbed"
let rejects_metric = Obs.Metrics.Counter.v "dist.handshake_rejects"
let spans_ingested = Obs.Metrics.Counter.v "dist.spans_ingested"

type config = { workers : int; cell_timeout : float; spawn : unit -> int * Unix.file_descr }

(* A worker must say Hello within this many seconds of its spawn, and
   Bye within as many of Shutdown. *)
let handshake_timeout = 30.0
let max_retries = 2

type wstate =
  | Greeting of float  (** Spawned at this time, no accepted [Hello] yet. *)
  | Ready  (** Joined; may hold a lease (lease <> []) or be idle. *)
  | Saying_bye of float  (** [Shutdown] sent at this time. *)

type conn = {
  tc : Conn.t;
  pid : int;
  mutable state : wstate;
  mutable lease : int list;  (* outstanding cells, current first *)
  mutable progress_at : float;  (* lease grant or last Result *)
}

let now = Transport.now

let rec split_at k xs =
  if k <= 0 then ([], xs)
  else match xs with [] -> ([], []) | x :: tl -> let a, b = split_at (k - 1) tl in (x :: a, b)

(* The experiment a session cell belongs to. *)
let exp_id cells i = (fst cells.(i)).H.Experiment.id

let run c ~cache ~cells =
  let n = Array.length cells in
  if c.workers < 1 then invalid_arg "Coordinator.run: workers must be >= 1";
  if n = 0 then [||]
  else begin
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    Obs.span "dist.sweep"
      ~attrs:[ ("cells", string_of_int n); ("workers", string_of_int c.workers) ]
    @@ fun () ->
    let results : (H.Runner.cell_outcome * float) option array = Array.make n None in
    let failures : string option array = Array.make n None in
    let grants = Array.make n 0 in  (* lease grants, incl. steals: the wire's [attempt] *)
    let losses = Array.make n 0 in  (* worker deaths while holding the cell: the retry cap *)
    let resolved = ref 0 in
    let pending = Queue.create () in
    Array.iteri (fun i _ -> Queue.push i pending) cells;
    let conns : conn list ref = ref [] in
    let live_pids : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let spawned = ref 0 in
    let spawn_cap = c.workers + ((max_retries + 1) * n) in
    let shutdown_at = ref None in

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
      let pid, fd = c.spawn () in
      Unix.set_nonblock fd;
      Hashtbl.replace live_pids pid ();
      let t = now () in
      conns :=
        { tc = Conn.of_fd fd; pid; state = Greeting t; lease = []; progress_at = t } :: !conns;
      Obs.Metrics.Counter.incr workers_spawned
    in

    let requeue i =
      Obs.Metrics.Counter.incr requeues;
      losses.(i) <- losses.(i) + 1;
      if losses.(i) > max_retries then
        fail "cell %d (%s) of %s lost its worker %d times; giving up" i
          (H.Params.canonical (snd cells.(i)))
          (exp_id cells i) losses.(i);
      Queue.push i pending
    in

    (* Graceful end of a connection (after Bye): no kill, no requeue —
       the pid is reaped by the WNOHANG pass once it exits. *)
    let retire conn = Conn.close conn.tc in
    (* Crash/timeout path: close, kill the process (unless it is already
       reaped: its pid may be reused), and requeue the outstanding
       lease. *)
    let destroy ?(kill = true) conn =
      if not (Conn.is_closed conn.tc) then begin
        Conn.close conn.tc;
        if kill && Hashtbl.mem live_pids conn.pid then
          (try Unix.kill conn.pid Sys.sigkill with Unix.Unix_error _ -> ());
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

    (* Lease sizing: a fair share of the remaining grid. Contiguous
       cells let neighbours share a worker's per-process memos, and
       shares shrink as the grid drains, so late leases are small and
       idle workers steal the stragglers' tails. *)
    let lease_size () =
      let live = max c.workers (live_ready ()) in
      max 1 ((n - !resolved + live - 1) / live)
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
      | Msg.Hello { fingerprint; cache_epoch } -> (
        match Msg.handshake_error ~fingerprint ~cache_epoch with
        | Some reason ->
          Obs.Metrics.Counter.incr rejects_metric;
          send conn (Msg.Reject { reason });
          (* A spawned worker skews only when the executable changed on
             disk (or through the test hook); respawning it cannot help,
             so fail loudly now. *)
          fail "worker %d rejected at handshake: %s" conn.pid reason
        | None ->
          (* Once the sweep is done, every open connection has been
             sent Shutdown: a worker that joins late answers it with
             Bye. *)
          if !shutdown_at = None then begin
            conn.state <- Ready;
            send conn
              (Msg.Init
                 { cache_root = Option.map H.Cache.root cache; trace = Obs.Trace.context () })
          end)
      | Msg.Result { cell; outcome; seconds } ->
        resolve_result cell (outcome, seconds);
        conn.lease <- List.filter (fun i -> i <> cell) conn.lease;
        conn.progress_at <- now ()
      | Msg.Cell_error { cell; message } ->
        resolve_failure cell message;
        conn.lease <- List.filter (fun i -> i <> cell) conn.lease;
        conn.progress_at <- now ()
      | Msg.Lease_done { metrics; spans } ->
        Obs.Metrics.absorb metrics;
        Obs.Metrics.Counter.incr deltas_metric;
        if spans <> [] then begin
          Obs.Trace.ingest spans;
          Obs.Metrics.Counter.add spans_ingested (List.length spans)
        end
      | Msg.Bye { metrics; spans } ->
        Obs.Metrics.absorb metrics;
        Obs.Metrics.Counter.incr snapshots_metric;
        if spans <> [] then begin
          Obs.Trace.ingest spans;
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

    (* Only the exit status is collected here: a dead worker's end of its
       socketpair is closed, so its death reaches [pump] as EOF, after
       every frame it sent. *)
    let reap () =
      Hashtbl.fold
        (fun pid () acc ->
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> acc
          | _ -> pid :: acc
          | exception Unix.Unix_error (Unix.ECHILD, _, _) -> pid :: acc)
        live_pids []
      |> List.iter (Hashtbl.remove live_pids)
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
              | Ready -> ()
              | Greeting since | Saying_bye since ->
                if t -. since > handshake_timeout then destroy conn)
        !conns
    in

    let ensure_workers () =
      if !shutdown_at = None then begin
        let live = List.length (List.filter (fun k -> not (Conn.is_closed k.tc)) !conns) in
        let want = min c.workers (n - !resolved) in
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
      List.iter (fun conn -> Conn.close conn.tc) !conns;
      Hashtbl.iter
        (fun pid () -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
        live_pids;
      Hashtbl.iter
        (fun pid () ->
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        live_pids
    in

    Fun.protect ~finally:cleanup @@ fun () ->
    let finished () = !resolved = n && !conns = [] && Hashtbl.length live_pids = 0 in
    while not (finished ()) do
      ensure_workers ();
      assign ();
      if !resolved = n then broadcast_shutdown ();
      let rds =
        List.filter_map (fun k -> if Conn.is_closed k.tc then None else Some (Conn.fd k.tc)) !conns
      in
      (match Unix.select rds [] [] 0.05 with
      | ready, _, _ ->
        List.iter
          (fun k -> if (not (Conn.is_closed k.tc)) && List.memq (Conn.fd k.tc) ready then pump k)
          !conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      reap ();
      check_deadlines ();
      conns := List.filter (fun k -> not (Conn.is_closed k.tc)) !conns
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
