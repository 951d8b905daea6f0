(* Domain-based work pool for embarrassingly parallel batches of
   simulations. Determinism contract: results are ordered by input index
   and tasks must be pure up to their own per-task state (give each task
   its own Rng seeded from its index, never a shared one), so the output
   is identical for every [num_domains]. Work is handed out through an
   atomic cursor — scheduling order varies, observable results do not.

   Instrumentation: every task's latency lands in the [pool.cell_seconds]
   histogram and the gap between a worker's consecutive tasks (cursor
   fetch + scheduling) in [pool.queue_wait_seconds], both written to the
   worker's own metric shard — lock-free, so the contract above also
   holds for metric totals. Batches and workers appear as spans when
   tracing is on. *)

module Obs = Bcclb_obs

let default_domains_env = "BCCLB_NUM_DOMAINS"

let default_num_domains () =
  match Sys.getenv_opt default_domains_env with
  | None -> 1
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some d when d >= 1 -> d
    | _ -> 1)

let batches_metric = Obs.Metrics.Counter.v "pool.batches"
let tasks_metric = Obs.Metrics.Counter.v "pool.tasks"
let domains_metric = Obs.Metrics.Counter.v "pool.domains_spawned"
let cell_seconds = Obs.Metrics.Histogram.v "pool.cell_seconds"
let queue_wait_seconds = Obs.Metrics.Histogram.v "pool.queue_wait_seconds"

(* Nested map_batch calls (a parallelized sweep whose tasks call a
   parallelized builder) run sequentially instead of spawning domains
   from domains. *)
let inside_pool = Domain.DLS.new_key (fun () -> false)

(* Shared batch skeleton: [timed i x] must store its own result; it is
   given the task index and input. The sequential path runs on the
   calling domain; the parallel path spawns [d - 1] workers and joins
   the caller in. Every task goes through [run_task], which feeds the
   pool metrics. *)
let run_task f x =
  let t0 = Obs.Mclock.now_ns () in
  let r = try Ok (f x) with e -> Error e in
  let dt = Obs.Mclock.ns_to_s (Obs.Mclock.now_ns () - t0) in
  Obs.Metrics.Counter.incr tasks_metric;
  Obs.Metrics.Histogram.observe cell_seconds dt;
  (r, dt)

let span_batch ~n ~d f =
  Obs.span "pool.batch"
    ~attrs:[ ("items", string_of_int n); ("domains", string_of_int d) ]
    f

let dispatch ~n ~d (run : int -> unit) =
  if d <= 1 || Domain.DLS.get inside_pool then
    for i = 0 to n - 1 do
      run i
    done
  else begin
    let cursor = Atomic.make 0 in
    let worker () =
      Domain.DLS.set inside_pool true;
      let last_done = ref (Obs.Mclock.now_ns ()) in
      let rec loop () =
        let i = Atomic.fetch_and_add cursor 1 in
        if i < n then begin
          Obs.Metrics.Histogram.observe queue_wait_seconds
            (Obs.Mclock.ns_to_s (Obs.Mclock.now_ns () - !last_done));
          run i;
          last_done := Obs.Mclock.now_ns ();
          loop ()
        end
      in
      loop ()
    in
    Obs.Metrics.Counter.add domains_metric (d - 1);
    let domains =
      Array.init (d - 1) (fun w ->
          Domain.spawn (fun () ->
              Obs.span "pool.worker" ~attrs:[ ("worker", string_of_int (w + 1)) ] worker))
    in
    worker ();
    Array.iter Domain.join domains;
    Domain.DLS.set inside_pool false
  end

let resolve_domains num_domains n =
  min n (match num_domains with Some d -> max 1 d | None -> default_num_domains ())

let map_batch ?num_domains f items =
  let n = Array.length items in
  let d = resolve_domains num_domains n in
  if n = 0 then [||]
  else begin
    Obs.Metrics.Counter.incr batches_metric;
    if d <= 1 || Domain.DLS.get inside_pool then
      (* Strict sequential map: the first failure aborts immediately,
         exactly like [Array.map f items] (its latency is still
         recorded). *)
      span_batch ~n ~d (fun () ->
          Array.map
            (fun x -> match fst (run_task f x) with Ok v -> v | Error e -> raise e)
            items)
    else begin
      let results = Array.make n None in
      span_batch ~n ~d (fun () ->
          dispatch ~n ~d (fun i -> results.(i) <- Some (fst (run_task f items.(i)))));
      (* Extraction in index order re-raises the lowest-index failure, as
         a sequential run would have. *)
      Array.map
        (function
          | Some (Ok v) -> v
          | Some (Error e) -> raise e
          | None -> assert false)
        results
    end
  end

(* Timed variant for harness-style sweeps: same determinism contract as
   [map_batch], with per-task monotonic-clock seconds measured on the
   worker that ran the task. [on_done] fires from worker domains under a
   mutex, in completion order (which varies with the domain count) —
   callers must not rely on its ordering for observable results. *)
let map_batch_timed ?num_domains ?on_done f items =
  let n = Array.length items in
  let d = resolve_domains num_domains n in
  if n = 0 then [||]
  else begin
    Obs.Metrics.Counter.incr batches_metric;
    let done_mutex = Mutex.create () in
    let notify index seconds =
      match on_done with
      | None -> ()
      | Some g ->
        Mutex.lock done_mutex;
        Fun.protect ~finally:(fun () -> Mutex.unlock done_mutex) (fun () ->
            g ~index ~seconds)
    in
    let results = Array.make n None in
    span_batch ~n ~d (fun () ->
        dispatch ~n ~d (fun i ->
            let r, dt = run_task f items.(i) in
            notify i dt;
            results.(i) <- Some (r, dt)));
    (* Index-order extraction re-raises the lowest-index failure, as in
       [map_batch] — but only after every task has run, so independent
       tasks complete (and checkpoint) even when an earlier one fails. *)
    Array.map
      (function
        | Some (Ok v, dt) -> (v, dt)
        | Some (Error e, _) -> raise e
        | None -> assert false)
      results
  end

let tabulate ?num_domains n f =
  map_batch ?num_domains f (Array.init n (fun i -> i))
