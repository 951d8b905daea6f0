(* Domain-based work pool for embarrassingly parallel batches of
   simulations. Determinism contract: results are ordered by input index
   and tasks must be pure up to their own per-task state (give each task
   its own Rng seeded from its index, never a shared one), so the output
   is identical for every [num_domains]. Work is handed out through an
   atomic cursor — scheduling order varies, observable results do not.

   Instrumentation: every outermost task's latency lands in the
   [pool.cell_seconds] histogram (tasks of batches nested inside a task
   only count into [pool.inner_tasks], so busy time is counted once) and
   the gap between a worker's consecutive tasks (cursor fetch +
   scheduling) in [pool.queue_wait_seconds], all written to the worker's
   own metric shard — lock-free, so the contract above also holds for
   metric totals. Batches and workers appear as spans when tracing is
   on. *)

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
let inner_tasks_metric = Obs.Metrics.Counter.v "pool.inner_tasks"
let domains_metric = Obs.Metrics.Counter.v "pool.domains_spawned"
let cell_seconds = Obs.Metrics.Histogram.v "pool.cell_seconds"
let queue_wait_seconds = Obs.Metrics.Histogram.v "pool.queue_wait_seconds"

(* Nested map_batch calls (a parallelized sweep whose tasks call a
   parallelized builder) run sequentially instead of spawning domains
   from domains. *)
let inside_pool = Domain.DLS.new_key (fun () -> false)

(* How many pool tasks enclose the running code on this domain. A
   spawned worker starts at its spawner's depth, so a batch nested in a
   task stays nested wherever its tasks run. *)
let task_depth = Domain.DLS.new_key (fun () -> 0)

(* Every task goes through [run_task], which feeds the pool metrics:
   an outermost task is one [pool.tasks] and one [pool.cell_seconds]
   sample; a task of a nested batch only counts into [pool.inner_tasks]
   — its time is already inside the enclosing task's sample. *)
let run_task f x =
  let depth = Domain.DLS.get task_depth in
  Domain.DLS.set task_depth (depth + 1);
  let t0 = Obs.Mclock.now_ns () in
  let r = try Ok (f x) with e -> Error e in
  let dt = Obs.Mclock.ns_to_s (Obs.Mclock.now_ns () - t0) in
  Domain.DLS.set task_depth depth;
  if depth = 0 then begin
    Obs.Metrics.Counter.incr tasks_metric;
    Obs.Metrics.Histogram.observe cell_seconds dt
  end
  else Obs.Metrics.Counter.incr inner_tasks_metric;
  (r, dt)

let span_batch ~n ~d f =
  Obs.span "pool.batch"
    ~attrs:[ ("items", string_of_int n); ("domains", string_of_int d) ]
    f

(* The batch skeleton: [run i] runs task [i] and stores its result.
   Indices come off [cursor] (a fresh one by default; a shared batch
   passes its own, so every caller claims from it). The sequential path
   claims on the calling domain; the parallel path spawns [d - 1]
   workers and joins the caller in. *)
let dispatch ?(cursor = Atomic.make 0) ~n ~d (run : int -> unit) =
  if d <= 1 || Domain.DLS.get inside_pool then begin
    let rec loop () =
      let i = Atomic.fetch_and_add cursor 1 in
      if i < n then begin
        run i;
        loop ()
      end
    in
    loop ()
  end
  else begin
    let depth = Domain.DLS.get task_depth in
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
              Domain.DLS.set task_depth depth;
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
   worker that ran the task. *)
let map_batch_timed ?num_domains f items =
  let n = Array.length items in
  let d = resolve_domains num_domains n in
  if n = 0 then [||]
  else begin
    Obs.Metrics.Counter.incr batches_metric;
    let results = Array.make n None in
    span_batch ~n ~d (fun () ->
        dispatch ~n ~d (fun i -> results.(i) <- Some (run_task f items.(i))));
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

(* ---- single-flight batches ----

   One process-wide table of batches by key. The first caller creates
   the batch and claims items off its cursor; a caller that arrives while
   it runs claims from the same cursor, so nobody idles while items
   remain, then waits for the items others still hold. Each item
   therefore runs exactly once, whatever the number of callers or
   domains, and every caller gets the same array. The outcome — the
   array, or the lowest-index failure once every item has settled — is
   kept for the life of the process. *)

type 'a flight = {
  items : int;
  cursor : int Atomic.t;
  mutable slots : 'a option array;
  mutable failure : (int * exn) option;  (* lowest-index failure so far *)
  settled : int Atomic.t;
  lock : Mutex.t;
  all_settled : Condition.t;
  mutable outcome : ('a array, exn) result option;
}

type flight_entry = Flight : 'a array Type.Id.t * 'a flight -> flight_entry

let flights : (string, flight_entry) Hashtbl.t = Hashtbl.create 16
let flights_lock = Mutex.create ()

let find_or_create_flight (type a) (id : a array Type.Id.t) ~key n : a flight * bool =
  Mutex.protect flights_lock (fun () ->
      match Hashtbl.find_opt flights key with
      | Some (Flight (id', fl)) -> (
        match Type.Id.provably_equal id id' with
        | Some Type.Equal -> ((fl : a flight), false)
        | None -> invalid_arg (Printf.sprintf "Pool.shared: key %S is in use at another type" key))
      | None ->
        let fl =
          { items = n;
            cursor = Atomic.make 0;
            slots = Array.make n None;
            failure = None;
            settled = Atomic.make 0;
            lock = Mutex.create ();
            all_settled = Condition.create ();
            outcome = None }
        in
        Hashtbl.add flights key (Flight (id, fl));
        (fl, true))

let shared id ~key n f =
  let fl, created = find_or_create_flight id ~key n in
  if fl.items <> n then
    invalid_arg (Printf.sprintf "Pool.shared: key %S holds %d items, not %d" key fl.items n);
  if created then Obs.Metrics.Counter.incr batches_metric;
  let run i =
    (match fst (run_task f i) with
    | Ok v -> fl.slots.(i) <- Some v
    | Error e ->
      Mutex.protect fl.lock (fun () ->
          match fl.failure with
          | Some (j, _) when j < i -> ()
          | _ -> fl.failure <- Some (i, e)));
    if Atomic.fetch_and_add fl.settled 1 = n - 1 then
      Mutex.protect fl.lock (fun () -> Condition.broadcast fl.all_settled)
  in
  if Atomic.get fl.cursor < n then begin
    (* Only the creator fans out; a caller that joins a running batch
       claims on its own domain. *)
    let d = if created then resolve_domains None n else 1 in
    span_batch ~n ~d (fun () -> dispatch ~cursor:fl.cursor ~n ~d run)
  end;
  let outcome =
    Mutex.protect fl.lock (fun () ->
        while Atomic.get fl.settled < n do
          Condition.wait fl.all_settled fl.lock
        done;
        match fl.outcome with
        | Some o -> o
        | None ->
          let o =
            match fl.failure with
            | Some (_, e) -> Error e
            | None -> Ok (Array.map Option.get fl.slots)
          in
          fl.outcome <- Some o;
          fl.slots <- [||];
          o)
  in
  match outcome with Ok a -> (a, created) | Error e -> raise e

