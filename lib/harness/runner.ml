module Pool = Bcclb_engine.Pool
module Obs = Bcclb_obs

(* Runner-level series: the wall time of each [run] batch, and
   checkpoint flushes (each computed cell stored from its worker the
   moment it finishes — [runner.checkpoints] counts those stores, so a
   killed sweep's resume cost is readable from the metrics). *)
let experiments_metric = Obs.Metrics.Counter.v "runner.experiments"
let cells_metric = Obs.Metrics.Counter.v "runner.cells"
let checkpoints_metric = Obs.Metrics.Counter.v "runner.checkpoints"
let experiment_seconds = Obs.Metrics.Histogram.v "runner.experiment_seconds"

exception Cell_failed of { exp_id : string; params : string; message : string }

let () =
  Printexc.register_printer (function
    | Cell_failed { exp_id; params; message } ->
      Some (Printf.sprintf "cell %s[%s] failed: %s" exp_id params message)
    | _ -> None)

type cell_outcome = {
  rows : Experiment.row list;
  hit : bool;
  executions : int;
  peak_words : int;
}

(* The one definition of what running a cell means: probe, compute on
   miss, checkpoint immediately. Domain pool tasks and dist worker
   processes both come through here, so cache keys, stored entries and
   row values cannot diverge between backends. *)
let run_cell ?cache (exp : Experiment.t) params =
  Obs.span "runner.cell"
    ~attrs:[ ("experiment", exp.Experiment.id); ("params", Params.canonical params) ]
  @@ fun () ->
  (* The executions column is the delta of this domain's own engine
     run count around the cell: a cell runs on one domain (nested
     batches run inside the calling task), and other domains' cells
     must not leak into it. peak_words is the GC top-heap high-water
     mark once the cell is done (see Sink.cell_report). *)
  let exec0 = Bcclb_engine.Engine.domain_run_count () in
  let compute () =
    let rows =
      try exp.Experiment.cell params
      with e ->
        raise
          (Cell_failed
             {
               exp_id = exp.Experiment.id;
               params = Params.canonical params;
               message = Printexc.to_string e;
             })
    in
    let executions = Bcclb_engine.Engine.domain_run_count () - exec0 in
    (rows, executions)
  in
  let rows, hit, executions =
    match cache with
    | None ->
      let rows, executions = compute () in
      (rows, false, executions)
    | Some c -> (
      let key = Cache.key ~exp_id:exp.Experiment.id ~version:exp.Experiment.version ~params in
      match Cache.find c key with
      | Some rows -> (rows, true, 0)
      | None ->
        let rows, executions = compute () in
        Cache.store c key rows;
        Obs.Metrics.Counter.incr checkpoints_metric;
        (rows, false, executions))
  in
  { rows; hit; executions; peak_words = (Gc.quick_stat ()).Gc.top_heap_words }

type backend = [ `Domains | `Procs of int ]

type procs_runner =
  workers:int ->
  cache:Cache.t option ->
  cells:(Experiment.t * Params.t) array ->
  (cell_outcome * float, exn) result array

(* The procs implementation lives in Bcclb_dist (which depends on this
   library); it installs itself here so `Procs stays a Runner backend
   without a dependency cycle. *)
let procs_runner : procs_runner option ref = ref None
let set_procs_runner r = procs_runner := Some r

(* One experiment's tables and JSONL rows from its cells' outcomes (in
   grid order), and its manifest entry. *)
let render ~sink (exp : Experiment.t) grid outcomes =
  let buf = Buffer.create 4096 in
  Experiment.render buf exp
    (List.concat_map (fun ((o : cell_outcome), _) -> o.rows) (Array.to_list outcomes));
  sink.Sink.text (Buffer.contents buf);
  Array.iteri
    (fun i ((o : cell_outcome), _) ->
      List.iter (fun r -> sink.Sink.row ~exp_id:exp.id ~params:grid.(i) r) o.rows)
    outcomes;
  let cell_reports =
    Array.to_list
      (Array.mapi
         (fun i ((o : cell_outcome), seconds) ->
           {
             Sink.params = grid.(i);
             hit = o.hit;
             seconds;
             executions = o.executions;
             peak_words = o.peak_words;
           })
         outcomes)
  in
  let hits = List.length (List.filter (fun (c : Sink.cell_report) -> c.hit) cell_reports) in
  {
    Sink.id = exp.id;
    version = exp.version;
    cells = Array.length grid;
    hits;
    misses = Array.length grid - hits;
    seconds =
      List.fold_left (fun acc (c : Sink.cell_report) -> acc +. c.seconds) 0.0 cell_reports;
    cell_reports;
  }

let run ?(backend = `Domains) ?cache ?num_domains ~sink sweeps =
  (* One batch for the whole sweep: the experiments in list order, each
     in grid order. *)
  let cells =
    Array.of_list
      (List.concat_map (fun (exp, grid) -> List.map (fun params -> (exp, params)) grid) sweeps)
  in
  Obs.Metrics.Counter.add experiments_metric (List.length sweeps);
  Obs.Metrics.Counter.add cells_metric (Array.length cells);
  let stopwatch = Obs.Mclock.counter () in
  let backend_label =
    match backend with
    | `Domains -> "domains"
    | `Procs w -> Printf.sprintf "procs:%d" w
  in
  let results =
    Obs.span "runner.experiment"
      ~attrs:
        [
          ( "experiments",
            String.concat "," (List.map (fun ((e : Experiment.t), _) -> e.id) sweeps) );
          ("backend", backend_label);
          ("cells", string_of_int (Array.length cells));
        ]
      (fun () ->
        match backend with
        | `Domains ->
          (* Failures come back as values so the cells before them can
             still be rendered; the batch drains either way. *)
          Array.map
            (fun (r, seconds) -> Result.map (fun o -> (o, seconds)) r)
            (Pool.map_batch_timed ?num_domains
               (fun (exp, params) -> try Ok (run_cell ?cache exp params) with e -> Error e)
               cells)
        | `Procs workers -> (
          match !procs_runner with
          | None ->
            failwith
              "Runner: `Procs backend requested but no procs runner is installed (link \
               Bcclb_dist and call Backend.install)"
          | Some r -> r ~workers ~cache ~cells))
  in
  Obs.Metrics.Histogram.observe experiment_seconds (stopwatch ());
  (* Render experiment by experiment, in order, up to the first one
     holding a failed cell: that cell's exception (the lowest failing
     index) is raised in its place. *)
  let first = ref 0 in
  let reports = ref [] in
  List.iter
    (fun (exp, grid) ->
      let grid = Array.of_list grid in
      let outcomes =
        Array.init (Array.length grid) (fun i ->
            match results.(!first + i) with Ok r -> r | Error e -> raise e)
      in
      first := !first + Array.length grid;
      reports := render ~sink exp grid outcomes :: !reports)
    sweeps;
  List.rev !reports
