module Pool = Bcclb_engine.Pool
module Obs = Bcclb_obs

(* Runner-level series: experiment wall time, and checkpoint flushes
   (each computed cell stored from its worker the moment it finishes —
   [runner.checkpoints] counts those stores, so a killed sweep's resume
   cost is readable from the metrics). *)
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

type roster = [ `Local of int | `Remote of string list ]

type backend = [ `Domains | `Procs of int | `Roster of string list ]

type procs_runner =
  roster:roster ->
  cache:Cache.t option ->
  exp:Experiment.t ->
  cells:Params.t array ->
  (cell_outcome * float) array

(* The procs implementation lives in Bcclb_dist (which depends on this
   library); it installs itself here so `Procs stays a Runner backend
   without a dependency cycle. *)
let procs_runner : procs_runner option ref = ref None
let set_procs_runner r = procs_runner := Some r

let run ?(backend = `Domains) ?cache ?num_domains ?grid ~sink (exp : Experiment.t) =
  let grid = match grid with Some g -> g | None -> exp.Experiment.default_grid in
  let cells = Array.of_list grid in
  Obs.Metrics.Counter.incr experiments_metric;
  Obs.Metrics.Counter.add cells_metric (Array.length cells);
  let exp_stopwatch = Obs.Mclock.counter () in
  let backend_label =
    match backend with
    | `Domains -> "domains"
    | `Procs w -> Printf.sprintf "procs:%d" w
    | `Roster addrs -> Printf.sprintf "roster:%d" (List.length addrs)
  in
  let results =
    Obs.span "runner.experiment"
      ~attrs:
        [
          ("experiment", exp.Experiment.id);
          ("backend", backend_label);
          ("cells", string_of_int (Array.length cells));
        ]
      (fun () ->
        match backend with
        | `Domains -> Pool.map_batch_timed ?num_domains (fun params -> run_cell ?cache exp params) cells
        | (`Procs _ | `Roster _) as b -> (
          let roster =
            match b with `Procs workers -> `Local workers | `Roster addrs -> `Remote addrs
          in
          match !procs_runner with
          | None ->
            failwith
              "Runner: `Procs backend requested but no procs runner is installed (link \
               Bcclb_dist and call Backend.install)"
          | Some r -> r ~roster ~cache ~exp ~cells))
  in
  Obs.Metrics.Histogram.observe experiment_seconds (exp_stopwatch ());
  let all_rows = List.concat_map (fun ((o : cell_outcome), _) -> o.rows) (Array.to_list results) in
  let buf = Buffer.create 4096 in
  Experiment.render buf exp all_rows;
  sink.Sink.text (Buffer.contents buf);
  Array.iteri
    (fun i ((o : cell_outcome), _) ->
      List.iter (fun r -> sink.Sink.row ~exp_id:exp.Experiment.id ~params:cells.(i) r) o.rows)
    results;
  let cell_reports =
    Array.to_list
      (Array.mapi
         (fun i ((o : cell_outcome), seconds) ->
           {
             Sink.params = cells.(i);
             hit = o.hit;
             seconds;
             executions = o.executions;
             peak_words = o.peak_words;
           })
         results)
  in
  let hits = List.length (List.filter (fun (c : Sink.cell_report) -> c.hit) cell_reports) in
  {
    Sink.id = exp.Experiment.id;
    version = exp.Experiment.version;
    cells = Array.length cells;
    hits;
    misses = Array.length cells - hits;
    seconds =
      List.fold_left (fun acc (c : Sink.cell_report) -> acc +. c.seconds) 0.0 cell_reports;
    cell_reports;
  }
