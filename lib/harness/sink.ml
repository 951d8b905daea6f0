type t = {
  text : string -> unit;
  row : exp_id:string -> params:Params.t -> Experiment.row -> unit;
  close : unit -> unit;
}

let null = { text = ignore; row = (fun ~exp_id:_ ~params:_ _ -> ()); close = ignore }

let tee sinks =
  {
    text = (fun s -> List.iter (fun k -> k.text s) sinks);
    row = (fun ~exp_id ~params r -> List.iter (fun k -> k.row ~exp_id ~params r) sinks);
    close = (fun () -> List.iter (fun k -> k.close ()) sinks);
  }

let console () =
  {
    null with
    text =
      (fun s ->
        print_string s;
        flush stdout);
  }

let to_buffer buf = { null with text = Buffer.add_string buf }

let row_json ~exp_id ~params (r : Experiment.row) =
  Json.Obj
    [ ("experiment", Json.Str exp_id);
      ("table", Json.Str r.Experiment.table);
      ("params", Json.Obj (Params.to_json_fields params));
      ("fields", Json.Obj (Params.to_json_fields (Params.v r.Experiment.fields))) ]

let jsonl ~dir =
  let channels : (string, out_channel) Hashtbl.t = Hashtbl.create 8 in
  let channel exp_id =
    match Hashtbl.find_opt channels exp_id with
    | Some oc -> oc
    | None ->
      Fsutil.mkdir_p dir;
      let oc = open_out_bin (Filename.concat dir (exp_id ^ ".jsonl")) in
      Hashtbl.add channels exp_id oc;
      oc
  in
  {
    null with
    row =
      (fun ~exp_id ~params r ->
        let oc = channel exp_id in
        output_string oc (Json.to_string (row_json ~exp_id ~params r));
        output_char oc '\n');
    close = (fun () -> Hashtbl.iter (fun _ oc -> close_out oc) channels);
  }

(* ---- run manifest ---- *)

type cell_report = {
  params : Params.t;
  hit : bool;
  seconds : float;
  executions : int;
  peak_words : int;
}

type report = {
  id : string;
  version : int;
  cells : int;
  hits : int;
  misses : int;
  seconds : float;
  cell_reports : cell_report list;
}

let executions r =
  List.fold_left (fun acc c -> acc + c.executions) 0 r.cell_reports

let report_json r =
  Json.Obj
    [ ("id", Json.Str r.id);
      ("version", Json.Int r.version);
      ("cells", Json.Int r.cells);
      ("hits", Json.Int r.hits);
      ("misses", Json.Int r.misses);
      ("seconds", Json.Float r.seconds);
      ("executions", Json.Int (executions r));
      ( "cells_detail",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [ ("params", Json.Str (Params.canonical c.params));
                   ("hit", Json.Bool c.hit);
                   ("seconds", Json.Float c.seconds);
                   ("executions", Json.Int c.executions);
                   ("peak_words", Json.Int c.peak_words) ])
             r.cell_reports) ) ]

(* ---- metrics + provenance blocks ---- *)

module Obs = Bcclb_obs

(* The merged Bcclb_obs snapshot, as one JSON object keyed by metric
   name. Histograms carry their finite bucket bounds ([le]), the
   [Array.length le + 1] bucket counts (last = overflow) and
   precomputed quantile estimates, so a manifest is self-contained for
   [experiments stats]. *)
let metrics_json () =
  let hist_json (h : Obs.Metrics.hist) =
    Json.Obj
      [ ("type", Json.Str "histogram");
        ("count", Json.Int h.Obs.Metrics.count);
        ("sum", Json.Float h.Obs.Metrics.sum);
        ("mean", Json.Float (Obs.Metrics.hist_mean h));
        ("p50", Json.Float (Obs.Metrics.quantile h 0.5));
        ("p90", Json.Float (Obs.Metrics.quantile h 0.9));
        ("p99", Json.Float (Obs.Metrics.quantile h 0.99));
        ("le", Json.List (List.map (fun b -> Json.Float b) (Array.to_list h.Obs.Metrics.le)));
        ( "counts",
          Json.List (List.map (fun c -> Json.Int c) (Array.to_list h.Obs.Metrics.counts)) ) ]
  in
  Json.Obj
    (List.map
       (fun (name, v) ->
         ( name,
           match v with
           | Obs.Metrics.Counter c ->
             Json.Obj [ ("type", Json.Str "counter"); ("value", Json.Int c) ]
           | Obs.Metrics.Histogram h -> hist_json h ))
       (Obs.Metrics.snapshot ()))

(* GC and OS-level process facts, sampled at write time — the numbers
   that make run manifests comparable PR-over-PR. *)
let process_json () =
  let gc = Gc.quick_stat () in
  Json.Obj
    [ ("gc_major_words", Json.Float gc.Gc.major_words);
      ("gc_minor_words", Json.Float gc.Gc.minor_words);
      ("gc_top_heap_words", Json.Int gc.Gc.top_heap_words);
      ("gc_major_collections", Json.Int gc.Gc.major_collections);
      ("peak_rss_bytes", Json.Int (Obs.peak_rss_bytes ())) ]

let command_line cmd =
  try
    let ic = Unix.open_process_in cmd in
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some l when l <> "" -> Some l
    | _ -> None
  with _ -> None

(* Who/where/what produced a results directory. Cache keys deliberately
   ignore all of this — provenance makes cached reports attributable,
   not distinguishable. *)
let provenance_json () =
  let opt = function Some s -> Json.Str s | None -> Json.Null in
  Json.Obj
    [ ("git_commit", opt (command_line "git rev-parse HEAD 2>/dev/null"));
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("hostname", opt (try Some (Unix.gethostname ()) with _ -> None));
      ( "num_domains_env",
        opt (Sys.getenv_opt Bcclb_engine.Pool.default_domains_env) ) ]

let write_manifest ~path ~cache_root ~num_domains reports =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let sumf f = List.fold_left (fun acc r -> acc +. f r) 0.0 reports in
  Json.write_file ~pretty:true path
    (Json.Obj
       [ ("schema", Json.Str "bcclb-run-manifest-v2");
         ( "cache_root",
           match cache_root with Some r -> Json.Str r | None -> Json.Null );
         ("num_domains", Json.Int num_domains);
         ("provenance", provenance_json ());
         ("experiments_total", Json.Int (List.length reports));
         ("cells_total", Json.Int (sum (fun r -> r.cells)));
         ("hits_total", Json.Int (sum (fun r -> r.hits)));
         ("misses_total", Json.Int (sum (fun r -> r.misses)));
         ("executions_total", Json.Int (sum executions));
         ("seconds_total", Json.Float (sumf (fun r -> r.seconds)));
         ("experiments", Json.List (List.map report_json reports));
         ("metrics", metrics_json ());
         ("process", process_json ()) ])
