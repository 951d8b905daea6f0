(* Thin cmdliner shell over the experiment harness: the experiments
   themselves live in Bcclb_harness.Registry as data; this binary only
   parses flags, picks sinks, and reports cache statistics.

   stdout carries exactly the rendered tables — deterministic, byte-
   identical across cache states and domain counts — while cache/timing
   chatter goes to stderr and results/ (JSONL rows + run manifest). *)

open Cmdliner
module H = Bcclb_harness
module Obs = Bcclb_obs

let ns_arg =
  Arg.(
    value
    & opt (some (list int)) None
    & info [ "n" ] ~docv:"N,N,..."
        ~doc:"Override the size grid, for experiments whose grid is driven by sizes.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Bypass the result cache entirely: recompute every cell and store nothing.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for the sweeps (unset = the $(b,BCCLB_NUM_DOMAINS) environment \
           variable, defaulting to 1). Results are byte-identical for any value.")

let backend_arg =
  Arg.(
    value
    & opt (enum [ ("domains", `Domains); ("procs", `Procs) ]) `Domains
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Execution backend: $(b,domains) runs cells on shared-memory domains in this \
           process; $(b,procs) ships them to worker processes over a socket (crash-\
           recovering, see --workers). Reports and cache entries are byte-identical \
           either way.")

let workers_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Worker processes that $(b,--backend procs) spawns (default: the $(b,--jobs) \
           resolution). Ignored by the domains backend.")

let results_arg =
  Arg.(
    value & opt string "results"
    & info [ "results" ] ~docv:"DIR"
        ~doc:"Directory for structured outputs: JSONL rows, run manifest, result cache.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event file (open in Perfetto / about:tracing) plus a JSONL \
           span log next to it.")

let resolved_domains jobs =
  match jobs with Some j -> j | None -> Bcclb_engine.Pool.default_num_domains ()

(* Flag sanity, reported as a usage error rather than a raw exception
   from deep inside the pool or the coordinator. *)
let require_positive flag v =
  match v with
  | Some j when j < 1 ->
    Printf.eprintf "experiments: %s must be >= 1 (got %d)\n" flag j;
    Stdlib.exit 2
  | _ -> ()

(* The procs backend self-execs this very binary as `experiments worker`,
   connected through its stdin; install wires that spawn into the Runner
   hook. *)
let resolve_backend ~backend ~jobs ~workers =
  require_positive "--jobs" jobs;
  require_positive "--workers" workers;
  match backend with
  | `Domains -> `Domains
  | `Procs -> (
    match
      Bcclb_dist.Backend.install
        ~spawn:(Bcclb_dist.Backend.spawn_argv [| Sys.executable_name; "worker" |])
        ()
    with
    | Ok () -> `Procs (Option.value workers ~default:(resolved_domains jobs))
    | Error e ->
      Printf.eprintf "experiments: %s\n" e;
      Stdlib.exit 2)

(* Tracing wraps a whole invocation: the files are written once the run
   (and its manifest) is done. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some file ->
    Obs.Trace.start ~file ();
    Fun.protect
      ~finally:(fun () ->
        Printf.eprintf "[trace] %d spans -> %s + %s\n%!" (Obs.Trace.event_count ()) file
          (Obs.Trace.jsonl_path file);
        Obs.Trace.stop ())
      f

(* A -n override is validated against each experiment's declared range
   BEFORE any enumeration starts: an infeasible size is a one-line
   refusal, not an out-of-memory hours into a census scan. The arena's
   own range message is appended where it explains the ceiling. *)
let validate_ns ~ns exps =
  match ns with
  | None -> ()
  | Some ns ->
    List.iter
      (fun (exp : H.Experiment.t) ->
        match exp.n_range with
        | None -> ()
        | Some (lo, hi) ->
          List.iter
            (fun n ->
              if n < lo || n > hi then begin
                let hint =
                  match Bcclb_core.Arena.supported ~n with
                  | Error m -> Printf.sprintf " (%s)" m
                  | Ok () -> ""
                in
                Printf.eprintf "experiments: %s supports %d <= n <= %d, got n = %d%s\n" exp.id
                  lo hi n hint;
                Stdlib.exit 2
              end)
            ns)
      exps

let run_experiments ~results_dir ~no_cache ~jobs ~backend ~ns exps =
  validate_ns ~ns exps;
  let cache =
    if no_cache then None
    else Some (H.Cache.create ~root:(Filename.concat results_dir "cache"))
  in
  let jsonl = H.Sink.jsonl ~dir:results_dir in
  let sink = H.Sink.tee [ H.Sink.console (); jsonl ] in
  let sweeps =
    List.map
      (fun (exp : H.Experiment.t) ->
        match (ns, exp.grid_of_ns) with
        | Some ns, Some f -> (exp, f ns)
        | Some _, None ->
          Printf.eprintf "[harness] %s: -n is not an axis of this experiment; ignored\n%!"
            exp.id;
          (exp, exp.default_grid)
        | None, _ -> (exp, exp.default_grid))
      exps
  in
  let reports = H.Runner.run ~backend ?cache ?num_domains:jobs ~sink sweeps in
  List.iter
    (fun (r : H.Sink.report) ->
      Printf.eprintf "[harness] %-16s %4d cells, %4d hits, %4d misses, %7.2fs\n%!" r.id r.cells
        r.hits r.misses r.seconds)
    reports;
  sink.H.Sink.close ();
  let manifest = Filename.concat results_dir "manifest.json" in
  H.Sink.write_manifest ~path:manifest
    ~cache_root:(Option.map H.Cache.root cache)
    ~num_domains:(resolved_domains jobs) reports;
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  Printf.eprintf "[harness] total: %d cells, %d hits, %d misses; manifest: %s\n%!"
    (sum (fun (r : H.Sink.report) -> r.cells))
    (sum (fun (r : H.Sink.report) -> r.hits))
    (sum (fun (r : H.Sink.report) -> r.misses))
    manifest

let list_cmd =
  let doc = "List the registered experiments" in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the catalogue as a JSON array (id, title, cells, doc, n range).")
  in
  Cmd.v (Cmd.info "list" ~doc)
    Term.(
      const (fun json ->
          if json then
            print_endline (H.Json.to_string ~pretty:true (H.Registry.index_json ()))
          else
            List.iter
              (fun (e : H.Experiment.t) ->
                Printf.printf "%-16s %4d cells  %s\n" e.id (List.length e.default_grid) e.doc)
              H.Registry.all)
      $ json_arg)

let run_cmd =
  let doc = "Run one experiment (cached, resumable)" in
  let id_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ID" ~doc:"Experiment id; see $(b,experiments list).")
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const (fun id ns no_cache jobs backend workers results_dir trace ->
          match H.Registry.find id with
          | None ->
            (match H.Registry.suggest id with
            | Some close ->
              Printf.eprintf
                "experiments: unknown experiment %S — did you mean %S? (run `experiments \
                 list' for every id)\n"
                id close
            | None ->
              Printf.eprintf
                "experiments: unknown experiment %S (run `experiments list' for every id)\n"
                id);
            Stdlib.exit 2
          | Some exp ->
            let backend = resolve_backend ~backend ~jobs ~workers in
            with_trace trace (fun () ->
                run_experiments ~results_dir ~no_cache ~jobs ~backend ~ns [ exp ]))
      $ id_arg $ ns_arg $ no_cache_arg $ jobs_arg $ backend_arg $ workers_arg $ results_arg
      $ trace_arg)

let all_cmd =
  let doc = "Run every experiment at default scale" in
  Cmd.v (Cmd.info "all" ~doc)
    Term.(
      const (fun no_cache jobs backend workers results_dir trace ->
          let backend = resolve_backend ~backend ~jobs ~workers in
          with_trace trace (fun () ->
              run_experiments ~results_dir ~no_cache ~jobs ~backend ~ns:None H.Registry.all))
      $ no_cache_arg $ jobs_arg $ backend_arg $ workers_arg $ results_arg $ trace_arg)

(* The worker process: the hidden half of --backend procs (the
   coordinator self-execs it with its end of a socketpair as stdin). *)
let worker_cmd =
  Cmd.v
    (Cmd.info "worker" ~doc:"dist worker process (internal, spawned by --backend procs)")
    Term.(const (fun () -> Bcclb_dist.Worker.main ()) $ const ())

(* ---- stats: render the manifest's metrics block as a table ---- *)

let float_s f = Printf.sprintf "%.6f" f

let hist_line name o =
  let g k = Option.bind (H.Json.member k o) H.Json.to_float_opt in
  let gi k = Option.bind (H.Json.member k o) H.Json.to_int_opt in
  Printf.printf "%-28s %-9s count=%-8d sum=%ss mean=%ss p50=%ss p90=%ss p99=%ss\n" name
    "histogram"
    (Option.value (gi "count") ~default:0)
    (float_s (Option.value (g "sum") ~default:0.0))
    (float_s (Option.value (g "mean") ~default:0.0))
    (float_s (Option.value (g "p50") ~default:0.0))
    (float_s (Option.value (g "p90") ~default:0.0))
    (float_s (Option.value (g "p99") ~default:0.0))

let print_metrics metrics =
  Printf.printf "%-28s %-9s %s\n" "metric" "type" "value";
  List.iter
    (fun (name, v) ->
      match Option.bind (H.Json.member "type" v) H.Json.to_str_opt with
      | Some "counter" ->
        Printf.printf "%-28s %-9s %d\n" name "counter"
          (Option.value ~default:0 (Option.bind (H.Json.member "value" v) H.Json.to_int_opt))
      | Some "histogram" -> hist_line name v
      | _ -> Printf.printf "%-28s %-9s ?\n" name "?")
    metrics

let stats_cmd =
  let doc = "Summarize the metrics block of an existing run manifest" in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(
      const (fun results_dir ->
          let path = Filename.concat results_dir "manifest.json" in
          if not (Sys.file_exists path) then begin
            Printf.eprintf
              "experiments stats: no manifest at %s (run `experiments run <id>' first)\n" path;
            Stdlib.exit 2
          end;
          match H.Json.of_string (String.trim (H.Fsutil.read_file path)) with
          | exception Failure msg ->
            Printf.eprintf "experiments stats: %s: %s\n" path msg;
            Stdlib.exit 2
          | doc_json ->
            (match H.Json.member "provenance" doc_json with
            | Some (H.Json.Obj kvs) ->
              let field k =
                match List.assoc_opt k kvs with Some (H.Json.Str s) -> s | _ -> "-"
              in
              Printf.printf "manifest: %s\ncommit: %s  ocaml: %s  host: %s  domains: %d\n\n" path
                (field "git_commit") (field "ocaml_version") (field "hostname")
                (Option.value ~default:1
                   (Option.bind (H.Json.member "num_domains" doc_json) H.Json.to_int_opt))
            | _ -> Printf.printf "manifest: %s\n\n" path);
            (match H.Json.member "metrics" doc_json with
            | Some (H.Json.Obj metrics) when metrics <> [] -> print_metrics metrics
            | _ ->
              Printf.eprintf "experiments stats: manifest has no metrics block (pre-v2?)\n";
              Stdlib.exit 2))
      $ results_arg)

let () =
  let info =
    Cmd.info "experiments"
      ~doc:"Reproduction experiments for the BCC connectivity lower bounds"
  in
  exit
    (Cmd.eval
       (Cmd.group info [ list_cmd; run_cmd; all_cmd; stats_cmd; worker_cmd ]))
