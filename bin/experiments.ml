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
    & opt (some string) None
    & info [ "workers" ] ~docv:"N|ROSTER"
        ~doc:
          "Worker roster. A count $(b,N) spawns that many local worker processes for \
           $(b,--backend procs) (default: the $(b,--jobs) resolution). A comma-separated \
           address list ($(b,tcp:HOST:PORT,tcp:[V6HOST]:PORT,unix:PATH)) connects to \
           pre-started $(b,experiments worker --listen) processes instead — and implies \
           the procs backend. Ignored by the domains backend when it is a count.")

let tcp_arg =
  Arg.(
    value & flag
    & info [ "tcp" ]
        ~doc:
          "With $(b,--backend procs): talk to workers over loopback TCP instead of a \
           Unix-domain socket.")

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
           span log next to it. $(b,BCCLB_TRACE)=FILE does the same without the flag.")

let metrics_addr_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-addr" ] ~docv:"ADDR"
        ~doc:
          "Expose the live metrics registry as OpenMetrics text on $(docv) \
           ($(b,tcp:HOST:PORT) or $(b,unix:PATH)) for the duration of the command. Scrape \
           it with Prometheus, curl, or $(b,experiments stats --follow ADDR).")

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

(* --workers is either a process count (self-spawned roster) or an
   address list (pre-started roster). *)
let parse_workers s =
  match int_of_string_opt (String.trim s) with
  | Some w ->
    if w < 1 then begin
      Printf.eprintf "experiments: --workers must be >= 1 (got %d)\n" w;
      Stdlib.exit 2
    end;
    `Count w
  | None -> (
    match Bcclb_dist.Addr.roster_of_string s with
    | Ok addrs -> `Roster (List.map Bcclb_dist.Addr.to_string addrs)
    | Error e ->
      Printf.eprintf "experiments: --workers: %s\n" e;
      Stdlib.exit 2)

(* The procs backend self-execs this very binary as `experiments worker
   --socket ADDR`; install wires that spawn into the Runner hook. A
   pre-started roster never spawns, but installs the same runner. *)
let resolve_backend ~backend ~jobs ~workers ~tcp =
  require_positive "--jobs" jobs;
  let workers = Option.map parse_workers workers in
  let install () =
    Bcclb_dist.Backend.install
      ~transport:(if tcp then `Tcp else `Unix_socket)
      ~spawn:
        (Bcclb_dist.Backend.spawn_argv (fun addr ->
             [| Sys.executable_name; "worker"; "--socket"; addr |]))
      ()
  in
  match (backend, workers) with
  | _, Some (`Roster entries) ->
    install ();
    `Roster entries
  | `Domains, _ -> `Domains
  | `Procs, Some (`Count w) ->
    install ();
    `Procs w
  | `Procs, None ->
    install ();
    `Procs (resolved_domains jobs)

(* Tracing wraps a whole invocation: --trace wins over $BCCLB_TRACE, and
   the files are written once the run (and its manifest) is done. *)
let with_trace trace f =
  (match trace with
  | Some file -> Obs.Trace.start ~file ()
  | None -> Obs.Trace.start_from_env ());
  Fun.protect
    ~finally:(fun () ->
      if Obs.Trace.enabled () then begin
        (match trace with
        | Some file ->
          Printf.eprintf "[trace] %d spans -> %s + %s\n%!" (Obs.Trace.event_count ()) file
            (Obs.Trace.jsonl_path file)
        | None -> Printf.eprintf "[trace] %d spans\n%!" (Obs.Trace.event_count ()));
        Obs.Trace.stop ()
      end)
    f

(* --metrics-addr wraps a whole invocation too: bind the OpenMetrics
   endpoint before the work starts, tear it down (join the acceptor,
   unlink the socket) once the work is done, whatever the exit path. *)
let with_metrics metrics f =
  match metrics with
  | None -> f ()
  | Some spec -> (
    match Bcclb_dist.Addr.of_string spec with
    | Error e ->
      Printf.eprintf "experiments: --metrics-addr: %s\n" e;
      Stdlib.exit 2
    | Ok address -> (
      match Bcclb_dist.Expose.start ~address () with
      | Error e ->
        Printf.eprintf "experiments: --metrics-addr: %s\n" e;
        Stdlib.exit 2
      | Ok endpoint ->
        Printf.eprintf "[metrics] OpenMetrics on %s\n%!"
          (Bcclb_dist.Addr.to_string (Bcclb_dist.Expose.address endpoint));
        Fun.protect ~finally:(fun () -> Bcclb_dist.Expose.stop endpoint) f))

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
  let num_domains = jobs in
  let reports =
    List.map
      (fun (exp : H.Experiment.t) ->
        let grid =
          match (ns, exp.grid_of_ns) with
          | Some ns, Some f -> Some (f ns)
          | Some _, None ->
            Printf.eprintf "[harness] %s: -n is not an axis of this experiment; ignored\n%!"
              exp.id;
            None
          | None, _ -> None
        in
        let r = H.Runner.run ~backend ?cache ?num_domains ?grid ~sink exp in
        Printf.eprintf "[harness] %-16s %4d cells, %4d hits, %4d misses, %7.2fs\n%!"
          r.H.Sink.id r.H.Sink.cells r.H.Sink.hits r.H.Sink.misses r.H.Sink.seconds;
        r)
      exps
  in
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
      const (fun id ns no_cache jobs backend workers tcp results_dir trace metrics ->
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
            let backend = resolve_backend ~backend ~jobs ~workers ~tcp in
            with_metrics metrics (fun () ->
                with_trace trace (fun () ->
                    run_experiments ~results_dir ~no_cache ~jobs ~backend ~ns [ exp ])))
      $ id_arg $ ns_arg $ no_cache_arg $ jobs_arg $ backend_arg $ workers_arg $ tcp_arg
      $ results_arg $ trace_arg $ metrics_addr_arg)

let all_cmd =
  let doc = "Run every experiment at default scale" in
  Cmd.v (Cmd.info "all" ~doc)
    Term.(
      const (fun no_cache jobs backend workers tcp results_dir trace metrics ->
          let backend = resolve_backend ~backend ~jobs ~workers ~tcp in
          with_metrics metrics (fun () ->
              with_trace trace (fun () ->
                  run_experiments ~results_dir ~no_cache ~jobs ~backend ~ns:None H.Registry.all)))
      $ no_cache_arg $ jobs_arg $ backend_arg $ workers_arg $ tcp_arg $ results_arg
      $ trace_arg $ metrics_addr_arg)

(* The worker process. Two modes: --socket is the hidden half of
   --backend procs (the coordinator self-execs it, it dials back);
   --listen is the pre-started half of --workers rosters (it binds an
   address and serves coordinator sessions until SIGINT/SIGTERM). *)
let worker_cmd =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"ADDR"
          ~doc:
            "Dial-back mode (internal, spawned by $(b,--backend procs)): connect to the \
             coordinator at $(docv), $(b,unix:PATH) or $(b,tcp:HOST:PORT).")
  in
  let listen_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Pre-started roster mode: bind $(docv) (e.g. $(b,tcp:127.0.0.1:7801)) and \
             serve coordinator sessions — one sweep after another — until SIGINT/SIGTERM, \
             then drain and remove the endpoint. Point a coordinator at it with \
             $(b,--workers ADDR,...).")
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "dist worker process: spawned by --backend procs, or pre-started with --listen \
          for --workers rosters")
    Term.(
      const (fun socket listen metrics ->
          match (socket, listen) with
          | Some address, None -> Bcclb_dist.Worker.main ~address ()
          | None, Some address ->
            with_metrics metrics (fun () -> Bcclb_dist.Worker.main_listen ~address ())
          | _ ->
            Printf.eprintf "experiments worker: exactly one of --socket or --listen is required\n";
            Stdlib.exit 2)
      $ socket_arg $ listen_arg $ metrics_addr_arg)

(* ---- serve / load: the connectivity-query daemon and its driver ---- *)

let serve_cmd =
  let doc = "Serve connectivity queries over a socket (drive with $(b,experiments load))" in
  let socket_arg =
    Arg.(
      value & opt string "serve.sock"
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path to listen on.")
  in
  let tcp_port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT"
          ~doc:"Listen on loopback TCP $(docv) instead of a unix socket.")
  in
  let domains_arg =
    Arg.(
      value & opt int 2
      & info [ "domains" ] ~docv:"N" ~doc:"Handler domains accepting connections.")
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const (fun socket tcp domains metrics ->
          require_positive "--domains" (Some domains);
          with_metrics metrics @@ fun () ->
          let address =
            match tcp with
            | Some port ->
              if port < 1 || port > 65535 then begin
                Printf.eprintf "experiments: --tcp port out of range (got %d)\n" port;
                Stdlib.exit 2
              end;
              Bcclb_dist.Addr.Tcp ("127.0.0.1", port)
            | None -> Bcclb_dist.Addr.Unix_socket socket
          in
          match Bcclb_dist.Serve.start ~address ~domains () with
          | Error e ->
            Printf.eprintf "experiments: %s\n" e;
            Stdlib.exit 2
          | Ok server ->
            (* SIGINT/SIGTERM request a graceful exit: drain the
               acceptors, unlink the socket, flush the serve counters,
               exit 0 — the shared drain protocol from Transport. *)
            let stop = Bcclb_dist.Transport.install_stop_signals () in
            Printf.printf "serve: listening on %s (%d domains)\n%!"
              (Bcclb_dist.Addr.to_string (Bcclb_dist.Serve.address server))
              domains;
            Bcclb_dist.Transport.wait_stop stop;
            Bcclb_dist.Serve.stop server;
            List.iter
              (fun (name, v) ->
                match v with
                | Obs.Metrics.Counter c when String.starts_with ~prefix:"serve." name ->
                  Printf.eprintf "[serve] %s = %d\n" name c
                | _ -> ())
              (Obs.Metrics.snapshot ());
            Printf.eprintf "[serve] shutdown complete\n%!")
      $ socket_arg $ tcp_port_arg $ domains_arg $ metrics_addr_arg)

let load_cmd =
  let doc = "Drive a serve daemon: replay a query trace or generate load" in
  let connect_arg =
    Arg.(
      value & opt string "unix:serve.sock"
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:"Server address, $(b,unix:PATH) or $(b,tcp:HOST:PORT).")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay the query trace in $(docv) over one connection instead of generating \
             load.")
  in
  let dump_arg =
    Arg.(
      value & flag
      & info [ "dump-replies" ]
          ~doc:"With $(b,--replay): print one response line per request to stdout.")
  in
  let clients_arg =
    Arg.(value & opt int 1 & info [ "clients" ] ~docv:"N" ~doc:"Client connections (domains).")
  in
  let queries_arg =
    Arg.(
      value & opt int 100_000
      & info [ "queries" ] ~docv:"N" ~doc:"Total requests across all clients.")
  in
  let batch_arg =
    Arg.(value & opt int 1000 & info [ "batch" ] ~docv:"N" ~doc:"Requests per round trip.")
  in
  let gen_arg =
    Arg.(value & opt int 8192 & info [ "gen" ] ~docv:"N" ~doc:"Vertices of the generated graph.")
  in
  let gen_edges_arg =
    Arg.(
      value & opt int 8192
      & info [ "gen-edges" ] ~docv:"M" ~doc:"Random edges loaded into the served graph.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Deterministic workload seed.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the BENCH_serve.json report to $(docv).")
  in
  let qps_arg =
    Arg.(
      value & flag
      & info [ "qps-report" ]
          ~doc:"Print a Prometheus-style quantile summary of the report to stdout.")
  in
  Cmd.v (Cmd.info "load" ~doc)
    Term.(
      const (fun connect replay dump clients queries batch gen gen_edges seed out qps ->
          match Bcclb_dist.Addr.of_string connect with
          | Error e ->
            Printf.eprintf "experiments: --connect: %s\n" e;
            Stdlib.exit 2
          | Ok addr -> (
            match replay with
            | Some file -> (
              let dumpf = if dump then Some print_endline else None in
              match Bcclb_dist.Load.replay ~connect:addr ~file ~dump:dumpf with
              | Error e ->
                Printf.eprintf "experiments: %s\n" e;
                Stdlib.exit 1
              | Ok sent -> Printf.eprintf "[load] replayed %d requests from %s\n%!" sent file)
            | None -> (
              match
                Bcclb_dist.Load.config ~connect:addr ~clients ~queries ~batch ~gen_n:gen
                  ~gen_edges ~seed
              with
              | Error e ->
                Printf.eprintf "experiments: %s\n" e;
                Stdlib.exit 2
              | Ok cfg -> (
                match Bcclb_dist.Load.run cfg with
                | Error e ->
                  Printf.eprintf "experiments: %s\n" e;
                  Stdlib.exit 1
                | Ok report ->
                  (match out with
                  | Some file ->
                    H.Json.write_file ~pretty:true file report;
                    Printf.eprintf "[load] report -> %s\n%!" file
                  | None -> ());
                  if qps then print_string (Bcclb_dist.Load.qps_report report);
                  let gi k =
                    Option.value ~default:0
                      (Option.bind (H.Json.member k report) H.Json.to_int_opt)
                  in
                  let gf k =
                    Option.value ~default:0.0
                      (Option.bind (H.Json.member k report) H.Json.to_float_opt)
                  in
                  Printf.eprintf "[load] %d queries, %d clients, %.2fs, %.0f qps\n%!"
                    (gi "queries") (gi "clients") (gf "elapsed_seconds") (gf "qps")))))
      $ connect_arg $ replay_arg $ dump_arg $ clients_arg $ queries_arg $ batch_arg $ gen_arg
      $ gen_edges_arg $ seed_arg $ out_arg $ qps_arg)

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
      | Some "gauge" ->
        Printf.printf "%-28s %-9s %s\n" name "gauge"
          (float_s
             (Option.value ~default:0.0
                (Option.bind (H.Json.member "value" v) H.Json.to_float_opt)))
      | Some "histogram" -> hist_line name v
      | _ -> Printf.printf "%-28s %-9s ?\n" name "?")
    metrics

(* Live mode: poll a --metrics-addr endpoint, strictly parse each
   scrape (a malformed exposition is a hard failure — this loop doubles
   as the OpenMetrics linter in CI), and print the non-bucket samples.
   Buckets are elided from the table: the quantile family carries the
   same signal in three lines instead of a dozen. *)
let print_samples samples =
  List.iter
    (fun { Obs.Expo.name; labels; value } ->
      if not (Filename.check_suffix name "_bucket") then begin
        let rendered =
          match labels with
          | [] -> name
          | l ->
            name ^ "{"
            ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) l)
            ^ "}"
        in
        Printf.printf "%-52s %s\n" rendered (Printf.sprintf "%.9g" value)
      end)
    samples

let follow_stats ~spec ~interval ~iterations =
  (match iterations with
  | n when n < 0 ->
    Printf.eprintf "experiments stats: --iterations must be >= 0 (got %d)\n" n;
    Stdlib.exit 2
  | _ -> ());
  if interval <= 0.0 then begin
    Printf.eprintf "experiments stats: --interval must be > 0 (got %g)\n" interval;
    Stdlib.exit 2
  end;
  match Bcclb_dist.Addr.of_string spec with
  | Error e ->
    Printf.eprintf "experiments stats: --follow: %s\n" e;
    Stdlib.exit 2
  | Ok addr ->
    let stop = Bcclb_dist.Transport.install_stop_signals () in
    let polls = ref 0 and misses = ref 0 in
    let rec loop () =
      if not (Bcclb_dist.Transport.stop_requested stop) then begin
        (match Bcclb_dist.Expose.scrape addr with
        | Error e ->
          (* A refused connect can be a sweep that has not bound yet;
             tolerate a few before giving up. *)
          incr misses;
          Printf.eprintf "experiments stats: %s\n%!" e;
          if !misses > 5 then Stdlib.exit 1
        | Ok body -> (
          match Obs.Expo.parse body with
          | Error e ->
            Printf.eprintf "experiments stats: malformed exposition: %s\n" e;
            Stdlib.exit 1
          | Ok samples ->
            misses := 0;
            incr polls;
            Printf.printf "-- %s: scrape %d, %d samples --\n" spec !polls (List.length samples);
            print_samples samples;
            print_newline ();
            flush stdout));
        if iterations = 0 || !polls < iterations then begin
          (try Unix.sleepf interval with Unix.Unix_error (Unix.EINTR, _, _) -> ());
          loop ()
        end
      end
    in
    loop ()

let stats_cmd =
  let doc = "Summarize the metrics block of an existing run manifest" in
  let follow_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "follow" ] ~docv:"ADDR"
          ~doc:
            "Instead of reading a manifest, poll the live OpenMetrics endpoint a running \
             command exposes via $(b,--metrics-addr) at $(docv), strictly validating every \
             scrape (exits nonzero on a malformed exposition).")
  in
  let interval_arg =
    Arg.(
      value & opt float 2.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Delay between $(b,--follow) polls.")
  in
  let iterations_arg =
    Arg.(
      value & opt int 0
      & info [ "iterations" ] ~docv:"N"
          ~doc:"Stop after $(docv) successful $(b,--follow) polls (0 = until SIGINT).")
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(
      const (fun results_dir follow interval iterations ->
          match follow with
          | Some spec -> follow_stats ~spec ~interval ~iterations
          | None ->
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
      $ results_arg $ follow_arg $ interval_arg $ iterations_arg)

let () =
  let info =
    Cmd.info "experiments"
      ~doc:"Reproduction experiments for the BCC connectivity lower bounds"
  in
  exit
    (Cmd.eval
       (Cmd.group info [ list_cmd; run_cmd; all_cmd; stats_cmd; serve_cmd; load_cmd; worker_cmd ]))
