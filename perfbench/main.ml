(* The repository benchmark. Run from the repository root, after
   building (perfbench/run.sh builds and then execs this):

     main.exe [run] [--workload W]... [--seed N] [--reps K | --seconds S]
                    [--trace 0|1] [--out FILE] [--history FILE]

   End to end, it times the real experiments CLI as a child process,
   each execution cold in a fresh working directory under _perfbench/,
   and checks every execution's outputs against perfbench/golden.json.
   Per layer, it reads the executions' manifest counters, times the
   library kernels in-process (Kernels) and rolls one traced execution
   per workload up into span self time (Perfbench.Rollup).

   --trace 0 measures only the end-to-end metrics, --trace 1 only the
   per-layer ones; without --trace it does both. The last line of stdout
   is one JSON object {correct, attempted, failed, metrics} carrying the
   metrics BENCHMARK.json names; the full report goes to --out. *)

module Json = Bcclb_harness.Json
module Fsutil = Bcclb_harness.Fsutil
module Mclock = Bcclb_obs.Mclock
module Stats = Perfbench.Stats
module Check = Perfbench.Check
module Proc = Perfbench.Proc
module Rollup = Perfbench.Rollup

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

(* ---- options ---- *)

type opts = {
  workloads : Workload.t list;
  seed : int;
  reps : [ `Count of int | `Seconds of float ];
  e2e : bool;
  layers : bool;
  out : string;
  history : string option;
}

let usage =
  "usage: main.exe [run] [--workload W]... [--seed N] [--reps K | --seconds S] [--trace 0|1] \
   [--out FILE] [--history FILE]"

let parse_args argv =
  let workloads = ref [] and seed = ref 1 and reps = ref (`Count 5) and trace = ref None in
  let out = ref "_build/bench-report.json" and history = ref None in
  let num parse flag v =
    match parse v with Some x -> x | None -> die "%s: bad value %S\n%s" flag v usage
  in
  let rec go = function
    | [] -> ()
    | "run" :: rest -> go rest
    | "--workload" :: w :: rest ->
      (match Workload.find w with
      | Some w -> workloads := !workloads @ [ w ]
      | None ->
        die "unknown workload %S (one of: %s)" w
          (String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all)));
      go rest
    | "--seed" :: v :: rest ->
      seed := num int_of_string_opt "--seed" v;
      go rest
    | "--reps" :: v :: rest ->
      let k = num int_of_string_opt "--reps" v in
      if k < 1 then die "--reps must be >= 1";
      reps := `Count k;
      go rest
    | "--seconds" :: v :: rest ->
      reps := `Seconds (num float_of_string_opt "--seconds" v);
      go rest
    | "--trace" :: v :: rest ->
      trace := Some (num (function "0" -> Some false | "1" -> Some true | _ -> None) "--trace" v);
      go rest
    | "--out" :: v :: rest ->
      out := v;
      go rest
    | "--history" :: v :: rest ->
      history := Some v;
      go rest
    | a :: _ -> die "unexpected argument %S\n%s" a usage
  in
  go argv;
  {
    workloads = (if !workloads = [] then Workload.all else !workloads);
    seed = !seed;
    reps = !reps;
    e2e = !trace <> Some true;
    layers = !trace <> Some false;
    out = !out;
    history = !history;
  }

(* ---- BENCHMARK.json: the metrics the result line carries ---- *)

type declared = { dname : string; dunit : string; bound : float option }

let load_declared path =
  let j =
    try Json.of_string (String.trim (Fsutil.read_file path))
    with Sys_error e | Failure e -> die "%s" e
  in
  let section key =
    match Option.bind (Json.member key j) Json.to_list_opt with
    | None -> die "%s: no %s list" path key
    | Some items ->
      List.map
        (fun m ->
          let str k = Option.bind (Json.member k m) Json.to_str_opt in
          match (str "name", str "unit") with
          | Some dname, Some dunit ->
            { dname; dunit; bound = Option.bind (Json.member "bound" m) Json.to_float_opt }
          | _ -> die "%s: %s entry without name/unit" path key)
        items
  in
  (section "end_to_end", section "per_layer")

(* ---- end-to-end executions ---- *)

type kind = Main | Probe | Traced

type exec = {
  kind : kind;
  outcome : Proc.outcome;
  manifest : Json.t option;  (** [Some] iff the execution passed its checks. *)
  self_s : (string * float) list;  (** Traced executions only. *)
}

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let tail_lines n file =
  match String.split_on_char '\n' (String.trim (Fsutil.read_file file)) with
  | exception Sys_error _ -> ""
  | lines ->
    let k = List.length lines in
    String.concat "\n" (List.filteri (fun i _ -> i >= k - n) lines)

(* Every BCCLB_* setting (and the OCaml GC tuning variables) is cleared
   so runs measure defaults; TMPDIR=. keeps dist sockets in the run
   directory and GIT_DIR makes the manifest's provenance probe fail fast
   instead of walking up the tree. *)
let child_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun kv ->
         not
           (String.starts_with ~prefix:"BCCLB_" kv
           || String.starts_with ~prefix:"TMPDIR=" kv
           || String.starts_with ~prefix:"GIT_DIR=" kv
           || String.starts_with ~prefix:"OCAMLRUNPARAM=" kv
           || String.starts_with ~prefix:"CAMLRUNPARAM=" kv))
  |> List.append [ "TMPDIR=."; "GIT_DIR=.no-git" ]
  |> Array.of_list

type ctx = {
  exe : string;
  runs : string;
  golden : (string * Check.expect) list;
  env : string array;
  deadline_ns : int option;  (** Hard end of the invocation, if any. *)
  mutable counter : int;
  mutable attempted : int;
  mutable failures : string list;
}

let fail ctx what =
  ctx.failures <- what :: ctx.failures;
  prerr_endline ("perfbench: FAILED " ^ what)

let execute ctx kind (w : Workload.t) =
  ctx.counter <- ctx.counter + 1;
  let dir = Filename.concat ctx.runs (Printf.sprintf "%s-%d" w.name ctx.counter) in
  Fsutil.mkdir_p dir;
  let args, golden =
    match kind with
    | Main -> (Workload.args w, w.golden)
    | Traced -> (Workload.args w @ [ "--trace"; "trace.json" ], w.golden)
    | Probe -> (Workload.probe_args w, Workload.probe_golden)
  in
  let timeout_s =
    match ctx.deadline_ns with
    | None -> 900
    | Some d -> max 1 ((d - Mclock.now_ns ()) / 1_000_000_000)
  in
  let file f = Filename.concat dir f in
  let outcome =
    Proc.run ~cwd:dir ~env:ctx.env ~timeout_s ~stdout:(file "stdout.txt")
      ~stderr:(file "stderr.txt") ctx.exe args
  in
  ctx.attempted <- ctx.attempted + 1;
  let expect =
    match List.assoc_opt golden ctx.golden with
    | Some e -> e
    | None -> die "perfbench/golden.json has no %S entry" golden
  in
  let what = String.concat " " ("experiments" :: args) in
  let manifest, self_s =
    match Check.verdict expect ~status:outcome.status ~results:(file "results") with
    | Error reason ->
      fail ctx (Printf.sprintf "%s: %s\n%s" what reason (tail_lines 5 (file "stderr.txt")));
      (None, [])
    | Ok m when kind = Traced -> (
      match Rollup.self_seconds (Rollup.of_jsonl (Fsutil.read_file (file "trace.jsonl"))) with
      | spans -> (Some m, spans)
      | exception (Failure e | Sys_error e) ->
        fail ctx (Printf.sprintf "%s: unreadable span log: %s" what e);
        (None, []))
    | Ok m -> (Some m, [])
  in
  remove_tree dir;
  Printf.eprintf "[perfbench] %-10s %-6s %8.3fs %s\n%!" w.name
    (match kind with Main -> "run" | Probe -> "probe" | Traced -> "traced")
    outcome.wall_s
    (if manifest = None then "FAILED" else "ok");
  { kind; outcome; manifest; self_s }

(* A fixed single-threaded loop that calls no repository code, timed
   next to every rep so a shift in host speed shows beside the numbers. *)
let host_ref_ms () =
  let t0 = Mclock.now_ns () in
  let x = ref 0 in
  for i = 1 to 30_000_000 do
    x := ((!x * 1103515245) + i) land 0xffffffff
  done;
  ignore (Sys.opaque_identity !x);
  float_of_int (Mclock.now_ns () - t0) /. 1e6

(* Set-up probes per workload and invocation: setup_s is their median. *)
let probes = 9

(* ---- metrics ---- *)

type metric = { unit : string; stats : Stats.t }

let single unit v = { unit; stats = Stats.of_list [ v ] }

let path j keys = List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) keys
let num j keys = Option.value ~default:0.0 (Option.bind (path j keys) Json.to_float_opt)

let experiment_seconds m = num m [ "metrics"; "runner.experiment_seconds"; "sum" ]

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Medians over a workload's successful executions (over all of them
   when none succeeded, so a failing run still reports what it measured). *)
let e2e_metrics execs =
  let mains = List.filter (fun e -> e.kind = Main) execs in
  let probes = List.filter (fun e -> e.kind = Probe) execs in
  let good l = match List.filter (fun e -> e.manifest <> None) l with [] -> l | g -> g in
  let stat unit f l = { unit; stats = Stats.of_list (List.map f (good l)) } in
  let setup e =
    e.outcome.wall_s -. Option.fold ~none:0.0 ~some:experiment_seconds e.manifest
  in
  let attempted = List.length mains + List.length probes in
  let failed = List.length (List.filter (fun e -> e.manifest = None) (mains @ probes)) in
  [ ("sweep_s", stat "s" (fun e -> e.outcome.wall_s) mains);
    ("cpu_s", stat "s" (fun e -> e.outcome.cpu_s) mains);
    ("peak_rss_mib", stat "MiB" (fun e -> float_of_int e.outcome.peak_rss_kib /. 1024.0) mains);
    ("setup_s", stat "s" setup probes);
    ("fail_ratio", single "ratio" (ratio (float_of_int failed) (float_of_int attempted))) ]

(* The program's own counters, from an untraced execution's manifest. *)
let manifest_metrics m ~sweep_s =
  let counter name = num m [ "metrics"; name; "value" ] in
  let hist_sum name = num m [ "metrics"; name; "sum" ] in
  let count name = (name, single "count" (counter name)) in
  let busy = hist_sum "pool.cell_seconds" in
  let cell_s =
    List.concat_map
      (fun (e : Bcclb_harness.Experiment.t) ->
        let s =
          match path m [ "experiments" ] with
          | Some (Json.List l) ->
            List.fold_left
              (fun acc x ->
                if Option.bind (Json.member "id" x) Json.to_str_opt = Some e.id then
                  acc +. num x [ "seconds" ]
                else acc)
              0.0 l
          | _ -> 0.0
        in
        [ ("runner.cell_s." ^ e.id, single "s" s);
          ("runner.cell_share." ^ e.id, single "ratio" (ratio s sweep_s)) ])
      Bcclb_harness.Registry.all
  in
  [ count "engine.runs"; count "engine.rounds"; count "engine.emissions";
    count "engine.bits_broadcast";
    ("gc.minor_mwords", single "Mwords" (num m [ "process"; "gc_minor_words" ] /. 1e6));
    ("gc.major_collections", single "count" (num m [ "process"; "gc_major_collections" ]));
    count "pool.tasks";
    ("pool.busy_s", single "s" busy);
    ("pool.queue_wait_s", single "s" (hist_sum "pool.queue_wait_seconds"));
    ("pool.efficiency", single "ratio" (ratio busy (sweep_s *. 2.0)));
    count "arena.interned_one"; count "arena.interned_two"; count "arena.cross_key_probes";
    ( "arena.memo_hit_ratio",
      single "ratio"
        (ratio (counter "arena.memo_hits")
           (counter "arena.memo_hits" +. counter "arena.memo_misses")) );
    count "arena.orbit.reps";
    ( "arena.orbit.resident_hit_ratio",
      single "ratio"
        (ratio
           (counter "arena.orbit.resident_hits")
           (counter "arena.orbit.resident_hits" +. counter "arena.orbit.cold_loads")) );
    count "quotient.reps"; count "crossing.executed"; count "crossing.verified";
    count "cache.stores";
    ("cache.store_s", single "s" (hist_sum "cache.store_seconds"));
    count "dist.leases"; count "dist.leased_cells"; count "dist.steals"; count "dist.frames_in";
    count "dist.bytes_in"; count "dist.requeues"; count "dist.worker_deaths" ]
  @ cell_s

let layer_metrics execs =
  let passed kind =
    List.filter_map
      (fun e -> if e.kind = kind then Option.map (fun m -> (e, m)) e.manifest else None)
      execs
  in
  match passed Main with
  | [] -> []
  | (_, m) :: _ as untraced ->
    let sweep_s = (Stats.of_list (List.map (fun (e, _) -> e.outcome.wall_s) untraced)).median in
    let spans =
      match passed Traced with
      | (t, _) :: _ ->
        ("obs.trace_overhead", single "ratio" ((t.outcome.wall_s /. sweep_s) -. 1.0))
        :: List.concat_map
             (fun (name, s) ->
               [ ("self_s." ^ name, single "s" s);
                 ("self_share." ^ name, single "ratio" (s /. t.outcome.wall_s)) ])
             t.self_s
      | [] -> []
    in
    manifest_metrics m ~sweep_s @ spans

(* ---- output ---- *)

let stats_json unit (s : Stats.t) =
  Json.Obj
    [ ("unit", Json.Str unit); ("median", Json.Float s.median); ("iqr", Json.Float (Stats.iqr s));
      ("min", Json.Float s.min); ("max", Json.Float s.max); ("n", Json.Int s.n) ]

let metrics_json l = Json.Obj (List.map (fun (name, m) -> (name, stats_json m.unit m.stats)) l)

let git_commit () =
  match Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] with
  | exception Unix.Unix_error _ -> None
  | ic ->
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    (match Unix.close_process_in ic with Unix.WEXITED 0 -> line | _ -> None)

let print_table ~bounds name rows =
  Printf.printf "\n%s\n%-44s %-7s %14s %14s %14s %4s %7s\n" name "metric" "unit" "median" "min"
    "max" "n" "iqr%";
  List.iter
    (fun (metric, m) ->
      let s = m.stats in
      let spread = 100.0 *. Stats.spread s in
      let flag =
        match List.assoc_opt metric bounds with
        | Some (Some b) when Stats.spread s > b -> "  unresolved"
        | _ -> ""
      in
      let g v = if Float.is_integer v then Printf.sprintf "%.0f" v else Printf.sprintf "%.6g" v in
      Printf.printf "%-44s %-7s %14s %14s %14s %4d %6.2f%%%s\n" metric m.unit (g s.median)
        (g s.min) (g s.max) s.n spread flag)
    rows

let () =
  let opts = parse_args (List.tl (Array.to_list Sys.argv)) in
  let start_ns = Mclock.now_ns () in
  let root = Sys.getcwd () in
  let exe = Filename.concat root "_build/default/bin/experiments.exe" in
  if not (Sys.file_exists exe) then die "%s is missing: build first (dune build)" exe;
  let golden =
    try Check.load_golden (Filename.concat root "perfbench/golden.json")
    with Failure e -> die "%s" e
  in
  let e2e_declared, layer_declared = load_declared (Filename.concat root "BENCHMARK.json") in
  Proc.init ();
  let runs = Filename.concat root (Printf.sprintf "_perfbench/%d" (Unix.getpid ())) in
  Fsutil.mkdir_p runs;
  let ctx =
    {
      exe;
      runs;
      golden;
      env = child_env ();
      (* A time-budgeted run must end well inside three minutes. *)
      deadline_ns =
        (match opts.reps with
        | `Seconds _ -> Some (start_ns + 170_000_000_000)
        | `Count _ -> None);
      counter = 0;
      attempted = 0;
      failures = [];
    }
  in
  let execs = Hashtbl.create 8 in
  let record (w : Workload.t) e = Hashtbl.add execs w.name e in
  let of_workload (w : Workload.t) = List.rev (Hashtbl.find_all execs w.name) in
  let ref_ms = ref [] in
  (* Reps run the workloads round-robin, so host drift hits them alike. *)
  let rec reps k =
    let t0 = Mclock.now_ns () in
    ref_ms := host_ref_ms () :: !ref_ms;
    List.iter (fun w -> record w (execute ctx Main w)) opts.workloads;
    let round_s = Mclock.ns_to_s (Mclock.now_ns () - t0) in
    let elapsed = Mclock.ns_to_s (Mclock.now_ns () - start_ns) in
    let again =
      match opts.reps with `Count n -> k < n | `Seconds s -> elapsed +. round_s <= s
    in
    if again then reps (k + 1)
  in
  if opts.e2e then begin
    reps 1;
    List.iter
      (fun w ->
        for _ = 1 to probes do
          record w (execute ctx Probe w)
        done)
      opts.workloads
  end;
  let kernels =
    if opts.layers then begin
      List.iter
        (fun (w : Workload.t) ->
          if not (List.exists (fun e -> e.kind = Main) (of_workload w)) then begin
            ref_ms := host_ref_ms () :: !ref_ms;
            record w (execute ctx Main w)
          end;
          record w (execute ctx Traced w))
        opts.workloads;
      let scratch = Filename.concat runs "kernels" in
      Fsutil.mkdir_p scratch;
      let stopwatch = Mclock.counter () in
      match Kernels.run ~seed:opts.seed ~scratch with
      | exception e ->
        ctx.attempted <- ctx.attempted + 1;
        fail ctx ("layer kernels: " ^ Printexc.to_string e);
        []
      | k ->
        Printf.eprintf "[perfbench] layer kernels %.3fs\n%!" (stopwatch ());
        ctx.attempted <- ctx.attempted + k.checked;
        List.iter (fun f -> fail ctx ("kernel check: " ^ f)) k.failures;
        List.map (fun (r : Kernels.row) -> (r.name, { unit = r.unit; stats = r.stats })) k.rows
    end
    else []
  in
  remove_tree runs;
  (try Unix.rmdir (Filename.concat root "_perfbench") with Unix.Unix_error _ -> ());
  let host = ("host.ref_ms", { unit = "ms"; stats = Stats.of_list !ref_ms }) in
  let per_workload =
    List.map
      (fun (w : Workload.t) ->
        let ex = of_workload w in
        let e2e = if opts.e2e then e2e_metrics ex else [] in
        let layers = if opts.layers then host :: layer_metrics ex else [] in
        (w, e2e, layers))
      opts.workloads
  in
  (* Human-readable tables. *)
  let bounds = List.map (fun d -> (d.dname, d.bound)) e2e_declared in
  Printf.printf "perfbench: seed %d, host.ref_ms median %.3f over %d sample(s)\n" opts.seed
    (snd host).stats.median (snd host).stats.n;
  List.iter
    (fun ((w : Workload.t), e2e, layers) ->
      if e2e <> [] then print_table ~bounds (w.name ^ ": end to end") e2e;
      if layers <> [] then print_table ~bounds:[] (w.name ^ ": per layer") layers)
    per_workload;
  if kernels <> [] then print_table ~bounds:[] "layer kernels" kernels;
  (* Report, and the committed trajectory. Only a trajectory line needs
     the commit, and a checkout without git metadata has none to give. *)
  let commit = if opts.history = None then None else git_commit () in
  let report =
    Json.Obj
      [ ("schema", Json.Str "bcclb-perfbench-v1");
        ("commit", Option.fold ~none:Json.Null ~some:(fun c -> Json.Str c) commit);
        ("seed", Json.Int opts.seed);
        ("host", metrics_json [ host ]);
        ( "workloads",
          Json.Obj
            (List.map
               (fun ((w : Workload.t), e2e, layers) ->
                 ( w.name,
                   Json.Obj
                     [ ("end_to_end", metrics_json e2e); ("per_layer", metrics_json layers) ] ))
               per_workload) );
        ("kernels", metrics_json kernels);
        ("attempted", Json.Int ctx.attempted);
        ("failures", Json.List (List.rev_map (fun f -> Json.Str f) ctx.failures)) ]
  in
  Fsutil.mkdir_p (Filename.dirname opts.out);
  Json.write_file ~pretty:true opts.out report;
  Option.iter
    (fun file ->
      let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 file in
      output_string oc (Json.to_string report ^ "\n");
      close_out oc)
    opts.history;
  (* The result line: the metrics BENCHMARK.json declares, by name. A
     span that never opened had no self time; a metric a failed
     execution could not produce reads 0 next to "correct": false. *)
  let failed = List.length ctx.failures in
  let line_metrics =
    List.concat_map
      (fun ((w : Workload.t), e2e, layers) ->
        let declared =
          (if opts.e2e then e2e_declared else []) @ if opts.layers then layer_declared else []
        in
        let available = e2e @ layers @ kernels in
        List.map
          (fun d ->
            let key = if List.length opts.workloads = 1 then d.dname else w.name ^ "/" ^ d.dname in
            let value =
              match List.assoc_opt d.dname available with
              | Some m when m.unit = d.dunit -> m.stats.median
              | Some m -> die "%s: measured in %s, BENCHMARK.json says %s" d.dname m.unit d.dunit
              | None when failed > 0 || String.starts_with ~prefix:"self_share." d.dname -> 0.0
              | None -> die "%s is declared in BENCHMARK.json but not measured" d.dname
            in
            (key, Json.Obj [ ("value", Json.Float value); ("unit", Json.Str d.dunit) ]))
          declared)
      per_workload
  in
  print_newline ();
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (failed = 0)); ("attempted", Json.Int ctx.attempted);
            ("failed", Json.Int failed); ("metrics", Json.Obj line_metrics) ]))
