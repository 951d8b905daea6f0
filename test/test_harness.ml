(* The experiment harness: cache round-trips, corruption recovery, cache
   keys that ignore the domain count, the --no-cache bypass, and the
   resume-after-kill contract of the runner.

   Everything runs against a toy experiment in a private temp directory —
   the tests never touch the repository's results/ tree. *)

module Cache = Bcclb_harness.Cache
module Experiment = Bcclb_harness.Experiment
module Fsutil = Bcclb_harness.Fsutil
module Params = Bcclb_harness.Params
module Runner = Bcclb_harness.Runner
module Sink = Bcclb_harness.Sink

(* ---- scratch directories ---- *)

let temp_counter = ref 0

let fresh_dir () =
  incr temp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bcclb_harness_test.%d.%d" (Unix.getpid ()) !temp_counter)
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  dir

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Relative paths of all regular files under [dir], sorted — how we
   compare the entry sets two runs produced. *)
let ls_files dir =
  let rec go rel acc =
    let abs = if rel = "" then dir else Filename.concat dir rel in
    if Sys.is_directory abs then
      Array.fold_left
        (fun acc e -> go (if rel = "" then e else Filename.concat rel e) acc)
        acc (Sys.readdir abs)
    else rel :: acc
  in
  List.sort String.compare (if Sys.file_exists dir then go "" [] else [])

(* ---- the toy experiment ---- *)

let toy_grid = List.map (fun n -> Params.v [ ("n", Params.Int n) ]) [ 1; 2; 3; 4; 5; 6 ]

(* [computed] counts real cell evaluations (cache hits do not count);
   atomic because cells run from worker domains. [fail_on] injects a
   failure for chosen cells — the kill-mid-sweep stand-in. *)
let toy ?(fail_on = fun _ -> false) ~computed () =
  {
    Experiment.id = "toy";
    title = "Toy: squares";
    doc = "test fixture";
    version = 1;
    tables =
      [ { Experiment.name = ""; columns = [ Experiment.icol "n"; Experiment.icol "sq" ] } ];
    notes = [];
    default_grid = toy_grid;
    grid_of_ns = None;
    n_range = None;
    cell =
      (fun p ->
        let n = Params.int p "n" in
        if fail_on n then failwith "injected failure";
        Atomic.incr computed;
        [ Experiment.row [ ("n", Params.Int n); ("sq", Params.Int (n * n)) ] ]);
  }

(* One experiment over its default grid: the single-experiment case of
   [Runner.run]. *)
let render_run ?cache ?num_domains (exp : Experiment.t) =
  let buf = Buffer.create 256 in
  match
    Runner.run ?cache ?num_domains ~sink:(Sink.to_buffer buf) [ (exp, exp.default_grid) ]
  with
  | [ report ] -> (Buffer.contents buf, report)
  | _ -> Alcotest.fail "one experiment, one report"

(* ---- params ---- *)

let test_params_canonical () =
  let p = Params.v [ ("b", Params.Float 0.5); ("a", Params.Int 7) ] in
  Alcotest.(check string) "tagged, sorted" "a=i:7;b=f:0x1p-1" (Params.canonical p);
  let q = Params.v [ ("a", Params.Int 7); ("b", Params.Float 0.5) ] in
  Alcotest.(check bool) "order-insensitive" true (Params.equal p q);
  let r = Params.v [ ("a", Params.Str "7"); ("b", Params.Float 0.5) ] in
  Alcotest.(check bool) "type changes the encoding" false
    (String.equal (Params.canonical p) (Params.canonical r));
  Alcotest.check_raises "duplicate key rejected"
    (Invalid_argument "Params.v: duplicate key a") (fun () ->
      ignore (Params.v [ ("a", Params.Int 1); ("a", Params.Int 2) ]))

(* ---- cache ---- *)

let toy_rows = [ Experiment.row [ ("n", Params.Int 3); ("sq", Params.Int 9) ] ]

let toy_key () =
  Cache.key ~exp_id:"toy" ~version:1 ~params:(Params.v [ ("n", Params.Int 3) ])

let entry_path cache key =
  Filename.concat (Filename.concat (Cache.root cache) "toy") (Cache.key_hash key ^ ".entry")

let test_cache_roundtrip () =
  with_dir (fun dir ->
      let c = Cache.create ~root:dir in
      let k = toy_key () in
      Alcotest.(check bool) "miss before store" true (Cache.find c k = None);
      Cache.store c k toy_rows;
      Alcotest.(check bool) "hit after store" true (Cache.find c k = Some toy_rows);
      let k' =
        Cache.key ~exp_id:"toy" ~version:2 ~params:(Params.v [ ("n", Params.Int 3) ])
      in
      Alcotest.(check bool) "version bump misses" true (Cache.find c k' = None);
      Cache.remove c k;
      Alcotest.(check bool) "miss after remove" true (Cache.find c k = None))

let test_cache_corruption () =
  let clobber c k f =
    Cache.store c k toy_rows;
    let p = entry_path c k in
    f p;
    Alcotest.(check bool) "corrupt entry reads as miss" true (Cache.find c k = None);
    Alcotest.(check bool) "corrupt entry deleted" false (Sys.file_exists p);
    (* The slot is usable again: a store after the miss round-trips. *)
    Cache.store c k toy_rows;
    Alcotest.(check bool) "recovered after re-store" true (Cache.find c k = Some toy_rows)
  in
  with_dir (fun dir ->
      let c = Cache.create ~root:dir in
      let k = toy_key () in
      clobber c k (fun p ->
          (* Flip a payload byte: magic intact, checksum mismatch. *)
          let s = Bytes.of_string (Fsutil.read_file p) in
          let i = Bytes.length s - 1 in
          Bytes.set s i (Char.chr (Char.code (Bytes.get s i) lxor 0xff));
          Fsutil.write_file_atomic p (Bytes.to_string s));
      clobber c k (fun p ->
          (* Truncate mid-checksum: a torn write. *)
          let s = Fsutil.read_file p in
          Fsutil.write_file_atomic p (String.sub s 0 (String.length s / 2)));
      clobber c k (fun p -> Fsutil.write_file_atomic p "JUNK-MAGIC\nnot a checksum\n"))

(* ---- runner: keys independent of the domain count ---- *)

let test_key_domain_independence () =
  with_dir (fun dir_seq ->
      with_dir (fun dir_par ->
          let computed = Atomic.make 0 in
          let exp = toy ~computed () in
          let out_seq, _ =
            render_run ~cache:(Cache.create ~root:dir_seq) ~num_domains:1 exp
          in
          let out_par, _ =
            render_run ~cache:(Cache.create ~root:dir_par) ~num_domains:4 exp
          in
          Alcotest.(check string) "reports byte-identical across domain counts" out_seq
            out_par;
          Alcotest.(check (list string)) "same cache entries for 1 and 4 domains"
            (ls_files dir_seq) (ls_files dir_par);
          (* And the parallel run now hits the sequential run's cache. *)
          let before = Atomic.get computed in
          let out_warm, report =
            render_run ~cache:(Cache.create ~root:dir_seq) ~num_domains:4 exp
          in
          Alcotest.(check int) "warm run computes nothing" before (Atomic.get computed);
          Alcotest.(check int) "warm run is all hits" report.Sink.cells report.Sink.hits;
          Alcotest.(check string) "warm report byte-identical" out_seq out_warm))

(* ---- runner: --no-cache bypasses reads and writes ---- *)

let test_no_cache_bypass () =
  with_dir (fun dir ->
      let computed = Atomic.make 0 in
      let exp = toy ~computed () in
      let cache = Cache.create ~root:dir in
      let cells = List.length toy_grid in
      let cached_out, _ = render_run ~cache exp in
      Alcotest.(check int) "cold run computes every cell" cells (Atomic.get computed);
      let entries = ls_files dir in
      Alcotest.(check int) "one entry per cell" cells (List.length entries);
      (* Poke a hole so a write-through would be visible. *)
      Cache.remove cache (toy_key ());
      let bypass_out, report = render_run exp in
      Alcotest.(check int) "bypass recomputes despite warm cache" (2 * cells)
        (Atomic.get computed);
      Alcotest.(check int) "bypass reports misses only" cells report.Sink.misses;
      Alcotest.(check int) "hole not refilled" (cells - 1) (List.length (ls_files dir));
      Alcotest.(check string) "same report either way" cached_out bypass_out)

(* ---- runner: killed sweep resumes from checkpointed cells ---- *)

let test_resume_after_failure () =
  with_dir (fun dir ->
      with_dir (fun dir_fresh ->
          let computed = Atomic.make 0 in
          let broken = ref true in
          let exp = toy ~fail_on:(fun n -> !broken && n = 4) ~computed () in
          let cache = Cache.create ~root:dir in
          (* First attempt dies on cell n=4 — after the rest of the batch
             has drained and checkpointed (the map_batch_timed contract). *)
          (match render_run ~cache ~num_domains:2 exp with
          | _ -> Alcotest.fail "injected failure did not propagate"
          | exception Runner.Cell_failed { exp_id; params; message } ->
            (* The wrapper names the cell that died: experiment id, the
               canonical parameter point, and the original exception. *)
            Alcotest.(check string) "failure names its experiment" "toy" exp_id;
            Alcotest.(check string) "failure names its cell" "n=i:4" params;
            Alcotest.(check string) "registered printer format"
              (Printf.sprintf "cell toy[n=i:4] failed: %s" message)
              (Printexc.to_string (Runner.Cell_failed { exp_id; params; message }));
            Alcotest.(check bool) "original exception text kept" true
              (String.length message >= 17
              &&
              let rec has i =
                i + 17 <= String.length message
                && (String.sub message i 17 = "injected failure\"" || has (i + 1))
              in
              has 0));
          let cells = List.length toy_grid in
          Alcotest.(check int) "all healthy cells checkpointed" (cells - 1)
            (List.length (ls_files dir));
          Alcotest.(check int) "all healthy cells computed once" (cells - 1)
            (Atomic.get computed);
          (* Restart after the fault clears: only the dead cell recomputes. *)
          broken := false;
          let out_resumed, report = render_run ~cache ~num_domains:2 exp in
          Alcotest.(check int) "resume recomputes only the failed cell" cells
            (Atomic.get computed);
          Alcotest.(check int) "resume reports one miss" 1 report.Sink.misses;
          (* The resumed report is byte-identical to a never-interrupted one. *)
          let out_fresh, _ =
            render_run ~cache:(Cache.create ~root:dir_fresh)
              (toy ~computed:(Atomic.make 0) ())
          in
          Alcotest.(check string) "resumed report byte-identical to fresh" out_fresh
            out_resumed))

(* ---- runner: one batch for many experiments ---- *)

(* A sink that keeps both streams — the text and every row with its
   experiment and canonical parameters — so runs compare on both. *)
let recording_sink () =
  let text = Buffer.create 256 and rows = ref [] in
  ( {
      Sink.text = Buffer.add_string text;
      row = (fun ~exp_id ~params r -> rows := (exp_id, Params.canonical params, r) :: !rows);
      close = ignore;
    },
    fun () -> (Buffer.contents text, List.rev !rows) )

let grid_of ns = List.map (fun n -> Params.v [ ("n", Params.Int n) ]) ns

(* The toy under another id (and title), so two of them share a batch. *)
let named ?fail_on id =
  { (toy ?fail_on ~computed:(Atomic.make 0) ()) with Experiment.id; title = "Toy: " ^ id }

let experiment_seconds_samples () =
  match List.assoc_opt "runner.experiment_seconds" (Bcclb_obs.Metrics.snapshot ()) with
  | Some (Bcclb_obs.Metrics.Histogram h) -> h.Bcclb_obs.Metrics.count
  | _ -> 0

let test_sweep_matches_separate_runs () =
  (* Two experiments with grids of different lengths in one batch: the
     text, the rows and the per-experiment counts equal those of two
     single-experiment runs, and the batch is one experiment_seconds
     sample. *)
  let a = named "toy-a" and b = named "toy-b" in
  let grid_a = grid_of [ 1; 2; 3; 4; 5; 6 ] and grid_b = grid_of [ 7; 8; 9 ] in
  List.iter
    (fun d ->
      let record sweeps =
        let sink, contents = recording_sink () in
        let reports = Runner.run ~num_domains:d ~sink sweeps in
        ( contents (),
          List.map
            (fun (r : Sink.report) ->
              (r.id, r.cells, r.misses, List.map (fun c -> c.Sink.params) r.cell_reports))
            reports )
      in
      let (text_a, rows_a), reports_a = record [ (a, grid_a) ] in
      let (text_b, rows_b), reports_b = record [ (b, grid_b) ] in
      let samples0 = experiment_seconds_samples () in
      let (text, rows), reports = record [ (a, grid_a); (b, grid_b) ] in
      let label = Printf.sprintf "num_domains %d: " d in
      Alcotest.(check int) (label ^ "one experiment_seconds sample per call") 1
        (experiment_seconds_samples () - samples0);
      Alcotest.(check string) (label ^ "text = each experiment alone") (text_a ^ text_b) text;
      Alcotest.(check bool) (label ^ "rows = each experiment alone") true
        (rows = rows_a @ rows_b);
      Alcotest.(check bool) (label ^ "reports = each experiment alone") true
        (reports = reports_a @ reports_b))
    [ 1; 2 ]

let test_sweep_failure () =
  (* A failed cell: the batch drains and checkpoints every healthy cell,
     the experiments before the failing one render, nothing from it on
     does, and Cell_failed names the lowest failing cell of the batch —
     here n = 4 of "toy-bad", ahead of n = 1 of the later "toy-worse". *)
  let run_failing cache sweeps =
    let sink, contents = recording_sink () in
    match Runner.run ~cache ~num_domains:2 ~sink sweeps with
    | _ -> Alcotest.fail "injected failure did not propagate"
    | exception Runner.Cell_failed { exp_id; params; _ } ->
      (exp_id ^ "[" ^ params ^ "]", contents ())
  in
  let all_hits cache exp =
    match Runner.run ~cache ~sink:Sink.null [ (exp, toy_grid) ] with
    | [ r ] -> r.Sink.hits = r.Sink.cells
    | _ -> false
  in
  let bad = named ~fail_on:(fun n -> n = 4) "toy-bad" in
  with_dir (fun dir ->
      (* The first experiment fails: nothing renders, yet the second
         experiment's cells are all in the cache afterwards. *)
      let cache = Cache.create ~root:dir in
      let good = named "toy-good" in
      let failed, (text, rows) = run_failing cache [ (bad, toy_grid); (good, toy_grid) ] in
      Alcotest.(check string) "Cell_failed names the cell" "toy-bad[n=i:4]" failed;
      Alcotest.(check string) "nothing rendered" "" text;
      Alcotest.(check int) "no rows" 0 (List.length rows);
      Alcotest.(check bool) "the later experiment's cells are cached" true (all_hits cache good));
  with_dir (fun dir ->
      let cache = Cache.create ~root:dir in
      let first = named "toy-first" and worse = named ~fail_on:(fun n -> n = 1) "toy-worse" in
      let failed, (text, rows) =
        run_failing cache [ (first, toy_grid); (bad, toy_grid); (worse, toy_grid) ]
      in
      let sink, contents = recording_sink () in
      ignore (Runner.run ~sink [ (first, toy_grid) ]);
      let text_first, rows_first = contents () in
      Alcotest.(check string) "lowest failing index wins" "toy-bad[n=i:4]" failed;
      Alcotest.(check string) "the experiment before it renders" text_first text;
      Alcotest.(check bool) "and only its rows" true (rows = rows_first))

(* ---- runner: each cell counts its own engine runs ---- *)

let engine_runs k =
  let spec =
    { Bcclb_engine.Engine.n = 1;
      rounds = 1;
      step = (fun () ~round:_ ~vertex:_ ~inbox:_ -> ((), ()));
      exchange = (fun ~round:_ ~prev _ -> prev) }
  in
  for _ = 1 to k do
    ignore (Bcclb_engine.Engine.run spec ~init_state:(fun _ -> ()) ~init_inbox:(fun _ -> ()))
  done

let test_executions_per_cell () =
  (* Cell n makes 100n engine runs: half, then a wait until both cells
     have started (at most 5 s), then the other half — so on two domains
     each cell runs while the other does. *)
  let started = Atomic.make 0 in
  let exp =
    { (toy ~computed:(Atomic.make 0) ()) with
      Experiment.id = "toy-runs";
      default_grid = List.map (fun n -> Params.v [ ("n", Params.Int n) ]) [ 1; 2 ];
      cell =
        (fun p ->
          let n = Params.int p "n" in
          engine_runs (50 * n);
          Atomic.incr started;
          let t0 = Unix.gettimeofday () in
          while Atomic.get started < 2 && Unix.gettimeofday () -. t0 < 5. do
            Domain.cpu_relax ()
          done;
          engine_runs (50 * n);
          [ Experiment.row [ ("n", Params.Int n); ("sq", Params.Int (n * n)) ] ]) }
  in
  let _, report = render_run ~num_domains:2 exp in
  Alcotest.(check (list int)) "executions per cell" [ 100; 200 ]
    (List.map (fun (c : Sink.cell_report) -> c.Sink.executions) report.Sink.cell_reports)

(* ---- JSON \uXXXX surrogate pairs (RFC 8259 §7) ---- *)

module Json = Bcclb_harness.Json

let test_json_surrogate_pairs () =
  (* 😀 combines to U+1F600 (😀), UTF-8 f0 9f 98 80. *)
  (match Json.of_string {|"\ud83d\ude00"|} with
  | Json.Str s -> Alcotest.(check string) "pair combines to U+1F600" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "parsed to a non-string");
  (* The printer emits non-BMP text as raw UTF-8, so a round trip
     through to_string/of_string is the identity. *)
  let j = Json.Obj [ ("emoji", Json.Str "ok \xf0\x9f\x98\x80"); ("n", Json.Int 3) ] in
  Alcotest.(check bool) "non-BMP round trip" true (Json.of_string (Json.to_string j) = j);
  (* BMP escapes are unchanged by the fix. *)
  (match Json.of_string {|"\u00e9A"|} with
  | Json.Str s -> Alcotest.(check string) "BMP escapes" "\xc3\xa9A" s
  | _ -> Alcotest.fail "parsed to a non-string");
  (* Unpaired or ill-formed surrogates are parse errors, not mojibake. *)
  List.iter
    (fun s ->
      match Json.of_string s with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "accepted malformed %s" s)
    [ {|"\ud83d"|}; {|"\ud83dx"|}; {|"\ud83dA"|}; {|"\ude00"|} ]

(* ---- registry: lookup, typo suggestions, JSON catalogue ---- *)

module Registry = Bcclb_harness.Registry

let test_registry_suggest () =
  Alcotest.(check bool) "det-frontier is registered" true
    (Option.is_some (Registry.find "det-frontier"));
  (* Plausible typos resolve to the new experiment's id. *)
  List.iter
    (fun typo ->
      Alcotest.(check (option string))
        (Printf.sprintf "suggest %S" typo)
        (Some "det-frontier") (Registry.suggest typo))
    [ "det-frontie"; "det_frontier"; "Det-Frontier"; "dat-frontier" ];
  (* Garbage stays unsuggested rather than snapping to something random. *)
  Alcotest.(check (option string)) "no suggestion for garbage" None
    (Registry.suggest "zzzzzzzzzzzzzz")

let test_registry_index_json () =
  let catalogue =
    match Registry.index_json () with
    | Json.List entries -> entries
    | _ -> Alcotest.fail "index_json is not a list"
  in
  Alcotest.(check int) "one entry per experiment" (List.length Registry.all)
    (List.length catalogue);
  let field name = function
    | Json.Obj kvs -> List.assoc_opt name kvs
    | _ -> None
  in
  let e15 =
    match
      List.find_opt (fun e -> field "id" e = Some (Json.Str "det-frontier")) catalogue
    with
    | Some e -> e
    | None -> Alcotest.fail "det-frontier missing from the catalogue"
  in
  (match field "n_range" e15 with
  | Some (Json.List [ Json.Int lo; Json.Int hi ]) ->
    Alcotest.(check bool) "n_range is a sane pair" true (0 < lo && lo < hi);
    Alcotest.(check (option bool)) "flat n_min agrees" (Some true)
      (Option.map (fun j -> j = Json.Int lo) (field "n_min" e15));
    Alcotest.(check (option bool)) "flat n_max agrees" (Some true)
      (Option.map (fun j -> j = Json.Int hi) (field "n_max" e15))
  | _ -> Alcotest.fail "det-frontier lacks a two-int n_range");
  (* The whole catalogue must survive a print/parse round trip — this is
     what `experiments list --json` ships to sweep scripts. *)
  let j = Registry.index_json () in
  Alcotest.(check bool) "catalogue round-trips through the printer" true
    (Json.of_string (Json.to_string ~pretty:true j) = j)

let suites =
  [ Alcotest.test_case "params canonical encoding" `Quick test_params_canonical;
    Alcotest.test_case "registry suggests det-frontier for typos" `Quick
      test_registry_suggest;
    Alcotest.test_case "registry catalogue carries n_range" `Quick
      test_registry_index_json;
    Alcotest.test_case "cache round-trip" `Quick test_cache_roundtrip;
    Alcotest.test_case "corrupted entries recompute" `Quick test_cache_corruption;
    Alcotest.test_case "cache keys ignore domain count" `Quick test_key_domain_independence;
    Alcotest.test_case "--no-cache bypasses reads and writes" `Quick test_no_cache_bypass;
    Alcotest.test_case "cells count only their own runs at 2 domains" `Quick
      test_executions_per_cell;
    Alcotest.test_case "killed sweep resumes from checkpoints" `Quick
      test_resume_after_failure;
    Alcotest.test_case "one batch over two experiments = separate runs" `Quick
      test_sweep_matches_separate_runs;
    Alcotest.test_case "a failed cell renders the experiments before it" `Quick
      test_sweep_failure ]

let qsuites =
  let open QCheck2 in
  [ Test.make ~name:"canonical encoding is injective on int grids" ~count:100
      Gen.(
        pair
          (list_size (0 -- 4) (pair (string_size ~gen:(char_range 'a' 'z') (1 -- 3)) small_int))
          (list_size (0 -- 4) (pair (string_size ~gen:(char_range 'a' 'z') (1 -- 3)) small_int)))
      (fun (xs, ys) ->
        let dedup l =
          List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) l
          |> List.map (fun (k, v) -> (k, Params.Int v))
        in
        let px = Params.v (dedup xs) and py = Params.v (dedup ys) in
        String.equal (Params.canonical px) (Params.canonical py) = Params.equal px py) ]
