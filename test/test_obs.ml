(* The observability layer: histogram bucket assignment and quantile
   estimation, the deterministic shard-merge contract (metric totals
   identical for 1 and 4 domains), span nesting/ordering in the JSONL
   export, and a round-trip parse of the Chrome trace_event file.

   Tests reset the registry between cases, which is safe here because
   alcotest cases run sequentially and no pool worker is alive between
   them. Metric names are test-local ("test.*") so these cases never
   collide with the production series other suites touch. *)

module Obs = Bcclb_obs
module Metrics = Bcclb_obs.Metrics
module Trace = Bcclb_obs.Trace
module Pool = Bcclb_engine.Pool
module Json = Bcclb_harness.Json

let temp_counter = ref 0

let fresh_path ext =
  incr temp_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "bcclb_obs_test.%d.%d%s" (Unix.getpid ()) !temp_counter ext)

let find_metric name =
  match List.assoc_opt name (Metrics.snapshot ()) with
  | Some v -> v
  | None -> Alcotest.failf "metric %s not in snapshot" name

let get_hist name =
  match find_metric name with
  | Metrics.Histogram h -> h
  | _ -> Alcotest.failf "metric %s is not a histogram" name

(* ---- histogram buckets and quantiles ---- *)

let test_histogram_buckets () =
  Metrics.reset ();
  let h = Metrics.Histogram.v ~buckets:[| 0.001; 0.01; 0.1; 1.0 |] "test.hist" in
  (* One observation per region: each finite bucket plus overflow, with
     boundary values landing in the bucket whose bound they equal. *)
  List.iter (Metrics.Histogram.observe h) [ 0.0005; 0.001; 0.05; 0.5; 2.5 ];
  let s = get_hist "test.hist" in
  Alcotest.(check (array (float 0.0))) "bounds as registered" [| 0.001; 0.01; 0.1; 1.0 |] s.Metrics.le;
  Alcotest.(check (array int)) "bucket counts (last = overflow)" [| 2; 0; 1; 1; 1 |] s.Metrics.counts;
  Alcotest.(check int) "count" 5 s.Metrics.count;
  Alcotest.(check (float 1e-9)) "sum" 3.0515 s.Metrics.sum;
  Alcotest.(check (float 1e-9)) "mean" (3.0515 /. 5.0) (Metrics.hist_mean s)

let test_histogram_quantiles () =
  Metrics.reset ();
  let h = Metrics.Histogram.v ~buckets:[| 1.0; 2.0; 4.0 |] "test.quant" in
  (* 4 observations in (0,1], 4 in (1,2]: p50 sits exactly at the first
     bucket's upper edge, p75 halfway through the second. *)
  for _ = 1 to 4 do
    Metrics.Histogram.observe h 0.5
  done;
  for _ = 1 to 4 do
    Metrics.Histogram.observe h 1.5
  done;
  let s = get_hist "test.quant" in
  Alcotest.(check (float 1e-9)) "p50 = edge of first bucket" 1.0 (Metrics.quantile s 0.5);
  Alcotest.(check (float 1e-9)) "p75 interpolates second bucket" 1.5 (Metrics.quantile s 0.75);
  Alcotest.(check (float 1e-9)) "p0 = lower edge" 0.0 (Metrics.quantile s 0.0);
  Metrics.Histogram.observe h 100.0;
  let s = get_hist "test.quant" in
  Alcotest.(check (float 1e-9)) "overflow clamps to last finite bound" 4.0 (Metrics.quantile s 1.0);
  Alcotest.(check (float 1e-9)) "empty histogram quantile is 0" 0.0
    (Metrics.quantile { s with Metrics.counts = Array.map (fun _ -> 0) s.Metrics.counts; count = 0 } 0.5)

let test_registration_contract () =
  Metrics.reset ();
  let a = Metrics.Counter.v "test.idem" in
  let b = Metrics.Counter.v "test.idem" in
  Metrics.Counter.incr a;
  Metrics.Counter.add b 2;
  Alcotest.(check int) "idempotent registration shares the series" 3 (Metrics.Counter.total a);
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Metrics: test.idem re-registered with a different kind") (fun () ->
      ignore (Metrics.Gauge.v "test.idem"));
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Metrics.Counter.add: negative increment") (fun () ->
      Metrics.Counter.add a (-1));
  let g = Metrics.Gauge.v "test.gauge" in
  Metrics.Gauge.max g 3.0;
  Metrics.Gauge.max g 1.0;
  Alcotest.(check (float 0.0)) "gauge keeps the high-water mark" 3.0 (Metrics.Gauge.read g)

(* ---- deterministic shard merge across domain counts ---- *)

let run_sharded ~num_domains =
  Metrics.reset ();
  let c = Metrics.Counter.v "test.shard.counter" in
  let h = Metrics.Histogram.v ~buckets:[| 1.0; 10.0; 100.0 |] "test.shard.hist" in
  let results =
    Pool.map_batch ~num_domains
      (fun i ->
        Metrics.Counter.add c i;
        Metrics.Histogram.observe h (float_of_int i);
        i * i)
      (Array.init 64 Fun.id)
  in
  let s = get_hist "test.shard.hist" in
  (results, Metrics.Counter.total c, (s.Metrics.counts, s.Metrics.count, s.Metrics.sum))

let test_shard_merge_deterministic () =
  let r1, total1, hist1 = run_sharded ~num_domains:1 in
  let r4, total4, hist4 = run_sharded ~num_domains:4 in
  Alcotest.(check (array int)) "map_batch results identical" r1 r4;
  Alcotest.(check int) "counter totals identical for 1 and 4 domains" total1 total4;
  Alcotest.(check int) "counter total exact" (64 * 63 / 2) total1;
  let c1, n1, s1 = hist1 and c4, n4, s4 = hist4 in
  Alcotest.(check (array int)) "histogram bucket counts identical" c1 c4;
  Alcotest.(check int) "histogram observation counts identical" n1 n4;
  Alcotest.(check (float 1e-9)) "histogram sums identical" s1 s4;
  Alcotest.(check int) "every task observed once" 64 n1

(* ---- absorbing a worker process's snapshot ---- *)

let test_absorb_merges_foreign_snapshot () =
  Metrics.reset ();
  let c = Metrics.Counter.v "test.absorb.counter" in
  Metrics.Counter.add c 5;
  let g = Metrics.Gauge.v "test.absorb.gauge" in
  Metrics.Gauge.max g 2.0;
  let h = Metrics.Histogram.v ~buckets:[| 1.0; 10.0 |] "test.absorb.hist" in
  Metrics.Histogram.observe h 0.5;
  (* A snapshot as a worker process would ship it home: known series plus
     one this process has never registered. *)
  let foreign =
    [ ("test.absorb.counter", Metrics.Counter 7);
      ("test.absorb.gauge", Metrics.Gauge 1.5);
      ( "test.absorb.hist",
        Metrics.Histogram
          { Metrics.le = [| 1.0; 10.0 |]; counts = [| 1; 2; 1 |]; sum = 29.5; count = 4 } );
      ("test.absorb.fresh", Metrics.Counter 3) ]
  in
  Metrics.absorb foreign;
  Metrics.absorb foreign;
  (* Counters and histogram buckets add (twice absorbed = twice counted —
     absorb is a merge, not an idempotent upsert); gauges take the max. *)
  Alcotest.(check int) "counter totals add" (5 + 7 + 7) (Metrics.Counter.total c);
  Alcotest.(check (float 0.0)) "gauge keeps the local high-water mark" 2.0
    (Metrics.Gauge.read g);
  let s = get_hist "test.absorb.hist" in
  Alcotest.(check (array int)) "bucket counts add" [| 3; 4; 2 |] s.Metrics.counts;
  Alcotest.(check int) "observation counts add" 9 s.Metrics.count;
  Alcotest.(check (float 1e-9)) "sums add" (0.5 +. 29.5 +. 29.5) s.Metrics.sum;
  (match find_metric "test.absorb.fresh" with
  | Metrics.Counter 6 -> ()
  | v ->
    Alcotest.failf "unseen series registered wrong: %s"
      (match v with
      | Metrics.Counter n -> Printf.sprintf "Counter %d" n
      | Metrics.Gauge x -> Printf.sprintf "Gauge %g" x
      | Metrics.Histogram _ -> "Histogram"));
  (* Kind clashes are programming errors, same as at registration. *)
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Metrics: test.absorb.counter re-registered with a different kind")
    (fun () -> Metrics.absorb [ ("test.absorb.counter", Metrics.Gauge 1.0) ])

(* ---- deltas: what dist workers ship between leases ---- *)

let test_delta_partitions_the_timeline () =
  Metrics.reset ();
  let c = Metrics.Counter.v "test.delta.counter" in
  let h = Metrics.Histogram.v ~buckets:[| 1.0 |] "test.delta.hist" in
  let s0 = Metrics.snapshot () in
  Metrics.Counter.add c 3;
  Metrics.Histogram.observe h 0.5;
  let s1 = Metrics.snapshot () in
  Metrics.Counter.add c 4;
  Metrics.Histogram.observe h 2.0;
  let g = Metrics.Gauge.v "test.delta.gauge" in
  Metrics.Gauge.max g 1.25;
  let s2 = Metrics.snapshot () in
  (* The per-segment deltas carry exactly each segment's activity... *)
  let d01 = Metrics.delta ~baseline:s0 s1 in
  let d12 = Metrics.delta ~baseline:s1 s2 in
  Alcotest.(check bool) "first segment's counter" true
    (List.assoc_opt "test.delta.counter" d01 = Some (Metrics.Counter 3));
  Alcotest.(check bool) "second segment's counter" true
    (List.assoc_opt "test.delta.counter" d12 = Some (Metrics.Counter 4));
  (match List.assoc_opt "test.delta.hist" d12 with
  | Some (Metrics.Histogram hd) ->
    Alcotest.(check (array int)) "hist delta buckets" [| 0; 1 |] hd.Metrics.counts;
    Alcotest.(check int) "hist delta count" 1 hd.Metrics.count;
    Alcotest.(check (float 1e-9)) "hist delta sum" 2.0 hd.Metrics.sum
  | _ -> Alcotest.fail "histogram missing from second delta");
  (* ...a quiet segment ships nothing for the quiet series... *)
  let d22 = Metrics.delta ~baseline:s2 s2 in
  Alcotest.(check bool) "self-delta drops unchanged counters" true
    (List.assoc_opt "test.delta.counter" d22 = None);
  (* ...and absorbing every segment's delta equals absorbing one final
     snapshot — the partition-of-timeline property the coordinator's
     live merge relies on (so streaming can never double-count). *)
  Metrics.reset ();
  Metrics.absorb d01;
  Metrics.absorb d12;
  let via_deltas = Metrics.snapshot () in
  Metrics.reset ();
  Metrics.absorb (Metrics.delta ~baseline:s0 s2);
  let via_final = Metrics.snapshot () in
  Alcotest.(check bool) "sum of deltas = one final delta" true (via_deltas = via_final);
  (match List.assoc_opt "test.delta.counter" via_deltas with
  | Some (Metrics.Counter 7) -> ()
  | _ -> Alcotest.fail "delta stream lost counter increments");
  (* A counter running backwards means the baseline is not from this
     timeline — refused loudly rather than shipped as garbage. *)
  Alcotest.check_raises "backwards counter rejected"
    (Invalid_argument "Metrics.delta: counter went backwards: test.delta.counter")
    (fun () -> ignore (Metrics.delta ~baseline:s2 s1))

(* ---- span export: JSONL nesting/ordering, Chrome round-trip ---- *)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc = match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let int_field line obj k =
  match Option.bind (Json.member k obj) Json.to_int_opt with
  | Some v -> v
  | None -> Alcotest.failf "missing int field %s in %s" k line

let str_field line obj k =
  match Option.bind (Json.member k obj) Json.to_str_opt with
  | Some v -> v
  | None -> Alcotest.failf "missing string field %s in %s" k line

let with_trace_files f =
  let file = fresh_path ".trace.json" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ file; Trace.jsonl_path file ])
    (fun () -> f file)

let test_span_jsonl () =
  with_trace_files @@ fun file ->
  Trace.start ~file ();
  Alcotest.(check bool) "trace active" true (Trace.enabled ());
  let result =
    Obs.span "outer" ~attrs:[ ("n", "8") ] (fun () ->
        Obs.span "inner.a" (fun () -> ignore (Sys.opaque_identity 1));
        Obs.span "inner.b" (fun () -> 41 + 1))
  in
  Alcotest.(check int) "span is transparent" 42 result;
  Alcotest.(check int) "three spans recorded" 3 (Trace.event_count ());
  Trace.stop ();
  Alcotest.(check bool) "trace inactive after stop" false (Trace.enabled ());
  let lines = read_lines (Trace.jsonl_path file) in
  Alcotest.(check int) "one JSONL line per span" 3 (List.length lines);
  let parsed = List.map (fun l -> (l, Json.of_string l)) lines in
  let by_name name =
    match List.find_opt (fun (l, o) -> str_field l o "name" = name) parsed with
    | Some (l, o) -> (l, o)
    | None -> Alcotest.failf "no JSONL record named %s" name
  in
  let louter, outer = by_name "outer" in
  let la, a = by_name "inner.a" in
  let lb, b = by_name "inner.b" in
  Alcotest.(check int) "outer at depth 0" 0 (int_field louter outer "depth");
  Alcotest.(check int) "inner.a at depth 1" 1 (int_field la a "depth");
  Alcotest.(check int) "inner.b at depth 1" 1 (int_field lb b "depth");
  Alcotest.(check string) "attrs survive export" "8"
    (match Json.member "attrs" outer with
    | Some attrs -> str_field louter attrs "n"
    | None -> Alcotest.fail "outer has no attrs");
  (* Ordering: lines sorted by start_ns; children start no earlier than
     the parent and end no later. *)
  let starts = List.map (fun (l, o) -> int_field l o "start_ns") parsed in
  Alcotest.(check bool) "lines sorted by start_ns" true (List.sort compare starts = starts);
  let span_end l o = int_field l o "start_ns" + int_field l o "dur_ns" in
  Alcotest.(check bool) "children nest inside the parent" true
    (int_field louter outer "start_ns" <= int_field la a "start_ns"
    && span_end la a <= span_end lb b
    && span_end lb b <= span_end louter outer);
  Alcotest.(check bool) "siblings are ordered" true (span_end la a <= int_field lb b "start_ns")

let test_chrome_trace_roundtrip () =
  with_trace_files @@ fun file ->
  Trace.start ~file ();
  Obs.span "phase" (fun () -> Obs.span "step" ~attrs:[ ("k", "v\"q") ] (fun () -> ()));
  Trace.stop ();
  let doc = Json.of_string (Bcclb_harness.Fsutil.read_file file) in
  Alcotest.(check (option string)) "display unit" (Some "ms")
    (Option.bind (Json.member "displayTimeUnit" doc) Json.to_str_opt);
  let events =
    match Option.bind (Json.member "traceEvents" doc) Json.to_list_opt with
    | Some evs -> evs
    | None -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check int) "one complete event per span" 2 (List.length events);
  List.iter
    (fun ev ->
      Alcotest.(check (option string)) "complete events" (Some "X")
        (Option.bind (Json.member "ph" ev) Json.to_str_opt);
      List.iter
        (fun k ->
          if Option.bind (Json.member k ev) Json.to_float_opt = None then
            Alcotest.failf "event missing numeric %s" k)
        [ "ts"; "dur"; "pid"; "tid" ])
    events;
  let names =
    List.filter_map (fun ev -> Option.bind (Json.member "name" ev) Json.to_str_opt) events
  in
  Alcotest.(check (list string)) "names survive the round-trip" [ "phase"; "step" ]
    (List.sort compare names);
  (* The quoted attr value exercises the trace writer's JSON escaping
     against the harness parser. *)
  let step =
    List.find (fun ev -> Option.bind (Json.member "args" ev) (Json.member "k") <> None) events
  in
  Alcotest.(check (option string)) "escaped attr round-trips" (Some "v\"q")
    (Option.bind (Json.member "args" step) (Json.member "k") |> Fun.flip Option.bind Json.to_str_opt)

let test_span_disabled_and_exceptional () =
  (* No trace active: spans are transparent pass-throughs. *)
  Alcotest.(check bool) "disabled by default" false (Trace.enabled ());
  Alcotest.(check int) "no buffering when disabled" 0 (Trace.event_count ());
  Alcotest.(check int) "transparent when disabled" 7 (Obs.span "noop" (fun () -> 7));
  with_trace_files @@ fun file ->
  Trace.start ~file ();
  (try Obs.span "boom" (fun () -> failwith "kept") with Failure _ -> ());
  Alcotest.(check int) "exceptional spans still recorded" 1 (Trace.event_count ());
  Trace.stop ()

(* ---- empty histograms in the manifest: 0, never NaN ---- *)

let test_empty_histogram_manifest () =
  Metrics.reset ();
  (* Registered, never observed: every derived value (mean, quantiles)
     divides by zero somewhere, and Json writes a non-finite float as
     null, so the guard must make each of them a plain 0. *)
  ignore (Metrics.Histogram.v "test.manifest.silent");
  let s = get_hist "test.manifest.silent" in
  List.iter
    (fun q ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "quantile %g of empty histogram" q) 0.0
        (Metrics.quantile s q))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ];
  Alcotest.(check (float 0.0)) "mean of empty histogram" 0.0 (Metrics.hist_mean s);
  let path = fresh_path ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Bcclb_harness.Sink.write_manifest ~path ~cache_root:None ~num_domains:1 [];
      let manifest = Json.of_string (String.trim (Bcclb_harness.Fsutil.read_file path)) in
      let hist =
        match
          Option.bind (Json.member "metrics" manifest) (Json.member "test.manifest.silent")
        with
        | Some h -> h
        | None -> Alcotest.fail "silent histogram missing from the manifest"
      in
      List.iter
        (fun k ->
          Alcotest.(check (option (float 0.0)))
            (k ^ " is the number 0") (Some 0.0)
            (Option.bind (Json.member k hist) Json.to_float_opt))
        [ "mean"; "p50"; "p90"; "p99" ])

(* ---- cross-process trace merge: context, drain, ingest ---- *)

let test_trace_context_and_merge () =
  with_trace_files @@ fun file ->
  Alcotest.(check (option reject)) "no context when disabled" None (Trace.context ());
  (* Worker side: collect mode buffers raw-clock events and drains them
     with the pid stamped; stop discards without writing. *)
  Trace.start_collect ~trace_id:"trace-under-test" ();
  Alcotest.(check (option string)) "collect mode exposes the trace id"
    (Some "trace-under-test") (Trace.trace_id ());
  let inner_ctx = ref None in
  Obs.span "remote.outer" (fun () -> inner_ctx := Trace.context ());
  (match !inner_ctx with
  | Some { Trace.trace_id = id; parent_span } ->
    Alcotest.(check string) "context carries the trace id" "trace-under-test" id;
    Alcotest.(check bool) "context points at the open span" true (parent_span <> 0)
  | None -> Alcotest.fail "no context inside a span");
  Obs.span "remote.second" (fun () -> ());
  let shipped = Trace.drain () in
  Alcotest.(check int) "drain removes both spans" 2 (List.length shipped);
  Alcotest.(check int) "drain empties the buffer" 0 (Trace.event_count ());
  List.iter
    (fun (ev : Trace.event) ->
      Alcotest.(check int) "drain stamps this pid" (Unix.getpid ()) ev.Trace.pid)
    shipped;
  Trace.stop ();
  (* Coordinator side: a file trace ingests the shipment; foreign events
     keep their pid and land at clamped non-negative timestamps. *)
  Trace.start ~trace_id:"trace-under-test" ~file ();
  Obs.span "local.sweep" (fun () -> ());
  Trace.ingest shipped;
  Alcotest.(check int) "local + ingested events" 3 (Trace.event_count ());
  Trace.stop ();
  let lines = read_lines (Trace.jsonl_path file) in
  Alcotest.(check int) "all three spans exported" 3 (List.length lines);
  List.iter
    (fun l ->
      let o = Json.of_string l in
      let name = str_field l o "name" in
      let pid = int_field l o "pid" in
      Alcotest.(check bool) "exported ts non-negative" true (int_field l o "start_ns" >= 0);
      Alcotest.(check int)
        (Printf.sprintf "%s keeps its recording pid" name)
        (Unix.getpid ()) pid)
    lines

let suites =
  [ Alcotest.test_case "histogram bucket assignment" `Quick test_histogram_buckets;
    Alcotest.test_case "quantile interpolation and clamping" `Quick test_histogram_quantiles;
    Alcotest.test_case "registration is idempotent and kind-checked" `Quick
      test_registration_contract;
    Alcotest.test_case "shard merge deterministic across domain counts" `Quick
      test_shard_merge_deterministic;
    Alcotest.test_case "absorb merges a foreign snapshot by integer sum" `Quick
      test_absorb_merges_foreign_snapshot;
    Alcotest.test_case "delta partitions the metric timeline" `Quick
      test_delta_partitions_the_timeline;
    Alcotest.test_case "span nesting and ordering in JSONL" `Quick test_span_jsonl;
    Alcotest.test_case "Chrome trace round-trips through the JSON parser" `Quick
      test_chrome_trace_roundtrip;
    Alcotest.test_case "spans are transparent when disabled, recorded on raise" `Quick
      test_span_disabled_and_exceptional;
    Alcotest.test_case "empty histograms expose as 0, never NaN" `Quick
      test_empty_histogram_manifest;
    Alcotest.test_case "trace context, drain and ingest merge pid lanes" `Quick
      test_trace_context_and_merge ]

let qsuites =
  let open QCheck2 in
  [ Test.make ~name:"quantile is monotone and bounded by the bucket range" ~count:100
      Gen.(list_size (1 -- 50) (float_bound_exclusive 200.0))
      (fun obs ->
        Metrics.reset ();
        let h = Metrics.Histogram.v ~buckets:[| 1.0; 10.0; 100.0 |] "test.qcheck.hist" in
        List.iter (Metrics.Histogram.observe h) obs;
        let s =
          match List.assoc_opt "test.qcheck.hist" (Metrics.snapshot ()) with
          | Some (Metrics.Histogram s) -> s
          | _ -> assert false
        in
        let qs = List.map (Metrics.quantile s) [ 0.0; 0.25; 0.5; 0.75; 1.0 ] in
        let rec monotone = function
          | a :: (b :: _ as rest) -> a <= b && monotone rest
          | _ -> true
        in
        s.Metrics.count = List.length obs
        && monotone qs
        && List.for_all (fun q -> q >= 0.0 && q <= 100.0) qs) ]
