(* The dist subsystem. Three layers of coverage:

   - Wire: frame round-trips (property-tested across payload sizes,
     including empty and >64 KiB), and rejection of truncation, bit
     flips, version skew and stray magic — the codec is the safety
     boundary in front of Marshal.
   - Faults: spec parsing and the attempt-0-only contract.
   - End to end: real coordinator, real worker processes (this very
     test binary, re-exec'd — see [worker_main] and the hook at the top
     of test_main.ml), each over the socketpair it was spawned with,
     whose fd hygiene is tested on its own. The recovery
     cases inject crashes and stalls mid-sweep and assert the sweep
     still completes with a report byte-identical to the in-process
     Domains backend. *)

module Dist = Bcclb_dist
module Wire = Bcclb_dist.Wire
module Faults = Bcclb_dist.Faults
module Msg = Bcclb_dist.Msg
module H = Bcclb_harness
module Obs = Bcclb_obs
module Experiment = H.Experiment
module Params = H.Params

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Current value of a registry counter (0 when unregistered); the e2e
   tests assert on before/after differences because the registry is
   cumulative across the whole test binary. *)
let counter_value name =
  List.fold_left
    (fun acc (n, v) ->
      match v with Obs.Metrics.Counter c when String.equal n name -> c | _ -> acc)
    0 (Obs.Metrics.snapshot ())

(* ---- the toy experiment served by re-exec'd workers ----

   Pure and self-contained: the worker process resolves the same value
   from its own copy of this module, so coordinator and workers agree
   by construction. *)

let toy_grid = List.map (fun n -> Params.v [ ("n", Params.Int n) ]) [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let toy =
  {
    Experiment.id = "dist-toy";
    title = "Dist toy: cubes";
    doc = "test fixture";
    version = 1;
    tables =
      [ { Experiment.name = ""; columns = [ Experiment.icol "n"; Experiment.icol "cube" ] } ];
    notes = [];
    default_grid = toy_grid;
    grid_of_ns = None;
    n_range = None;
    cell =
      (fun p ->
        let n = Params.int p "n" in
        if n = 0 then failwith "cell zero always fails";
        [ Experiment.row [ ("n", Params.Int n); ("cube", Params.Int (n * n * n)) ] ]);
  }

(* A second experiment the workers serve, so one session can carry a
   sweep over two. *)
let toy_sq =
  {
    toy with
    Experiment.id = "dist-toy-sq";
    title = "Dist toy: squares";
    tables =
      [ { Experiment.name = ""; columns = [ Experiment.icol "n"; Experiment.icol "sq" ] } ];
    default_grid = List.map (fun n -> Params.v [ ("n", Params.Int n) ]) [ 3; 5; 7 ];
    cell =
      (fun p ->
        let n = Params.int p "n" in
        [ Experiment.row [ ("n", Params.Int n); ("sq", Params.Int (n * n)) ] ]);
  }

let resolve id = List.find_opt (fun (e : Experiment.t) -> String.equal e.id id) [ toy; toy_sq ]

(* What the re-exec'd test binary runs instead of alcotest when its first
   argument is [worker_arg] (test_main checks before anything else). *)
let worker_arg = "dist-worker"
let skewed_arg = "skewed"

let worker_main () =
  (* A skewed worker's fingerprint cannot match the coordinator's: the
     override is set in the child only, so the coordinator keeps its own
     executable digest. *)
  if Array.mem skewed_arg Sys.argv then Unix.putenv Msg.fingerprint_env "deadbeef";
  Dist.Worker.main ~resolve ()

let spawn = Dist.Backend.spawn_argv [| Sys.executable_name; worker_arg |]
let spawn_skewed = Dist.Backend.spawn_argv [| Sys.executable_name; worker_arg; skewed_arg |]

(* ---- scratch dirs (as in test_harness) ---- *)

let temp_counter = ref 0

let fresh_dir () =
  incr temp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bcclb_dist_test.%d.%d" (Unix.getpid ()) !temp_counter)
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

(* ---- wire: deterministic rejection cases ---- *)

let check_decode what expected s =
  let got =
    match Wire.decode s with
    | Ok _ -> "ok"
    | Error e -> Wire.error_to_string e
  in
  Alcotest.(check string) what (Wire.error_to_string expected) got

let test_wire_rejections () =
  let frame = Wire.encode "hello, broadcast congested clique" in
  (match Wire.decode frame with
  | Ok p -> Alcotest.(check string) "round-trip" "hello, broadcast congested clique" p
  | Error e -> Alcotest.fail (Wire.error_to_string e));
  (* Truncation at every boundary class: inside the header, inside the
     payload, and the empty string. *)
  check_decode "empty string" Wire.Truncated "";
  check_decode "cut header" Wire.Truncated (String.sub frame 0 (Wire.header_size - 1));
  check_decode "cut payload" Wire.Truncated (String.sub frame 0 (String.length frame - 1));
  check_decode "trailing bytes" (Wire.Trailing 3) (frame ^ "xyz");
  (* One flipped payload bit must flunk the CRC. *)
  let flipped = Bytes.of_string frame in
  Bytes.set flipped (Wire.header_size + 2)
    (Char.chr (Char.code (Bytes.get flipped (Wire.header_size + 2)) lxor 0x10));
  check_decode "flipped payload bit" Wire.Bad_crc (Bytes.to_string flipped);
  (* A flipped CRC byte too. *)
  let badsum = Bytes.of_string frame in
  Bytes.set badsum 9 (Char.chr (Char.code (Bytes.get badsum 9) lxor 0xff));
  check_decode "flipped checksum byte" Wire.Bad_crc (Bytes.to_string badsum);
  (* Version skew is refused outright. *)
  let skewed = Bytes.of_string frame in
  Bytes.set skewed 4 (Char.chr (Wire.version + 1));
  check_decode "version mismatch" (Wire.Bad_version (Wire.version + 1)) (Bytes.to_string skewed);
  (* Wrong magic. *)
  let magicless = Bytes.of_string frame in
  Bytes.set magicless 0 'X';
  check_decode "bad magic" Wire.Bad_magic (Bytes.to_string magicless);
  (* Known CRC-32 vector, so the polynomial cannot silently change. *)
  Alcotest.(check int) "crc32 of \"123456789\"" 0xCBF43926 (Wire.crc32 "123456789")

let test_wire_reader_split_feeds () =
  (* Frames fed one byte at a time through the incremental reader come
     out intact and in order — the coordinator's actual read path. *)
  let payloads = [ ""; "a"; String.make 70000 'q'; "end" ] in
  let stream = String.concat "" (List.map Wire.encode payloads) in
  let r = Wire.Reader.create () in
  let out = ref [] in
  String.iter
    (fun ch ->
      Wire.Reader.feed r (Bytes.make 1 ch) ~pos:0 ~len:1;
      let rec drain () =
        match Wire.Reader.next r with
        | Ok (Some p) ->
          out := p :: !out;
          drain ()
        | Ok None -> ()
        | Error e -> Alcotest.fail (Wire.error_to_string e)
      in
      drain ())
    stream;
  Alcotest.(check (list int)) "all frames, in order, intact"
    (List.map String.length payloads)
    (List.rev_map String.length !out);
  Alcotest.(check bool) "contents match" true (List.rev !out = payloads);
  (* A poisoned stream stays poisoned. *)
  let r = Wire.Reader.create () in
  Wire.Reader.feed r (Bytes.of_string "NOPE-not-a-frame!!") ~pos:0 ~len:18;
  (match Wire.Reader.next r with
  | Error Wire.Bad_magic -> ()
  | _ -> Alcotest.fail "garbage accepted");
  match Wire.Reader.next r with
  | Error Wire.Bad_magic -> ()
  | _ -> Alcotest.fail "error was not sticky"

let test_msg_direction_tags () =
  let p = Msg.to_worker_payload Msg.Shutdown in
  (match Msg.of_payload_to_worker p with
  | Ok Msg.Shutdown -> ()
  | _ -> Alcotest.fail "to_worker round-trip");
  (match Msg.of_payload_from_worker p with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "coordinator payload accepted as worker payload");
  match Msg.of_payload_from_worker (Msg.from_worker_payload (Msg.Fatal { message = "m" })) with
  | Ok (Msg.Fatal { message = "m" }) -> ()
  | _ -> Alcotest.fail "from_worker round-trip"

(* Trace plumbing over the wire: the context embedded in a Lease and
   the span shipment riding a Lease_done survive frame + Marshal
   round-trips bit-for-bit. *)
let test_trace_context_wire_roundtrip () =
  let module Trace = Bcclb_obs.Trace in
  let ctx = { Trace.trace_id = "0123abcd"; parent_span = (42 lsl 32) lor 7 } in
  let lease =
    Msg.Lease
      {
        cells =
          [|
            {
              Msg.cell = 3;
              attempt = 1;
              exp_id = "dist-toy";
              params = Bcclb_harness.Params.v [ ("n", Bcclb_harness.Params.Int 9) ];
            };
          |];
        trace = Some ctx;
      }
  in
  let framed =
    match Wire.decode (Wire.encode (Msg.to_worker_payload lease)) with
    | Ok p -> p
    | Error e -> Alcotest.failf "lease frame: %s" (Wire.error_to_string e)
  in
  (match Msg.of_payload_to_worker framed with
  | Ok (Msg.Lease { trace = Some got; cells }) ->
    Alcotest.(check string) "lease trace id survives" ctx.Trace.trace_id got.Trace.trace_id;
    Alcotest.(check int) "lease parent span survives" ctx.Trace.parent_span
      got.Trace.parent_span;
    Alcotest.(check int) "lease cells intact" 1 (Array.length cells);
    Alcotest.(check string) "assignment names its experiment" "dist-toy" cells.(0).Msg.exp_id
  | Ok _ -> Alcotest.fail "lease decoded to something else"
  | Error e -> Alcotest.failf "lease round-trip: %s" e);
  let ev =
    {
      Trace.name = "dist.cell";
      attrs = [ ("cell", "3") ];
      pid = 4242;
      tid = 1;
      id = 99;
      parent = ctx.Trace.parent_span;
      start_ns = 123_456_789;
      dur_ns = 1000;
      depth = 0;
    }
  in
  match Msg.of_payload_from_worker (Msg.from_worker_payload (Msg.Lease_done { metrics = []; spans = [ ev ] })) with
  | Ok (Msg.Lease_done { spans = [ got ]; _ }) ->
    Alcotest.(check bool) "shipped span survives verbatim" true (got = ev)
  | Ok _ -> Alcotest.fail "lease_done decoded to something else"
  | Error e -> Alcotest.failf "lease_done round-trip: %s" e

let test_faults_spec () =
  let f = Result.get_ok (Faults.parse "crash:2, stall:5") in
  Alcotest.(check bool) "crash at 2" true (Faults.action f ~cell:2 ~attempt:0 = Some Faults.Crash);
  Alcotest.(check bool) "stall at 5" true (Faults.action f ~cell:5 ~attempt:0 = Some Faults.Stall);
  Alcotest.(check bool) "no fault elsewhere" true (Faults.action f ~cell:3 ~attempt:0 = None);
  Alcotest.(check bool) "one-shot: attempt 1 is clean" true
    (Faults.action f ~cell:2 ~attempt:1 = None);
  Alcotest.(check bool) "empty spec" true (Faults.is_empty (Result.get_ok (Faults.parse "  ")));
  List.iter
    (fun bad ->
      match Faults.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted malformed spec " ^ bad))
    [ "crash"; "crash:"; "crash:x"; "explode:3"; "crash:-1"; "crash:1:2" ]

let test_cell_timeout_env () =
  (* A malformed stall deadline fails the install, naming the variable,
     instead of falling back to the 600 s default. Blank means unset. *)
  let var = "BCCLB_DIST_CELL_TIMEOUT" in
  Fun.protect ~finally:(fun () -> Unix.putenv var "") @@ fun () ->
  List.iter
    (fun bad ->
      Unix.putenv var bad;
      match Dist.Backend.install ~spawn () with
      | Ok () -> Alcotest.failf "accepted %s=%S" var bad
      | Error e ->
        Alcotest.(check bool) (Printf.sprintf "%S: error names %s" bad var) true (contains e var))
    [ "10s"; "0"; "-1"; "abc"; "nan"; "inf" ];
  List.iter
    (fun good ->
      Unix.putenv var good;
      match Dist.Backend.install ~spawn () with
      | Ok () -> ()
      | Error e -> Alcotest.failf "refused %S: %s" good e)
    [ "10"; " 2.5 "; "" ]

(* ---- the socketpairs' fd hygiene ----

   Either side's death reaches the other as EOF only if nobody else
   holds its end: no later worker may inherit the coordinator's end of
   an earlier pair, and the spawner must keep no copy of the child's. *)

let test_spawned_pairs_are_private () =
  let pid1, fd1 = spawn () in
  let pid2, fd2 = spawn () in
  let reaped = ref [] in
  let status pid =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> None
    | _, st ->
      reaped := pid :: !reaped;
      Some st
  in
  let rec await pid ~tries =
    match status pid with
    | None when tries > 0 ->
      Unix.sleepf 0.02;
      await pid ~tries:(tries - 1)
    | st -> st
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd2;
      List.iter
        (fun pid ->
          if not (List.mem pid !reaped) then begin
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid)
          end)
        [ pid1; pid2 ])
  @@ fun () ->
  Unix.close fd1;
  (match await pid1 ~tries:250 with
  | Some (Unix.WEXITED 0) -> ()
  | Some _ -> Alcotest.fail "the first worker did not exit 0 on EOF"
  | None -> Alcotest.fail "the first worker outlived its coordinator end by 5 s");
  Alcotest.(check bool) "the second worker is still alive" true (status pid2 = None);
  Unix.kill pid2 Sys.sigkill;
  (* Past the second worker's Hello, a read must hit EOF. *)
  let buf = Bytes.create 4096 in
  let rec eof () =
    match Unix.select [ fd2 ] [] [] 5.0 with
    | [], _, _ -> false
    | _ -> Unix.read fd2 buf 0 (Bytes.length buf) = 0 || eof ()
  in
  Alcotest.(check bool) "the killed worker's pair reads EOF" true (eof ())

(* ---- end to end ---- *)

let install ?cell_timeout ?(spawn = spawn) () =
  match Dist.Backend.install ?cell_timeout ~spawn () with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let set_faults spec = Unix.putenv Faults.env_var spec

let render_run ?backend ?cache ?num_domains (exp : Experiment.t) =
  let buf = Buffer.create 256 in
  match
    H.Runner.run ?backend ?cache ?num_domains ~sink:(H.Sink.to_buffer buf)
      [ (exp, exp.default_grid) ]
  with
  | [ report ] -> (Buffer.contents buf, report)
  | _ -> Alcotest.fail "one experiment, one report"

let with_faults spec f =
  set_faults spec;
  Fun.protect ~finally:(fun () -> set_faults "") f

let domains_reference () =
  let out, _ = render_run ~num_domains:2 toy in
  out

let test_procs_matches_domains () =
  install ();
  with_faults "" @@ fun () ->
  with_dir @@ fun dir ->
  let cache = H.Cache.create ~root:dir in
  let out_cold, cold = render_run ~backend:(`Procs 3) ~cache toy in
  Alcotest.(check string) "procs report byte-identical to domains" (domains_reference ())
    out_cold;
  Alcotest.(check int) "cold run is all misses" 0 cold.H.Sink.hits;
  (* Warm rerun over the same cache: pure hits, same bytes. *)
  let out_warm, warm = render_run ~backend:(`Procs 3) ~cache toy in
  Alcotest.(check string) "warm procs report byte-identical" out_cold out_warm;
  Alcotest.(check int) "warm run is all hits" warm.H.Sink.cells warm.H.Sink.hits;
  (* And the domains backend hits the cache the procs workers wrote:
     the key contract is backend-independent. *)
  let _, cross = render_run ~cache toy in
  Alcotest.(check int) "domains backend hits procs-written entries" cross.H.Sink.cells
    cross.H.Sink.hits

let test_crash_recovery () =
  install ();
  (* Kill the workers that get cells 2 and 5 on first assignment: both
     are requeued and the sweep must complete bit-for-bit. *)
  with_faults "crash:2,crash:5" @@ fun () ->
  with_dir @@ fun dir ->
  let cache = H.Cache.create ~root:dir in
  let out, report = render_run ~backend:(`Procs 2) ~cache toy in
  Alcotest.(check string) "crashed sweep still byte-identical" (domains_reference ()) out;
  Alcotest.(check int) "every cell resolved" report.H.Sink.cells
    (report.H.Sink.hits + report.H.Sink.misses)

let test_stall_recovery () =
  (* A stalled cell is caught by the cell deadline, its worker killed,
     the cell reassigned. Tight timeout so the test is quick. *)
  install ~cell_timeout:2.0 ();
  with_faults "stall:1" @@ fun () ->
  with_dir @@ fun dir ->
  let cache = H.Cache.create ~root:dir in
  let out, _ = render_run ~backend:(`Procs 2) ~cache toy in
  Alcotest.(check string) "stalled sweep still byte-identical" (domains_reference ()) out

let test_cell_error_names_cell () =
  (* A deterministically raising cell (n = 0 in the toy) aborts the
     sweep with Cell_failed naming the experiment and the cell params —
     same contract, either backend. *)
  install ();
  with_faults "" @@ fun () ->
  let grid = List.map (fun n -> Params.v [ ("n", Params.Int n) ]) [ 1; 0; 2 ] in
  let check_backend label backend =
    let buf = Buffer.create 256 in
    match H.Runner.run ?backend ~sink:(H.Sink.to_buffer buf) [ (toy, grid) ] with
    | _ -> Alcotest.fail (label ^ ": failing cell did not propagate")
    | exception H.Runner.Cell_failed { exp_id; params; message } ->
      Alcotest.(check string) (label ^ ": experiment id") "dist-toy" exp_id;
      Alcotest.(check string) (label ^ ": canonical params") "n=i:0" params;
      Alcotest.(check bool) (label ^ ": original message kept") true
        (contains message "cell zero always fails")
  in
  check_backend "domains" None;
  check_backend "procs" (Some (`Procs 2))

let test_procs_sweep_one_session () =
  (* Two experiments in one Runner.run on `Procs 2: one coordinator
     session with exactly two spawned workers, and the text and rows of
     each experiment run alone on the domains backend. *)
  install ();
  with_faults "" @@ fun () ->
  let record ?backend sweeps =
    let sink, contents = Test_harness.recording_sink () in
    ignore (H.Runner.run ?backend ~num_domains:2 ~sink sweeps);
    contents ()
  in
  let sweep (e : Experiment.t) = (e, e.default_grid) in
  let text_toy, rows_toy = record [ sweep toy ] in
  let text_sq, rows_sq = record [ sweep toy_sq ] in
  let spawned0 = counter_value "dist.workers_spawned" in
  let text, rows = record ~backend:(`Procs 2) [ sweep toy; sweep toy_sq ] in
  Alcotest.(check int) "one session, two workers" 2
    (counter_value "dist.workers_spawned" - spawned0);
  Alcotest.(check string) "text = each experiment alone" (text_toy ^ text_sq) text;
  Alcotest.(check bool) "rows = each experiment alone" true (rows = rows_toy @ rows_sq)

let test_unknown_experiment_is_fatal () =
  (* Workers resolve every assignment's experiment id; one they do not
     know is a Fatal, and the coordinator fails the sweep naming it. *)
  install ();
  with_faults "" @@ fun () ->
  let stranger = { toy with Experiment.id = "dist-stranger" } in
  match render_run ~backend:(`Procs 1) stranger with
  | _ -> Alcotest.fail "a worker served an experiment it cannot resolve"
  | exception Failure msg ->
    Alcotest.(check bool) "failure names the unknown id" true
      (contains msg "unknown experiment id \"dist-stranger\"")

let test_handshake_check () =
  (match Msg.hello () with
  | Msg.Hello { fingerprint; cache_epoch; _ } ->
    Alcotest.(check (option string)) "own hello is accepted" None
      (Msg.handshake_error ~fingerprint ~cache_epoch);
    (match Msg.handshake_error ~fingerprint:"deadbeef" ~cache_epoch with
    | Some reason ->
      Alcotest.(check bool) "names the fingerprints" true (contains reason "fingerprint")
    | None -> Alcotest.fail "skewed fingerprint accepted");
    (match Msg.handshake_error ~fingerprint ~cache_epoch:(cache_epoch + 1) with
    | Some reason ->
      Alcotest.(check bool) "names the cache epoch" true (contains reason "epoch")
    | None -> Alcotest.fail "skewed cache epoch accepted")
  | _ -> Alcotest.fail "hello () is not a Hello")

(* ---- end-to-end: handshake, stealing, streaming deltas, tracing ---- *)

let test_skewed_worker_rejected () =
  (* A worker whose binary fingerprint differs is rejected at join time;
     that is a fail-fast (respawning the same binary cannot help). *)
  install ~spawn:spawn_skewed ();
  with_faults "" @@ fun () ->
  let rejects_before = counter_value "dist.handshake_rejects" in
  (match render_run ~backend:(`Procs 2) toy with
  | _ -> Alcotest.fail "skewed worker joined the sweep"
  | exception Failure msg ->
    Alcotest.(check bool) "failure names the fingerprint skew" true
      (contains msg "fingerprint mismatch"));
  Alcotest.(check bool) "reject counted in dist.handshake_rejects" true
    (counter_value "dist.handshake_rejects" > rejects_before)

let test_steal_under_stall () =
  (* Two workers, fair-share leases of 4 cells each; the worker that
     drew cell 1 stalls on it. The idle worker must steal the stalled
     lease's tail (observable in dist.steals) — only the in-flight head
     waits for the cell deadline — and the report must not change by a
     byte. *)
  install ~cell_timeout:2.0 ();
  with_faults "stall:1" @@ fun () ->
  with_dir @@ fun dir ->
  let cache = H.Cache.create ~root:dir in
  let steals_before = counter_value "dist.steals" in
  let stolen_before = counter_value "dist.stolen_cells" in
  let out, _ = render_run ~backend:(`Procs 2) ~cache toy in
  Alcotest.(check string) "stalled sweep still byte-identical" (domains_reference ()) out;
  Alcotest.(check bool) "a steal happened" true (counter_value "dist.steals" > steals_before);
  Alcotest.(check bool) "stolen cells counted" true
    (counter_value "dist.stolen_cells" > stolen_before)

let test_metric_deltas_stream_before_bye () =
  (* Each drained lease ships a metrics delta (Lease_done), absorbed
     live — before any Bye. With 8 cells across 2 workers every cell's
     dist.worker.cells increment must arrive, and at least two
     Lease_done deltas must have been absorbed mid-run. *)
  install ();
  with_faults "" @@ fun () ->
  let deltas_before = counter_value "dist.metric_deltas_absorbed" in
  let byes_before = counter_value "dist.metric_snapshots_absorbed" in
  let cells_before = counter_value "dist.worker.cells" in
  let out, _ = render_run ~backend:(`Procs 2) toy in
  Alcotest.(check string) "report byte-identical" (domains_reference ()) out;
  Alcotest.(check bool) "deltas arrived before Bye" true
    (counter_value "dist.metric_deltas_absorbed" - deltas_before >= 2);
  Alcotest.(check bool) "workers said goodbye" true
    (counter_value "dist.metric_snapshots_absorbed" - byes_before >= 1);
  Alcotest.(check int) "every worker cell accounted across delta shipments" 8
    (counter_value "dist.worker.cells" - cells_before)

let test_traced_sweep_merges_worker_spans () =
  (* The coordinator traces (collect mode keeps the raw monotonic clock,
     as a spawned worker's does) and its workers ship their spans home:
     the merged buffer holds dist.cell spans from other pids, and none
     starts before the coordinator's dist.sweep — spawned workers read
     the same system-wide clock, so no offset is needed to keep the
     ordering. *)
  let module Trace = Obs.Trace in
  install ();
  with_faults "" @@ fun () ->
  Trace.start_collect ~trace_id:"dist-traced-sweep" ();
  let events =
    Fun.protect ~finally:Trace.stop (fun () ->
        let out, _ = render_run ~backend:(`Procs 2) toy in
        Alcotest.(check string) "traced report byte-identical" (domains_reference ()) out;
        Trace.drain ())
  in
  let named name = List.filter (fun (e : Trace.event) -> e.Trace.name = name) events in
  let sweep =
    match named "dist.sweep" with
    | [ e ] -> e
    | l -> Alcotest.failf "want one dist.sweep span, got %d" (List.length l)
  in
  (* A steal race can compute a cell twice, so at least one span per
     cell. *)
  let cells = named "dist.cell" in
  Alcotest.(check bool) "a dist.cell span per cell" true
    (List.length cells >= List.length toy_grid);
  List.iter
    (fun (e : Trace.event) ->
      Alcotest.(check bool) "dist.cell comes from a worker pid" true
        (e.Trace.pid <> Unix.getpid () && e.Trace.pid > 0);
      Alcotest.(check bool) "dist.cell starts at or after dist.sweep" true
        (e.Trace.start_ns >= sweep.Trace.start_ns))
    cells

let suites =
  [ Alcotest.test_case "wire rejects truncation, corruption, version skew" `Quick
      test_wire_rejections;
    Alcotest.test_case "wire reader reassembles split frames" `Quick
      test_wire_reader_split_feeds;
    Alcotest.test_case "msg payloads carry direction tags" `Quick test_msg_direction_tags;
    Alcotest.test_case "trace contexts and span shipments survive the wire" `Quick
      test_trace_context_wire_roundtrip;
    Alcotest.test_case "fault specs parse and are one-shot" `Quick test_faults_spec;
    Alcotest.test_case "a malformed cell timeout is refused, naming its variable" `Quick
      test_cell_timeout_env;
    Alcotest.test_case "handshake accepts self, names skews" `Quick test_handshake_check;
    Alcotest.test_case "spawned socketpairs reach only their own worker" `Quick
      test_spawned_pairs_are_private;
    Alcotest.test_case "procs backend byte-identical + shared cache" `Slow
      test_procs_matches_domains;
    Alcotest.test_case "crashed workers are replaced, cells reassigned" `Slow
      test_crash_recovery;
    Alcotest.test_case "stalled cells hit the deadline and reassign" `Slow
      test_stall_recovery;
    Alcotest.test_case "a raising cell names itself in Cell_failed" `Slow
      test_cell_error_names_cell;
    Alcotest.test_case "one procs session serves a two-experiment sweep" `Slow
      test_procs_sweep_one_session;
    Alcotest.test_case "an unknown experiment id is fatal" `Slow
      test_unknown_experiment_is_fatal;
    Alcotest.test_case "a fingerprint-skewed worker is rejected at join" `Slow
      test_skewed_worker_rejected;
    Alcotest.test_case "an idle worker steals a stalled lease's tail" `Slow
      test_steal_under_stall;
    Alcotest.test_case "metric deltas stream home before Bye" `Slow
      test_metric_deltas_stream_before_bye;
    Alcotest.test_case "a traced procs sweep merges worker spans after its start" `Slow
      test_traced_sweep_merges_worker_spans ]

let qsuites =
  let open QCheck2 in
  [ Test.make ~name:"wire frames round-trip any payload (incl. empty and >64KiB)" ~count:60
      Gen.(
        oneof
          [ string_size (0 -- 64);
            string_size (return 0);
            string_size (65_536 -- 70_000) ])
      (fun payload ->
        match Wire.decode (Wire.encode payload) with
        | Ok p -> String.equal p payload
        | Error _ -> false);
    Test.make ~name:"truncating any frame prefix never decodes" ~count:100
      Gen.(pair (string_size (0 -- 300)) (0 -- 1_000))
      (fun (payload, k) ->
        let frame = Wire.encode payload in
        let cut = k mod String.length frame in
        match Wire.decode (String.sub frame 0 cut) with
        | Error Wire.Truncated -> true
        | Error _ -> false (* a strict prefix must read as truncation, nothing else *)
        | Ok _ -> false) ]
