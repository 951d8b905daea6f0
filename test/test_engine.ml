(* The engine layer: old-vs-new parity for the ported simulators, and the
   determinism contract of the Domain pool.

   Parity is checked against reference implementations — verbatim copies
   of the seed round loops that the engine replaced — on fixed seeds, so
   the port is pinned to the pre-refactor semantics, not to itself. *)

open Bcclb_bcc
module Engine = Bcclb_engine.Engine
module Topology = Bcclb_engine.Topology
module Pool = Bcclb_engine.Pool
module Rcc_simulator = Bcclb_rcc.Rcc_simulator
module Rcc_algo = Bcclb_rcc.Rcc_algo
module Ggen = Bcclb_graph.Gen
module Rng = Bcclb_util.Rng

(* ---- reference implementations (seed round loops, pre-engine) ---- *)

let reference_bcc_run ?(seed = 0) (Algo.Packed a) inst =
  let n = Instance.n inst in
  let total_rounds = a.Algo.rounds ~n in
  let views = Array.init n (fun v -> Instance.view ~coins_seed:seed inst v) in
  let states = Array.map a.Algo.init views in
  let sent = Array.init n (fun _ -> Array.make total_rounds Msg.silent) in
  let received = Array.init n (fun _ -> Array.init total_rounds (fun _ -> [||])) in
  let inbox_of_broadcasts broadcasts =
    Array.init n (fun v -> Array.init (n - 1) (fun p -> broadcasts.(Instance.peer inst v p)))
  in
  (* Each vertex's per-port copies, posted round by round to its own
     board and read through the identity row. *)
  let copies = Array.init n (fun _ -> Topology.Board.create ()) in
  let inboxes = Array.map (fun b -> Inbox.of_ports b ~ports:(n - 1)) copies in
  let current_inbox = ref (Array.init n (fun _ -> Array.make (n - 1) Msg.silent)) in
  for round = 1 to total_rounds do
    let broadcasts = Array.make n Msg.silent in
    for v = 0 to n - 1 do
      received.(v).(round - 1) <- !current_inbox.(v);
      let state', msg = a.Algo.step states.(v) ~round ~inbox:inboxes.(v) in
      states.(v) <- state';
      sent.(v).(round - 1) <- msg;
      broadcasts.(v) <- msg
    done;
    current_inbox := inbox_of_broadcasts broadcasts;
    Array.iteri (fun v box -> Topology.Board.post copies.(v) box) !current_inbox
  done;
  let outputs = Array.init n (fun v -> a.Algo.finish states.(v) ~inbox:inboxes.(v)) in
  (outputs, views, sent, received)

let reference_rcc_run ?(seed = 0) (Rcc_algo.Packed a) inst =
  let n = Instance.n inst in
  let total_rounds = a.Rcc_algo.rounds ~n in
  let states = Array.init n (fun v -> a.Rcc_algo.init (Instance.view ~coins_seed:seed inst v)) in
  let max_distinct = ref 0 in
  let current_inbox = ref (Array.init n (fun _ -> Array.make (n - 1) Msg.silent)) in
  for round = 1 to total_rounds do
    ignore round;
    let outbox = Array.make n [||] in
    for v = 0 to n - 1 do
      let state', msgs = a.Rcc_algo.step states.(v) ~round ~inbox:!current_inbox.(v) in
      max_distinct := max !max_distinct (Rcc_algo.distinct_messages msgs);
      states.(v) <- state';
      outbox.(v) <- msgs
    done;
    current_inbox :=
      Array.init n (fun u ->
          Array.init (n - 1) (fun q ->
              let v = Instance.peer inst u q in
              outbox.(v).(Instance.port_to inst v u)))
  done;
  let outputs = Array.init n (fun v -> a.Rcc_algo.finish states.(v) ~inbox:!current_inbox.(v)) in
  (outputs, !max_distinct)

let reference_protocol_run spec ia ib =
  let open Bcclb_comm.Protocol in
  let a_received = ref [] and b_received = ref [] in
  let transcript = ref [] in
  let bits_a = ref 0 and bits_b = ref 0 in
  for round = 1 to spec.rounds do
    let ma = spec.alice ia ~round ~received:(List.rev !a_received) in
    let mb = spec.bob ib ~round ~received:(List.rev !b_received) in
    bits_a := !bits_a + String.length ma;
    bits_b := !bits_b + String.length mb;
    a_received := mb :: !a_received;
    b_received := ma :: !b_received;
    transcript := (ma, mb) :: !transcript
  done;
  ( spec.output_a ia ~received:(List.rev !a_received),
    spec.output_b ib ~received:(List.rev !b_received),
    List.rev !transcript,
    !bits_a,
    !bits_b )

(* ---- parity suites ---- *)

let discovery knowledge = Bcclb_algorithms.Discovery.connectivity ~knowledge ~max_degree:2

(* The board against the seed loop: the same outputs from both
   simulator entries that return them, and every vertex's transcript
   read off the board — each emission, each inbox entry per round and
   port, and the initial knowledge — equal to the oracle's own arrays
   and views, and so equal to itself. *)
let check_bcc_parity ~seed algo inst =
  let expected_outputs, views, sent, received = reference_bcc_run ~seed algo inst in
  let r = Simulator.run ~seed algo inst in
  Alcotest.(check bool) "outputs" true (expected_outputs = r.Simulator.outputs);
  Alcotest.(check bool) "run_outputs" true
    (expected_outputs = Simulator.run_outputs ~seed algo inst);
  let rounds = Algo.rounds algo ~n:(Instance.n inst) in
  Alcotest.(check int) "rounds" rounds r.Simulator.rounds_used;
  Array.iteri
    (fun v t ->
      Alcotest.(check bool)
        (Printf.sprintf "vertex %d knowledge" v)
        true
        ({ (Transcript.knowledge t) with View.coins = views.(v).View.coins } = views.(v));
      for round = 1 to rounds do
        if not (Msg.equal sent.(v).(round - 1) (Transcript.sent t round)) then
          Alcotest.failf "vertex %d round %d: sent differs" v round;
        Array.iteri
          (fun p m ->
            if not (Msg.equal m (Transcript.received t round p)) then
              Alcotest.failf "vertex %d round %d port %d: received differs" v round p)
          received.(v).(round - 1)
      done;
      Alcotest.(check bool) (Printf.sprintf "transcript %d equals itself" v) true
        (Transcript.equal t t))
    r.Simulator.transcripts

let test_bcc_parity () =
  let rng = Rng.create ~seed:42 in
  List.iter
    (fun (algo, inst, seed) -> check_bcc_parity ~seed algo inst)
    [ (discovery Instance.KT0, Instance.kt0_circulant (Ggen.cycle 10), 0);
      (discovery Instance.KT1, Instance.kt1_of_graph (Ggen.random_two_cycles rng 12), 3);
      (Bcclb_algorithms.Hashed_discovery.connectivity ~k:4,
       Instance.kt0_circulant (Ggen.random_cycle rng 9), 7);
      (discovery Instance.KT0, Instance.kt0_random rng (Ggen.random_two_cycles rng 11), 1);
      (discovery Instance.KT0, Instance.kt0_random rng (Ggen.random_cycle rng 12), 2) ]

(* One case per family whose private copy of the traffic the board
   replaced, each on the circulant wiring and on random wirings, where
   no rule relates one vertex's port row to another's. *)
let parity_on_wirings ?(n = 10) algos =
  let rng = Rng.create ~seed:(17 + n) in
  List.iteri
    (fun i algo ->
      check_bcc_parity ~seed:i algo (Instance.kt0_circulant (Ggen.random_two_cycles rng n));
      check_bcc_parity ~seed:i algo (Instance.kt0_random rng (Ggen.random_cycle rng n));
      check_bcc_parity ~seed:i algo (Instance.kt0_random rng (Ggen.random_two_cycles rng n)))
    algos

let test_board_parity_discovery () =
  (* Phase 1 (the ID broadcast) lasts L = 4 rounds at n = 10: truncate
     inside it, at its end, and past it. *)
  let open Bcclb_algorithms.Discovery in
  parity_on_wirings
    (List.concat_map
       (fun rounds ->
         [ connectivity_truncated ~knowledge:Instance.KT0 ~max_degree:2 ~rounds ~optimist:true;
           connectivity_partial ~knowledge:Instance.KT0 ~max_degree:2 ~rounds ~optimist:false ])
       [ 2; 4; 5; 9 ])

let test_board_parity_hashed_discovery () =
  parity_on_wirings
    (List.map (fun k -> Bcclb_algorithms.Hashed_discovery.connectivity ~k) [ 2; 5 ])

let test_board_parity_min_label () =
  let open Bcclb_algorithms.Min_label in
  parity_on_wirings ~n:8 [ connectivity (); connectivity ~phases:2 () ];
  let rng = Rng.create ~seed:8 in
  check_bcc_parity ~seed:0 (components ()) (Instance.kt0_random rng (Ggen.random_two_cycles rng 8))

let test_board_parity_adjacency_broadcast () =
  let open Bcclb_algorithms.Adjacency_broadcast in
  parity_on_wirings
    (connectivity ()
    :: List.map (fun rounds -> connectivity_truncated ~rounds ~optimist:false) [ 0; 1; 4 ])

let test_board_parity_split () =
  (* Inner BCC(2L) rounds decoded from blocks of outer rounds, on KT-1
     and, through the KT-0 compiler, on random wirings. *)
  let open Bcclb_algorithms in
  let rng = Rng.create ~seed:23 in
  check_bcc_parity ~seed:0
    (Split.compile (Boruvka.components ()))
    (Instance.kt1_of_graph (Ggen.random_two_cycles rng 9));
  check_bcc_parity ~seed:0
    (Split.compile (Kt0_compiler.compile (Boruvka.connectivity ())))
    (Instance.kt0_random rng (Ggen.random_two_cycles rng 8))

let test_board_parity_kt0_compiler () =
  (* KT-1 algorithms compiled to KT-0, one of them a decoder that reads
     its whole history. Besides parity with the seed loop, the compiled
     run must be the KT-1 run shifted by the ID-learning phase: the same
     outputs, and after learning the same broadcasts, as the inner
     algorithm on the KT-1 instance of the same graph. *)
  let open Bcclb_algorithms in
  let inners =
    [ Discovery.connectivity ~knowledge:Instance.KT1 ~max_degree:2; Boruvka.connectivity () ]
  in
  parity_on_wirings (List.map Kt0_compiler.compile inners);
  let rng = Rng.create ~seed:31 in
  List.iter
    (fun inner ->
      let n = 10 in
      let learn = Kt0_compiler.learning_rounds ~n ~bandwidth:(Algo.bandwidth inner ~n) in
      List.iter
        (fun g ->
          let direct = Simulator.run inner (Instance.kt1_of_graph g) in
          let compiled = Simulator.run (Kt0_compiler.compile inner) (Instance.kt0_random rng g) in
          Alcotest.(check (array bool)) "outputs = KT-1 outputs" direct.Simulator.outputs
            compiled.Simulator.outputs;
          Array.iteri
            (fun v t ->
              for r = 1 to Transcript.rounds t do
                Alcotest.(check bool)
                  (Printf.sprintf "vertex %d round %d broadcast" v r)
                  true
                  (Msg.equal (Transcript.sent t r)
                     (Transcript.sent compiled.Simulator.transcripts.(v) (learn + r)))
              done)
            direct.Simulator.transcripts)
        [ Ggen.random_cycle rng n; Ggen.random_two_cycles rng n ])
    inners

let test_rcc_parity () =
  let inst = Instance.kt1_of_graph (Ggen.cycle 11) in
  List.iter
    (fun r ->
      let algo = Bcclb_rcc.Token_routing.algo ~r () in
      let expected_outputs, expected_distinct = reference_rcc_run algo inst in
      let res = Rcc_simulator.run algo inst in
      Alcotest.(check (array bool)) "outputs" expected_outputs res.Rcc_simulator.outputs;
      Alcotest.(check int) "max distinct" expected_distinct res.Rcc_simulator.max_distinct)
    [ 1; 3; 10 ]

let test_protocol_parity () =
  let open Bcclb_comm in
  let rng = Rng.create ~seed:9 in
  let module Sp = Bcclb_partition.Set_partition in
  let pa = Sp.random_crp rng ~n:24 and pb = Sp.random_crp rng ~n:24 in
  let spec = Upper_bounds.partition_protocol ~n:24 in
  let out_a, out_b, transcript, bits_a, bits_b = reference_protocol_run spec pa pb in
  let r = Protocol.run spec pa pb in
  Alcotest.(check bool) "out_a" true (out_a = r.Protocol.out_a);
  Alcotest.(check bool) "out_b" true (out_b = r.Protocol.out_b);
  Alcotest.(check (list (pair string string))) "transcript" transcript r.Protocol.transcript;
  Alcotest.(check int) "bits_a" bits_a r.Protocol.bits_a;
  Alcotest.(check int) "bits_b" bits_b r.Protocol.bits_b

let test_bcc_simulation_parity () =
  (* The 2-party simulation must agree with the plain simulator on
     outputs, and its bit accounting must be exactly (b+1) bits per
     vertex per round, split by hosting. *)
  let rng = Rng.create ~seed:5 in
  let g = Ggen.random_multicycle rng 12 in
  let algo = discovery Instance.KT1 in
  let alice_hosts v = v < 6 in
  let r = Bcclb_comm.Bcc_simulation.run algo g ~alice_hosts in
  let direct = Simulator.run algo (Instance.kt1_of_graph g) in
  Alcotest.(check (array bool)) "outputs = direct" direct.Simulator.outputs
    r.Bcclb_comm.Bcc_simulation.outputs;
  let n = 12 in
  let b = Algo.bandwidth algo ~n in
  let rounds = Algo.rounds algo ~n in
  Alcotest.(check int) "bits_alice" (6 * rounds * (b + 1)) r.Bcclb_comm.Bcc_simulation.bits_alice;
  Alcotest.(check int) "bits_bob" (6 * rounds * (b + 1)) r.Bcclb_comm.Bcc_simulation.bits_bob;
  Alcotest.(check int) "bits_total"
    (r.Bcclb_comm.Bcc_simulation.bits_alice + r.Bcclb_comm.Bcc_simulation.bits_bob)
    r.Bcclb_comm.Bcc_simulation.bits_total

(* ---- engine semantics ---- *)

let test_engine_vertex_order () =
  (* Vertices step in increasing order within each round, each after
     consuming the previous round's exchange. *)
  let trace = ref [] in
  let spec =
    { Engine.n = 3;
      rounds = 2;
      step =
        (fun s ~round ~vertex ~inbox:_ ->
          trace := (round, vertex) :: !trace;
          (s, ()));
      exchange = (fun ~round:_ ~prev:_ _ -> Array.make 3 ()) }
  in
  let _ = Engine.run spec ~init_state:(fun _ -> ()) ~init_inbox:(fun _ -> ()) in
  Alcotest.(check (list (pair int int)))
    "step order" [ (1, 0); (1, 1); (1, 2); (2, 0); (2, 1); (2, 2) ]
    (List.rev !trace)

let test_engine_rejects_negative_rounds () =
  let spec =
    { Engine.n = 1;
      rounds = -1;
      step = (fun s ~round:_ ~vertex:_ ~inbox:_ -> (s, ()));
      exchange = (fun ~round:_ ~prev:_ _ -> [| () |]) }
  in
  Alcotest.(check bool) "negative rounds raise" true
    (try
       ignore (Engine.run spec ~init_state:(fun _ -> ()) ~init_inbox:(fun _ -> ()));
       false
     with Invalid_argument _ -> true)

(* ---- pool determinism ---- *)

let simulate_cell seed =
  (* A representative batch task: an independent full simulation with a
     per-task seed. *)
  let rng = Rng.create ~seed in
  let n = 8 + (seed mod 4) in
  let inst = Instance.kt0_circulant (Ggen.random_cycle rng n) in
  let r = Simulator.run ~seed (discovery Instance.KT0) inst in
  (Problems.system_decision r.Simulator.outputs, Simulator.total_bits_broadcast r)

(* Minor words of one call of [f], after one call to warm up. *)
let minor_words f =
  ignore (f ());
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

(* The emission path's allocation. One more round of [run_sent_codes] at
   n = 10 costs a step's (state, emit) pair and the round's share of the
   emissions array and board, under 8 words per vertex: a closure per
   emission does not fit. *)
let test_emission_allocation () =
  let n = 10 in
  let inst = Instance.kt0_circulant (Ggen.cycle n) in
  let words rounds =
    let algo = Bcclb_algorithms.Adjacency_broadcast.connectivity_truncated ~rounds ~optimist:true in
    minor_words (fun () -> Simulator.run_sent_codes algo inst)
  in
  let per_vertex = (words 3 -. words 2) /. float_of_int n in
  if per_vertex >= 8. then
    Alcotest.failf "one more round allocates %.1f words per vertex (want < 8)" per_vertex

(* Transcripts are views of the board a run keeps anyway, so [run]
   allocates at most twice what [run_outputs] does on the same run. *)
let test_transcript_allocation () =
  let rng = Rng.create ~seed:61 in
  List.iter
    (fun (what, algo, inst) ->
      let full = minor_words (fun () -> Simulator.run ~seed:3 algo inst)
      and outputs = minor_words (fun () -> Simulator.run_outputs ~seed:3 algo inst) in
      if full > 2. *. outputs then
        Alcotest.failf "%s: run allocates %.0f minor words, %.1fx run_outputs' %.0f (want <= 2x)"
          what full (full /. outputs) outputs)
    [ ( "KT-0 hashed discovery, k = 12, n = 48",
        Bcclb_algorithms.Hashed_discovery.connectivity ~k:12,
        Instance.kt0_circulant (Ggen.random_cycle rng 48) );
      ( "KT-1 discovery, n = 128",
        discovery Instance.KT1,
        Instance.kt1_of_graph (Ggen.random_multicycle rng 128) ) ]

let test_pool_determinism () =
  let seeds = Array.init 16 (fun i -> i) in
  let seq = Pool.map_batch ~num_domains:1 simulate_cell seeds in
  let par = Pool.map_batch ~num_domains:4 simulate_cell seeds in
  Alcotest.(check (array (pair bool int))) "1 domain = 4 domains" seq par;
  let direct = Array.map simulate_cell seeds in
  Alcotest.(check (array (pair bool int))) "pool = plain map" direct seq

let test_pool_tabulate_and_nesting () =
  (* Nested map_batch must degrade to sequential instead of spawning
     domains from worker domains — and stay correct. *)
  let nested =
    Pool.tabulate ~num_domains:4 6 (fun i ->
        Array.fold_left ( + ) 0 (Pool.tabulate ~num_domains:4 5 (fun j -> (10 * i) + j)))
  in
  let expected = Array.init 6 (fun i -> (50 * i) + 10) in
  Alcotest.(check (array int)) "nested pools" expected nested

let test_pool_exception_order () =
  (* The lowest-index failure is the one re-raised, as in a sequential
     run. *)
  let f i = if i mod 3 = 2 then failwith (Printf.sprintf "task %d" i) else i in
  let observed =
    try
      ignore (Pool.map_batch ~num_domains:4 f (Array.init 12 (fun i -> i)));
      None
    with Failure m -> Some m
  in
  Alcotest.(check (option string)) "first failure wins" (Some "task 2") observed

(* Pool series straight from the registry (0 when never registered).
   The registry is process-wide, so the test reads differences. *)
let pool_series () =
  let module M = Bcclb_obs.Metrics in
  let snapshot = M.snapshot () in
  let counter name =
    match List.assoc_opt name snapshot with Some (M.Counter c) -> c | _ -> 0
  in
  let samples =
    match List.assoc_opt "pool.cell_seconds" snapshot with
    | Some (M.Histogram h) -> h.M.count
    | _ -> 0
  in
  (counter "pool.tasks", samples, counter "pool.inner_tasks")

let test_pool_nested_accounting () =
  (* Four outer tasks, each running a nested 10-task batch: the outer
     tasks are the only pool.tasks and pool.cell_seconds samples, and
     the nested ones count once each into pool.inner_tasks — with the
     outer batch sequential or parallel, and with a nested batch that
     spawns its own domains under a sequential outer one. *)
  List.iter
    (fun (outer, inner) ->
      let tasks0, samples0, inner0 = pool_series () in
      let sums =
        Pool.map_batch_timed ~num_domains:outer
          (fun i ->
            Array.fold_left ( + ) 0
              (Pool.map_batch ~num_domains:inner (fun j -> (10 * i) + j) (Array.init 10 Fun.id)))
          (Array.init 4 Fun.id)
      in
      let tasks1, samples1, inner1 = pool_series () in
      let label = Printf.sprintf "outer %d, nested %d domains" outer inner in
      Alcotest.(check (array int)) (label ^ ": results") [| 45; 145; 245; 345 |]
        (Array.map fst sums);
      Alcotest.(check int) (label ^ ": pool.tasks") 4 (tasks1 - tasks0);
      Alcotest.(check int) (label ^ ": pool.cell_seconds samples") 4 (samples1 - samples0);
      Alcotest.(check int) (label ^ ": pool.inner_tasks") 40 (inner1 - inner0))
    [ (1, 1); (2, 2); (1, 2) ]

let test_pool_empty_and_default () =
  Alcotest.(check (array int)) "empty batch" [||] (Pool.map_batch ~num_domains:4 (fun x -> x) [||]);
  Alcotest.(check bool) "default domains >= 1" true (Pool.default_num_domains () >= 1)

(* ---- single-flight batches ---- *)

(* [callers] domains released together, each calling [call]; returns
   each caller's outcome in domain order. *)
let race callers call =
  let ready = Atomic.make 0 in
  let domains =
    Array.init callers (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < callers do
              Domain.cpu_relax ()
            done;
            try Ok (call ()) with e -> Error e))
  in
  Array.map Domain.join domains

(* Enough work per item that the racing callers overlap. *)
let slow x =
  let acc = ref x in
  for i = 1 to 20_000 do
    acc := Sys.opaque_identity ((!acc * 31) + i)
  done;
  x

let shared_int : int array Type.Id.t = Type.Id.make ()

let test_pool_shared_once () =
  let items = 300 in
  let ran = Atomic.make 0 in
  let f i =
    Atomic.incr ran;
    slow (i * i)
  in
  let key = "test.pool.shared.once" in
  let outcomes = race 4 (fun () -> Pool.shared shared_int ~key items f) in
  let expected = Array.init items (fun i -> i * i) in
  let created =
    Array.fold_left
      (fun acc -> function
        | Ok (a, c) ->
          Alcotest.(check (array int)) "every caller gets the batch" expected a;
          if c then acc + 1 else acc
        | Error e -> Alcotest.failf "caller raised %s" (Printexc.to_string e))
      0 outcomes
  in
  Alcotest.(check int) "one caller created the batch" 1 created;
  Alcotest.(check int) "every item ran exactly once" items (Atomic.get ran);
  (* Inside pool tasks too: siblings of one batch share the flight. *)
  let inner =
    Pool.tabulate ~num_domains:4 6 (fun _ ->
        fst (Pool.shared shared_int ~key:"test.pool.shared.nested" 50 f))
  in
  Array.iter
    (Alcotest.(check (array int)) "nested callers agree" (Array.init 50 (fun i -> i * i)))
    inner;
  Alcotest.(check int) "nested items ran once" (items + 50) (Atomic.get ran);
  let again, created = Pool.shared shared_int ~key items f in
  Alcotest.(check bool) "a later call is a hit" false created;
  Alcotest.(check (array int)) "the hit returns the batch" expected again;
  Alcotest.(check int) "the hit runs nothing" (items + 50) (Atomic.get ran)

let test_pool_shared_failure () =
  let items = 120 in
  let ran = Atomic.make 0 in
  let f i =
    Atomic.incr ran;
    if i = 37 || i = 80 then failwith (Printf.sprintf "item %d" i) else slow i
  in
  let key = "test.pool.shared.failure" in
  let raised = function
    | Error (Failure m) -> Some m
    | Error e -> Some (Printexc.to_string e)
    | Ok _ -> None
  in
  Array.iter
    (fun o ->
      Alcotest.(check (option string))
        "every caller raises the lowest failure" (Some "item 37") (raised o))
    (race 4 (fun () -> Pool.shared shared_int ~key items f));
  Alcotest.(check int) "every item settled once" items (Atomic.get ran);
  Alcotest.(check (option string)) "a later call raises it too" (Some "item 37")
    (raised (try Ok (Pool.shared shared_int ~key items f) with e -> Error e));
  Alcotest.(check int) "and runs nothing" items (Atomic.get ran)

let test_pool_shared_refusals () =
  let key = "test.pool.shared.typed" in
  ignore (Pool.shared shared_int ~key 3 Fun.id);
  let shared_string : string array Type.Id.t = Type.Id.make () in
  let refused what f =
    Alcotest.(check bool) what true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  refused "a key reused at another type" (fun () -> Pool.shared shared_string ~key 3 string_of_int);
  refused "a key reused at another length" (fun () -> Pool.shared shared_int ~key 4 Fun.id)

(* A trace names the shared batch that ran: its [pool.batch] span
   carries the key. *)
let test_pool_shared_traced () =
  let module Trace = Bcclb_obs.Trace in
  let key = "test.pool.shared.traced" in
  Trace.start_collect ~trace_id:"pool-shared-key" ();
  let events =
    Fun.protect ~finally:Trace.stop (fun () ->
        ignore (Pool.shared shared_int ~key 8 Fun.id);
        Trace.drain ())
  in
  Alcotest.(check bool) "a pool.batch span names the key" true
    (List.exists
       (fun (e : Trace.event) -> e.Trace.name = "pool.batch" && List.assoc_opt "key" e.Trace.attrs = Some key)
       events)

(* A caller that finds the item held by another domain waits in a
   [pool.wait] span naming the key and records one [pool.wait_seconds]
   sample; the holder, which waits for nothing, records neither. *)
let test_pool_shared_wait_traced () =
  let module Trace = Bcclb_obs.Trace in
  let module M = Bcclb_obs.Metrics in
  let key = "test.pool.shared.wait" in
  let waits () =
    match List.assoc_opt "pool.wait_seconds" (M.snapshot ()) with
    | Some (M.Histogram h) -> h.M.count
    | _ -> 0
  in
  let holding = Atomic.make false and started = Atomic.make false in
  let f _ =
    Atomic.set holding true;
    while not (Atomic.get started) do
      Domain.cpu_relax ()
    done;
    Unix.sleepf 0.1;
    7
  in
  let w0 = waits () in
  Trace.start_collect ~trace_id:"pool-shared-wait" ();
  let got, events =
    Fun.protect ~finally:Trace.stop (fun () ->
        let holder = Domain.spawn (fun () -> Pool.shared shared_int ~key 1 f) in
        while not (Atomic.get holding) do
          Domain.cpu_relax ()
        done;
        Atomic.set started true;
        let got = Pool.shared shared_int ~key 1 f in
        ignore (Domain.join holder);
        (got, Trace.drain ()))
  in
  Alcotest.(check (pair (array int) bool)) "the waiter gets the holder's item" ([| 7 |], false) got;
  let me = (Domain.self () :> int) in
  Alcotest.(check bool) "the waiter's pool.wait span names the key" true
    (List.exists
       (fun (e : Trace.event) ->
         e.Trace.name = "pool.wait" && e.Trace.tid = me && List.assoc_opt "key" e.Trace.attrs = Some key)
       events);
  Alcotest.(check int) "one pool.wait_seconds sample" 1 (waits () - w0)

let suites =
  [ Alcotest.test_case "BCC simulator parity with seed loop" `Quick test_bcc_parity;
    Alcotest.test_case "board parity: discovery truncations" `Quick test_board_parity_discovery;
    Alcotest.test_case "board parity: hashed discovery" `Quick test_board_parity_hashed_discovery;
    Alcotest.test_case "board parity: min-label" `Quick test_board_parity_min_label;
    Alcotest.test_case "board parity: adjacency broadcast" `Quick
      test_board_parity_adjacency_broadcast;
    Alcotest.test_case "board parity: split compiler" `Quick test_board_parity_split;
    Alcotest.test_case "board parity: kt0 compiler" `Quick test_board_parity_kt0_compiler;
    Alcotest.test_case "RCC simulator parity with seed loop" `Quick test_rcc_parity;
    Alcotest.test_case "2-party protocol parity with seed loop" `Quick test_protocol_parity;
    Alcotest.test_case "section-4.3 simulation parity" `Quick test_bcc_simulation_parity;
    Alcotest.test_case "engine emits in vertex order" `Quick test_engine_vertex_order;
    Alcotest.test_case "negative round bound rejected" `Quick test_engine_rejects_negative_rounds;
    Alcotest.test_case "emission path allocation" `Quick test_emission_allocation;
    Alcotest.test_case "run allocates at most 2x run_outputs" `Quick test_transcript_allocation;
    Alcotest.test_case "pool determinism across domain counts" `Quick test_pool_determinism;
    Alcotest.test_case "pool nesting falls back to sequential" `Quick test_pool_tabulate_and_nesting;
    Alcotest.test_case "pool re-raises lowest-index failure" `Quick test_pool_exception_order;
    Alcotest.test_case "pool counts nested tasks as inner tasks" `Quick
      test_pool_nested_accounting;
    Alcotest.test_case "pool edge cases" `Quick test_pool_empty_and_default;
    Alcotest.test_case "pool shared: racing callers run each item once" `Quick
      test_pool_shared_once;
    Alcotest.test_case "pool shared: failures reach every caller" `Quick test_pool_shared_failure;
    Alcotest.test_case "pool shared: key refusals" `Quick test_pool_shared_refusals;
    Alcotest.test_case "pool shared: the trace names the key" `Quick test_pool_shared_traced;
    Alcotest.test_case "pool shared: a wait is a span and a sample" `Quick
      test_pool_shared_wait_traced ]

let qsuites =
  let open QCheck2 in
  [ Test.make ~name:"map_batch equals Array.map for any domain count" ~count:50
      Gen.(pair (1 -- 6) (list_size (0 -- 40) small_int))
      (fun (d, items) ->
        let a = Array.of_list items in
        Pool.map_batch ~num_domains:d (fun x -> (x * x) + 1) a = Array.map (fun x -> (x * x) + 1) a) ]
