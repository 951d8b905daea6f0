open Bcclb_bcc
open Bcclb_algorithms
module G = Bcclb_graph.Graph
module Ggen = Bcclb_graph.Gen
module Rng = Bcclb_util.Rng

let run_decision algo inst = Problems.system_decision (Simulator.run algo inst).Simulator.outputs

let check_connectivity_algo ~make_inst algo ~n_list =
  let rng = Rng.create ~seed:77 in
  List.iter
    (fun n ->
      let yes = Ggen.random_cycle rng n in
      let no = Ggen.random_two_cycles rng n in
      Alcotest.(check bool)
        (Printf.sprintf "YES on n=%d cycle" n)
        true
        (run_decision algo (make_inst yes));
      Alcotest.(check bool)
        (Printf.sprintf "NO on n=%d two cycles" n)
        false
        (run_decision algo (make_inst no)))
    n_list

let test_discovery_kt0 () =
  let algo = Discovery.connectivity ~knowledge:Instance.KT0 ~max_degree:2 in
  check_connectivity_algo ~make_inst:Instance.kt0_circulant algo ~n_list:[ 6; 9; 16; 33 ]

let test_discovery_kt0_random_wiring () =
  let rng = Rng.create ~seed:4 in
  let algo = Discovery.connectivity ~knowledge:Instance.KT0 ~max_degree:2 in
  check_connectivity_algo ~make_inst:(Instance.kt0_random rng) algo ~n_list:[ 8; 12 ]

let test_discovery_kt1 () =
  let algo = Discovery.connectivity ~knowledge:Instance.KT1 ~max_degree:2 in
  check_connectivity_algo ~make_inst:Instance.kt1_of_graph algo ~n_list:[ 6; 9; 16; 33 ]

let test_discovery_rounds_logarithmic () =
  (* d=2: KT-0 uses 3L rounds, KT-1 2L, L = ceil(log2(n+1)). *)
  let kt0 = Discovery.connectivity ~knowledge:Instance.KT0 ~max_degree:2 in
  let kt1 = Discovery.connectivity ~knowledge:Instance.KT1 ~max_degree:2 in
  Alcotest.(check int) "KT-0 rounds n=64" 21 (Algo.rounds kt0 ~n:64);
  Alcotest.(check int) "KT-1 rounds n=64" 14 (Algo.rounds kt1 ~n:64);
  Alcotest.(check int) "KT-0 rounds n=1024" 33 (Algo.rounds kt0 ~n:1024)

let test_discovery_components () =
  let algo = Discovery.components ~knowledge:Instance.KT1 ~max_degree:2 in
  let rng = Rng.create ~seed:13 in
  let g = Ggen.multicycle_of_lengths rng 12 [ 5; 7 ] in
  let inst = Instance.kt1_of_graph g in
  let r = Simulator.run algo inst in
  (* Labels are IDs (vertex index + 1); convert to a vertex labelling. *)
  Alcotest.(check bool) "valid components" true (Problems.components_correct g r.Simulator.outputs)

let test_discovery_degree_check () =
  let star = G.of_edges ~n:5 [ (0, 1); (0, 2); (0, 3); (0, 4) ] in
  let algo = Discovery.connectivity ~knowledge:Instance.KT1 ~max_degree:2 in
  Alcotest.(check bool) "degree violation raises" true
    (try
       ignore (run_decision algo (Instance.kt1_of_graph star));
       false
     with Invalid_argument _ -> true)

let test_discovery_higher_degree () =
  (* d=4 handles arbitrary graphs with max degree <= 4. *)
  let algo = Discovery.connectivity ~knowledge:Instance.KT1 ~max_degree:4 in
  let rng = Rng.create ~seed:21 in
  for _ = 1 to 10 do
    let g = Ggen.random_bounded_degree rng 12 4 in
    let inst = Instance.kt1_of_graph g in
    Alcotest.(check bool) "matches ground truth" (G.is_connected g) (run_decision algo inst)
  done

let test_truncated_discovery () =
  let n = 16 in
  let full_rounds = Algo.rounds (Discovery.connectivity ~knowledge:Instance.KT0 ~max_degree:2) ~n in
  (* Truncated to 3 rounds: cannot know the graph; optimist says YES. *)
  let opt = Discovery.connectivity_truncated ~knowledge:Instance.KT0 ~max_degree:2 ~rounds:3 ~optimist:true in
  let pes =
    Discovery.connectivity_truncated ~knowledge:Instance.KT0 ~max_degree:2 ~rounds:3 ~optimist:false
  in
  let rng = Rng.create ~seed:31 in
  let no_inst = Instance.kt0_circulant (Ggen.random_two_cycles rng n) in
  Alcotest.(check bool) "optimist errs on NO" true (run_decision opt no_inst);
  Alcotest.(check bool) "pessimist errs on YES" false
    (run_decision pes (Instance.kt0_circulant (Ggen.random_cycle rng n)));
  (* Truncating to the full budget behaves like the full algorithm. *)
  let full =
    Discovery.connectivity_truncated ~knowledge:Instance.KT0 ~max_degree:2 ~rounds:full_rounds
      ~optimist:true
  in
  Alcotest.(check bool) "full budget correct on NO" false (run_decision full no_inst)

let test_min_label () =
  let algo = Min_label.connectivity () in
  check_connectivity_algo ~make_inst:Instance.kt0_circulant algo ~n_list:[ 6; 9; 14 ];
  (* Component labels equal smallest ID per component. *)
  let rng = Rng.create ~seed:8 in
  let g = Ggen.multicycle_of_lengths rng 10 [ 4; 6 ] in
  let r = Simulator.run (Min_label.components ()) (Instance.kt0_circulant g) in
  Alcotest.(check bool) "valid components" true (Problems.components_correct g r.Simulator.outputs);
  let truth = G.components g in
  Array.iteri
    (fun v lbl -> Alcotest.(check int) "label is min id of component" (truth.(v) + 1) lbl)
    r.Simulator.outputs

let test_min_label_rounds () =
  (* (n/2 + 2) phases of L rounds each. *)
  let algo = Min_label.connectivity () in
  Alcotest.(check int) "rounds n=16" ((8 + 2) * 5) (Algo.rounds algo ~n:16)

let test_boruvka () =
  let algo = Boruvka.connectivity () in
  check_connectivity_algo ~make_inst:Instance.kt1_of_graph algo ~n_list:[ 6; 9; 16 ];
  (* Arbitrary (non-regular) graphs. *)
  let rng = Rng.create ~seed:15 in
  for _ = 1 to 10 do
    let g = Ggen.gnp rng 14 0.15 in
    let inst = Instance.kt1_of_graph g in
    Alcotest.(check bool) "matches ground truth" (G.is_connected g) (run_decision algo inst)
  done

let test_boruvka_components () =
  let rng = Rng.create ~seed:16 in
  for _ = 1 to 10 do
    let g = Ggen.gnp rng 12 0.12 in
    let inst = Instance.kt1_of_graph g in
    let r = Simulator.run (Boruvka.components ()) inst in
    Alcotest.(check bool) "valid components" true (Problems.components_correct g r.Simulator.outputs)
  done

let test_boruvka_rounds_and_bandwidth () =
  let algo = Boruvka.connectivity () in
  Alcotest.(check int) "rounds n=1024" 12 (Algo.rounds algo ~n:1024);
  Alcotest.(check int) "bandwidth n=1024" 22 (Algo.bandwidth algo ~n:1024)

let test_trivial () =
  let rng = Rng.create ~seed:55 in
  let yes = Instance.kt0_circulant (Ggen.random_cycle rng 8) in
  Alcotest.(check bool) "always yes" true (run_decision (Trivial.always_yes ()) yes);
  Alcotest.(check bool) "always no" false (run_decision (Trivial.always_no ()) yes);
  (* Coin guess is a fair public coin: over seeds, both answers appear. *)
  let yeses = ref 0 in
  for seed = 1 to 100 do
    let r = Simulator.run ~seed (Trivial.coin_guess ()) yes in
    if Problems.system_decision r.Simulator.outputs then incr yeses
  done;
  Alcotest.(check bool) "fair-ish" true (!yeses > 20 && !yeses < 80)

let test_measure_decision_error () =
  let rng = Rng.create ~seed:66 in
  let gen _trial =
    if Rng.bool rng then (Instance.kt0_circulant (Ggen.random_cycle rng 10), true)
    else (Instance.kt0_circulant (Ggen.random_two_cycles rng 10), false)
  in
  let stats =
    Problems.measure_decision_error (Trivial.always_yes ()) ~trials:200 gen
  in
  let rate = Problems.error_rate stats in
  Alcotest.(check bool) "always-yes errs on NO half" true (rate > 0.3 && rate < 0.7);
  let stats_full =
    Problems.measure_decision_error
      (Discovery.connectivity ~knowledge:Instance.KT0 ~max_degree:2)
      ~trials:100
      (fun _ ->
        if Rng.bool rng then (Instance.kt0_circulant (Ggen.random_cycle rng 10), true)
        else (Instance.kt0_circulant (Ggen.random_two_cycles rng 10), false))
  in
  Alcotest.(check int) "full algorithm never errs" 0 stats_full.Problems.errors


let test_adjacency_matrix () =
  let algo = Adjacency_matrix.connectivity () in
  check_connectivity_algo ~make_inst:Instance.kt1_of_graph algo ~n_list:[ 6; 9; 14 ];
  (* Works on dense, irregular graphs too. *)
  let rng = Rng.create ~seed:91 in
  for _ = 1 to 10 do
    let g = Ggen.gnp rng 12 0.3 in
    let inst = Instance.kt1_of_graph g in
    Alcotest.(check bool) "matches ground truth" (G.is_connected g) (run_decision algo inst)
  done;
  Alcotest.(check int) "rounds = n-1" 31 (Algo.rounds algo ~n:32)

let test_adjacency_matrix_components () =
  let rng = Rng.create ~seed:92 in
  for _ = 1 to 10 do
    let g = Ggen.gnp rng 10 0.15 in
    let inst = Instance.kt1_of_graph g in
    let r = Simulator.run (Adjacency_matrix.components ()) inst in
    Alcotest.(check bool) "valid components" true (Problems.components_correct g r.Simulator.outputs)
  done

let test_hashed_discovery_one_sided () =
  (* Never errs on YES instances; error on NO instances decreases with k. *)
  let rng = Rng.create ~seed:93 in
  let n = 16 in
  for seed = 1 to 30 do
    let yes = Instance.kt0_circulant (Ggen.random_cycle rng n) in
    let r = Simulator.run ~seed (Hashed_discovery.connectivity ~k:3) yes in
    Alcotest.(check bool) "YES always correct" true (Problems.system_decision r.Simulator.outputs)
  done;
  (* With k large enough, NO instances are essentially always caught. *)
  let errors k =
    let errs = ref 0 in
    for seed = 1 to 60 do
      let no = Instance.kt0_circulant (Ggen.random_two_cycles rng n) in
      let r = Simulator.run ~seed (Hashed_discovery.connectivity ~k) no in
      if Problems.system_decision r.Simulator.outputs then incr errs
    done;
    !errs
  in
  let e2 = errors 2 and e12 = errors 12 in
  Alcotest.(check bool) "small k errs often" true (e2 > 20);
  Alcotest.(check bool) "large k errs rarely" true (e12 <= 2)

let test_hashed_discovery_rounds () =
  Alcotest.(check int) "rounds 3k" 12 (Algo.rounds (Hashed_discovery.connectivity ~k:4) ~n:1024);
  Alcotest.(check bool) "predicted error monotone" true
    (Hashed_discovery.predicted_error ~n:16 ~k:2 >= Hashed_discovery.predicted_error ~n:16 ~k:10)

let test_hashed_discovery_refuses_degree () =
  (* Degree 1 would pad with hash 0: every other vertex links the vertex
     to hash 0 and the vertex itself does not, so verdicts would depend on
     the vertex. Degrees 0 and 3 are refused the same way, at init. *)
  let path = G.of_edges ~n:6 [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5) ] in
  let isolated = G.of_edges ~n:6 [ (0, 1); (1, 2); (2, 0); (3, 4) ] in
  let claw = G.of_edges ~n:6 [ (0, 1); (0, 2); (0, 3); (4, 5) ] in
  List.iter
    (fun (what, g) ->
      Alcotest.check_raises what (Invalid_argument "hashed-discovery[k=4]: needs a 2-regular input")
        (fun () ->
          ignore (Simulator.run_outputs (Hashed_discovery.connectivity ~k:4) (Instance.kt0_circulant g))))
    [ ("degree 1", path); ("degree 0", isolated); ("degree 3", claw) ];
  let rng = Rng.create ~seed:95 in
  for _ = 1 to 20 do
    let g = Ggen.random_bounded_degree rng 12 2 in
    let two_regular = G.is_regular g ~k:2 in
    let refused =
      try
        ignore (Simulator.run_outputs (Hashed_discovery.connectivity ~k:4) (Instance.kt0_circulant g));
        false
      with Invalid_argument _ -> true
    in
    Alcotest.(check bool) "refused iff not 2-regular" (not two_regular) refused
  done

(* ---- shared finishes against the isolated-replay oracle ---- *)

let check_replay ~seed what algo inst =
  Alcotest.(check (list int))
    (Printf.sprintf "%s (seed %d): vertices whose shared finish differs from their own" what seed)
    [] (Isolated_replay.disagreements ~seed algo inst)

let truncations (Algo.Packed a) ~upto =
  List.init (upto + 1) (fun t -> (t, Algo.pack (Algo.truncate ~rounds:t a)))

let test_replay_hashed_discovery () =
  (* Every truncation on random port wirings: below 3k rounds each vertex
     decides alone, at 3k one vertex decides for the run. With these k
     and seeds, several one-cycle runs truncated between 2k and 3k−1
     rounds have vertices that disagree with each other, so sharing a
     truncated verdict fails here. *)
  let rng = Rng.create ~seed:96 in
  List.iter
    (fun k ->
      for trial = 1 to 12 do
        let n = 9 + (trial mod 5) in
        let g = if trial mod 2 = 0 then Ggen.random_cycle rng n else Ggen.random_two_cycles rng n in
        let inst = Instance.kt0_random rng g in
        List.iter
          (fun (t, algo) -> check_replay ~seed:trial (Printf.sprintf "k=%d t=%d n=%d" k t n) algo inst)
          (truncations (Hashed_discovery.connectivity ~k) ~upto:(3 * k))
      done)
    [ 3; 4 ]

let test_replay_discovery () =
  (* Both truncated variants at every t up to the full schedule, and the
     full components algorithm, in KT-0 (random wiring) and KT-1 (IDs a
     random permutation of 1..n). *)
  let rng = Rng.create ~seed:97 in
  List.iter
    (fun knowledge ->
      for trial = 1 to 3 do
        let n = 9 + trial in
        let g = if trial mod 2 = 0 then Ggen.random_cycle rng n else Ggen.random_multicycle rng n in
        let inst =
          match knowledge with
          | Instance.KT0 -> Instance.kt0_random rng g
          | Instance.KT1 -> Instance.kt1_of_graph ~ids:(Array.map succ (Rng.permutation rng n)) g
        in
        let full = Algo.rounds (Discovery.connectivity ~knowledge ~max_degree:2) ~n in
        for t = 0 to full do
          check_replay ~seed:trial (Printf.sprintf "truncated t=%d" t)
            (Discovery.connectivity_truncated ~knowledge ~max_degree:2 ~rounds:t ~optimist:true)
            inst;
          check_replay ~seed:trial (Printf.sprintf "partial t=%d" t)
            (Discovery.connectivity_partial ~knowledge ~max_degree:2 ~rounds:t ~optimist:false)
            inst
        done;
        check_replay ~seed:trial "components" (Discovery.components ~knowledge ~max_degree:2) inst
      done)
    [ Instance.KT0; Instance.KT1 ]

let test_replay_board_readers () =
  (* AGM and the adjacency matrix read every port's payload off the board;
     KT-1 with IDs that are neither 1..n nor in vertex order, on a
     two-component input and a G(n, p). *)
  let rng = Rng.create ~seed:98 in
  for trial = 1 to 2 do
    let n = 9 in
    let g = if trial = 1 then Ggen.multicycle_of_lengths rng n [ 4; 5 ] else Ggen.gnp rng n 0.3 in
    let ids = Array.map (fun v -> (7 * v) + 3) (Rng.permutation rng n) in
    let inst = Instance.kt1_of_graph ~ids g in
    check_replay ~seed:trial "agm connectivity" (Agm_connectivity.connectivity ~bandwidth:4 ()) inst;
    check_replay ~seed:trial "agm components" (Agm_connectivity.components ~bandwidth:4 ()) inst;
    check_replay ~seed:trial "adjacency connectivity" (Adjacency_matrix.connectivity ()) inst;
    check_replay ~seed:trial "adjacency components b=3" (Adjacency_matrix.components ~bandwidth:3 ()) inst;
    Alcotest.(check bool) "adjacency components are right" true
      (Problems.components_correct g
         (Simulator.run_outputs ~seed:trial (Adjacency_matrix.components ~bandwidth:3 ()) inst))
  done;
  (* The KT-0 compiler hands its inner algorithm a shifted view of the
     same board: the inner finish shares under its own shift. *)
  let g = Ggen.random_multicycle rng 9 in
  check_replay ~seed:3 "kt0[agm components]"
    (Kt0_compiler.compile (Agm_connectivity.components ~bandwidth:4 ()))
    (Instance.kt0_random rng g)

let test_shared_counts () =
  (* One computation and n-1 lookups per full run; none when truncated. *)
  let misses = Bcclb_obs.Metrics.Counter.v "bcc.shared_misses"
  and hits = Bcclb_obs.Metrics.Counter.v "bcc.shared_hits" in
  let counted f =
    let m0 = Bcclb_obs.Metrics.Counter.local misses and h0 = Bcclb_obs.Metrics.Counter.local hits in
    f ();
    (Bcclb_obs.Metrics.Counter.local misses - m0, Bcclb_obs.Metrics.Counter.local hits - h0)
  in
  let rng = Rng.create ~seed:99 in
  let n = 12 in
  let inst = Instance.kt0_circulant (Ggen.random_two_cycles rng n) in
  let run algo () = ignore (Simulator.run_outputs ~seed:5 algo inst) in
  Alcotest.(check (pair int int)) "full run" (1, n - 1)
    (counted (run (Hashed_discovery.connectivity ~k:4)));
  (match Hashed_discovery.connectivity ~k:4 with
  | Algo.Packed a ->
    Alcotest.(check (pair int int)) "truncated run" (0, 0)
      (counted (run (Algo.pack (Algo.truncate ~rounds:11 a)))));
  Alcotest.(check (pair int int)) "sent codes call no finish" (0, 0)
    (counted (fun () -> ignore (Simulator.run_sent_codes (Hashed_discovery.connectivity ~k:4) inst)))

let test_connectivity_partial () =
  (* With enough rounds to learn a short cycle's worth of edges, the
     partial decider certifies NO on small-cycle instances even though
     the full graph is unknown. *)
  let n = 16 in
  let rng = Rng.create ~seed:94 in
  let full = Bcclb_bcc.Algo.rounds (Discovery.connectivity ~knowledge:Instance.KT0 ~max_degree:2) ~n in
  let partial = Discovery.connectivity_partial ~knowledge:Instance.KT0 ~max_degree:2 ~rounds:full ~optimist:true in
  (* Sanity at full budget: always exact. *)
  let yes = Instance.kt0_circulant (Ggen.random_cycle rng n) in
  let no = Instance.kt0_circulant (Ggen.random_two_cycles rng n) in
  Alcotest.(check bool) "full yes" true (run_decision partial yes);
  Alcotest.(check bool) "full no" false (run_decision partial no);
  (* Truncated: never claims NO on a YES instance (certificates only). *)
  for t = 0 to full do
    let p = Discovery.connectivity_partial ~knowledge:Instance.KT0 ~max_degree:2 ~rounds:t ~optimist:true in
    Alcotest.(check bool) (Printf.sprintf "sound on YES t=%d" t) true (run_decision p yes)
  done


let test_mst_matches_kruskal () =
  let rng = Rng.create ~seed:101 in
  for _ = 1 to 15 do
    let n = 6 + Rng.int rng 8 in
    let g = Ggen.gnp rng n 0.35 in
    let inst = Instance.kt1_of_graph g in
    let r = Simulator.run (Mst_boruvka.forest ()) inst in
    (* All vertices output the same forest. *)
    let first = r.Simulator.outputs.(0) in
    Array.iter (fun f -> Alcotest.(check bool) "agreement" true (f = first)) r.Simulator.outputs;
    (* Convert ID pairs (1-based) to vertex pairs (0-based) and compare
       with the sequential oracle under the same weights. *)
    let weight_ids = Bcclb_graph.Mst.weight_of_ids ~max_id:n in
    let weight u v = weight_ids (u + 1) (v + 1) in
    let expected = List.sort compare (Bcclb_graph.Mst.kruskal g ~weight) in
    let got = List.sort compare (List.map (fun (a, b) -> (a - 1, b - 1)) first) in
    Alcotest.(check bool) "equals kruskal forest" true (got = expected);
    Alcotest.(check bool) "is spanning forest" true (Bcclb_graph.Mst.is_spanning_forest g got)
  done

let test_mst_total_weight () =
  let rng = Rng.create ~seed:102 in
  let g = Ggen.random_connected rng 12 in
  let inst = Instance.kt1_of_graph g in
  let r = Simulator.run (Mst_boruvka.total_weight ()) inst in
  let weight_ids = Bcclb_graph.Mst.weight_of_ids ~max_id:12 in
  let weight u v = weight_ids (u + 1) (v + 1) in
  let expected = Bcclb_graph.Mst.total_weight ~weight (Bcclb_graph.Mst.kruskal g ~weight) in
  Array.iter (fun w -> Alcotest.(check int) "total weight" expected w) r.Simulator.outputs

let test_mst_on_promise_inputs () =
  (* On a single cycle the MSF is the cycle minus its heaviest edge. *)
  let n = 10 in
  let g = Ggen.cycle n in
  let inst = Instance.kt1_of_graph g in
  let r = Simulator.run (Mst_boruvka.forest ()) inst in
  Alcotest.(check int) "n-1 edges" (n - 1) (List.length r.Simulator.outputs.(0))


let test_agm_connectivity () =
  (* Monte Carlo but extremely reliable at default parameters: demand
     perfection on this fixed seeded batch. *)
  let algo = Agm_connectivity.connectivity () in
  let rng = Rng.create ~seed:111 in
  for seed = 1 to 12 do
    let g = if seed mod 2 = 0 then Ggen.random_connected rng 14 else Ggen.gnp rng 14 0.12 in
    let inst = Instance.kt1_of_graph g in
    let r = Simulator.run ~seed algo inst in
    Alcotest.(check bool) "matches ground truth" (G.is_connected g)
      (Problems.system_decision r.Simulator.outputs)
  done

let test_agm_components () =
  let algo = Agm_connectivity.components () in
  let rng = Rng.create ~seed:112 in
  for seed = 1 to 6 do
    let g = Ggen.gnp rng 12 0.15 in
    let inst = Instance.kt1_of_graph g in
    let r = Simulator.run ~seed algo inst in
    Alcotest.(check bool) "valid components" true (Problems.components_correct g r.Simulator.outputs)
  done

let test_agm_rounds_polylog () =
  let algo = Agm_connectivity.connectivity () in
  (* O(log^3 n): the ratio rounds / log^3 n stays bounded as n grows. *)
  let ratio n =
    let lg = Bcclb_util.Mathx.log2 (float_of_int n) in
    float_of_int (Algo.rounds algo ~n) /. (lg ** 3.0)
  in
  Alcotest.(check bool) "bounded at 64" true (ratio 64 < 60.0);
  Alcotest.(check bool) "bounded at 1024" true (ratio 1024 < 60.0);
  Alcotest.(check bool) "ratio shrinking (polylog, not polynomial)" true (ratio 4096 < ratio 64);
  (* The constant is large, so the crossover with the Theta(n) adjacency
     broadcast happens around n ~ 2^20. *)
  let n = 1 lsl 20 in
  Alcotest.(check bool) "sublinear vs adjacency broadcast for large n" true
    (Algo.rounds algo ~n < n - 1)


let test_chunked_bandwidth_variants () =
  (* The BCC(b) generalizations agree with their b = 1 selves and shrink
     rounds by the chunking factor. *)
  let rng = Rng.create ~seed:220 in
  let g = Ggen.random_multicycle rng 12 in
  let inst = Instance.kt1_of_graph g in
  let truth = G.is_connected g in
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "adjacency correct at b=%d" b)
        truth
        (run_decision (Adjacency_matrix.connectivity ~bandwidth:b ()) inst))
    [ 1; 4; 11 ];
  Alcotest.(check bool) "agm correct at b=5" truth
    (Problems.system_decision
       (Simulator.run ~seed:3 (Agm_connectivity.connectivity ~bandwidth:5 ()) inst).Simulator.outputs);
  let n = 1024 in
  Alcotest.(check int) "adjacency rounds = ceil((n-1)/b)" ((n - 1 + 7) / 8)
    (Algo.rounds (Adjacency_matrix.connectivity ~bandwidth:8 ()) ~n);
  let bits = Algo.rounds (Agm_connectivity.connectivity ()) ~n in
  Alcotest.(check int) "agm rounds = ceil(bits/b)" ((bits + 15) / 16)
    (Algo.rounds (Agm_connectivity.connectivity ~bandwidth:16 ()) ~n);
  Alcotest.check_raises "bandwidth must fit a word"
    (Invalid_argument "adjacency-matrix-connectivity: bandwidth 63 outside [1, 62]") (fun () ->
      ignore (Adjacency_matrix.connectivity ~bandwidth:63 ()))

(* Ground truth for the MT tests via the Conn (lock-free ufind) oracle,
   as the acceptance criteria demand — not via the algorithm under test. *)
let oracle_connected g =
  let uf = Bcclb_graph.Conn.create (G.n g) in
  G.iter_edges (fun u v -> ignore (Bcclb_graph.Conn.union uf u v)) g;
  Bcclb_graph.Conn.components uf = 1

let test_mt_connectivity () =
  (* Deterministic: exact on every instance of the promise families. *)
  let algo = Mt_connectivity.connectivity () in
  let rng = Rng.create ~seed:211 in
  for seed = 1 to 12 do
    let n = 12 + (seed mod 5) in
    let g =
      match seed mod 3 with
      | 0 -> Ggen.random_cycle rng n
      | 1 -> Ggen.random_multicycle rng n
      | _ -> Ggen.random_two_cycles rng n
    in
    let inst = Instance.kt1_of_graph g in
    Alcotest.(check bool)
      (Printf.sprintf "matches Conn oracle (seed %d)" seed)
      (oracle_connected g) (run_decision algo inst)
  done;
  (* A YES and a NO instance at n = 48. *)
  List.iter
    (fun (what, g) ->
      Alcotest.(check bool)
        (Printf.sprintf "matches Conn oracle (n = 48, %s)" what)
        (oracle_connected g)
        (run_decision algo (Instance.kt1_of_graph g)))
    [ ("random connected, seed 11", Ggen.random_connected (Rng.create ~seed:11) 48);
      ("random two cycles, seed 12", Ggen.random_two_cycles (Rng.create ~seed:12) 48) ]

let test_mt_bounded_degree_and_sparse () =
  let algo = Mt_connectivity.connectivity () in
  let rng = Rng.create ~seed:212 in
  for seed = 1 to 10 do
    let g =
      if seed mod 2 = 0 then Ggen.random_bounded_degree rng 16 4 else Ggen.gnp rng 16 0.1
    in
    let inst = Instance.kt1_of_graph g in
    Alcotest.(check bool)
      (Printf.sprintf "matches Conn oracle (seed %d)" seed)
      (oracle_connected g) (run_decision algo inst)
  done

let test_mt_components () =
  let algo = Mt_connectivity.components () in
  let rng = Rng.create ~seed:213 in
  for _ = 1 to 6 do
    let g = Ggen.random_multicycle rng 14 in
    let inst = Instance.kt1_of_graph g in
    let r = Simulator.run algo inst in
    Alcotest.(check bool) "valid components" true (Problems.components_correct g r.Simulator.outputs)
  done

let test_mt_rounds_constant_at_log_bandwidth () =
  (* At the default b = element_bits = Theta(log n), the round count is a
     constant independent of n — the O(1)-round upper bound the E15
     frontier dramatizes. At b = 1 the same protocol costs Theta(log n). *)
  let algo = Mt_connectivity.connectivity () in
  let r64 = Algo.rounds algo ~n:64 in
  Alcotest.(check bool) "positive" true (r64 > 0);
  List.iter
    (fun n -> Alcotest.(check int) (Printf.sprintf "constant at n=%d" n) r64 (Algo.rounds algo ~n))
    [ 256; 1024; 4096; 16384 ];
  Alcotest.(check int) "declared bandwidth is element width" (Mt_connectivity.element_bits ~n:1024)
    (Algo.bandwidth algo ~n:1024);
  let one_bit n =
    let params = { (Mt_connectivity.default_params ~n) with Mt_connectivity.bandwidth = 1 } in
    Mt_connectivity.total_rounds ~n params
  in
  Alcotest.(check bool) "1-bit cost grows with n" true (one_bit 4096 > one_bit 64);
  Alcotest.(check int) "1-bit rounds = payload bits" (one_bit 1024)
    (Mt_connectivity.syndrome_bits ~n:1024 (Mt_connectivity.default_params ~n:1024))

let test_mt_narrow_bandwidth_chunking () =
  (* A bandwidth that does not divide the payload exercises the partial
     final chunk of each phase; the simulator enforces the declared b. *)
  let rng = Rng.create ~seed:214 in
  List.iter
    (fun bandwidth ->
      let params = { Mt_connectivity.s0 = 2; phases = 2; bandwidth } in
      let algo = Mt_connectivity.connectivity ~params () in
      let g = Ggen.random_multicycle rng 10 in
      let inst = Instance.kt1_of_graph g in
      Alcotest.(check bool)
        (Printf.sprintf "correct at b=%d" bandwidth)
        (oracle_connected g) (run_decision algo inst))
    [ 1; 3; 7 ];
  (* KT-0 instances are rejected (ID order is the shared coordinate
     system). *)
  let algo = Mt_connectivity.connectivity () in
  let raised =
    try
      ignore (Simulator.run algo (Instance.kt0_circulant (Ggen.cycle 8)));
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "rejects KT-0" true raised

let test_kt0_compiler_boruvka () =
  (* Boruvka (KT-1) compiled to KT-0: correct on random-wired instances. *)
  let algo = Kt0_compiler.compile (Boruvka.connectivity ()) in
  let rng = Rng.create ~seed:121 in
  for _ = 1 to 8 do
    let g = Ggen.random_multicycle rng 12 in
    let inst = Instance.kt0_random rng g in
    Alcotest.(check bool) "matches ground truth" (G.is_connected g) (run_decision algo inst)
  done;
  (* Rejects KT-1 instances. *)
  Alcotest.(check bool) "rejects KT-1" true
    (try
       ignore (run_decision algo (Instance.kt1_of_graph (Ggen.cycle 8)));
       false
     with Invalid_argument _ -> true)

let test_kt0_compiler_rounds () =
  (* Additive ceil(L/b) learning rounds. *)
  let inner = Boruvka.connectivity () in
  let outer = Kt0_compiler.compile inner in
  let n = 64 in
  let b = Algo.bandwidth inner ~n in
  Alcotest.(check int) "rounds additive"
    (Kt0_compiler.learning_rounds ~n ~bandwidth:b + Algo.rounds inner ~n)
    (Algo.rounds outer ~n);
  (* With b >= L one learning round suffices: the paper's b = Omega(log n)
     remark. *)
  Alcotest.(check int) "one round at large b" 1 (Kt0_compiler.learning_rounds ~n:64 ~bandwidth:7);
  Alcotest.(check int) "L rounds at b=1" 7 (Kt0_compiler.learning_rounds ~n:64 ~bandwidth:1)

let test_kt0_compiler_agm () =
  (* Even the sketch algorithm ports to KT-0 unchanged. *)
  let algo = Kt0_compiler.compile (Agm_connectivity.connectivity ()) in
  let rng = Rng.create ~seed:122 in
  let g = Ggen.gnp rng 12 0.18 in
  let inst = Instance.kt0_circulant g in
  Alcotest.(check bool) "agm on KT-0" (G.is_connected g) (run_decision algo inst)

let test_codec () =
  (* Big-endian schedule bits reassemble to the value. *)
  let v = 0b1011010 in
  for pos = 0 to 6 do
    Alcotest.(check bool)
      (Printf.sprintf "bit %d" pos)
      ((v lsr (6 - pos)) land 1 = 1)
      (Codec.bit_of_int ~width:7 ~pos v)
  done;
  Alcotest.check_raises "position out of range"
    (Invalid_argument "Codec.bit_of_int: position out of range") (fun () ->
      ignore (Codec.bit_of_int ~width:3 ~pos:3 0));
  (* decode reads rounds [first, first+width) of the sender behind a
     port, in place on the board, and flags missing rounds. Port 0 leads
     to sender 1, which carries the sequence under test; sender 0,
     behind port 1, is never read. *)
  let history round_msgs =
    let board = Bcclb_engine.Topology.Board.create () in
    List.iter
      (fun m -> Bcclb_engine.Topology.Board.post board [| Bcclb_bcc.Msg.zero; m |])
      round_msgs;
    Bcclb_bcc.Inbox.view board ~row:[| 1; 0 |]
  in
  let seq = history (List.map Bcclb_bcc.Msg.of_bit [ true; false; true ]) in
  let decode ~first ~width h = Codec.decode h ~port:0 ~first ~width in
  Alcotest.(check (pair int bool)) "complete" (0b101, true) (decode ~first:1 ~width:3 seq);
  Alcotest.(check (pair int bool)) "inner window" (0b01, true) (decode ~first:2 ~width:2 seq);
  Alcotest.(check (pair int bool)) "truncated" (0b10, false) (decode ~first:3 ~width:2 seq);
  let with_silence = history [ Bcclb_bcc.Msg.one; Bcclb_bcc.Msg.silent; Bcclb_bcc.Msg.one ] in
  Alcotest.(check (pair int bool)) "silence = incomplete" (0b101, false)
    (decode ~first:1 ~width:3 with_silence)

let suites =
  [ Alcotest.test_case "discovery KT-0" `Quick test_discovery_kt0;
    Alcotest.test_case "discovery KT-0 random wiring" `Quick test_discovery_kt0_random_wiring;
    Alcotest.test_case "discovery KT-1" `Quick test_discovery_kt1;
    Alcotest.test_case "discovery O(log n) rounds" `Quick test_discovery_rounds_logarithmic;
    Alcotest.test_case "discovery components" `Quick test_discovery_components;
    Alcotest.test_case "discovery degree check" `Quick test_discovery_degree_check;
    Alcotest.test_case "discovery degree 4" `Quick test_discovery_higher_degree;
    Alcotest.test_case "truncated discovery" `Quick test_truncated_discovery;
    Alcotest.test_case "min-label" `Quick test_min_label;
    Alcotest.test_case "min-label rounds" `Quick test_min_label_rounds;
    Alcotest.test_case "boruvka" `Quick test_boruvka;
    Alcotest.test_case "boruvka components" `Quick test_boruvka_components;
    Alcotest.test_case "boruvka rounds/bandwidth" `Quick test_boruvka_rounds_and_bandwidth;
    Alcotest.test_case "adjacency matrix" `Quick test_adjacency_matrix;
    Alcotest.test_case "adjacency matrix components" `Quick test_adjacency_matrix_components;
    Alcotest.test_case "hashed discovery one-sided" `Quick test_hashed_discovery_one_sided;
    Alcotest.test_case "hashed discovery rounds" `Quick test_hashed_discovery_rounds;
    Alcotest.test_case "hashed discovery refuses degree != 2" `Quick test_hashed_discovery_refuses_degree;
    Alcotest.test_case "shared finish = isolated replay: hashed discovery" `Quick
      test_replay_hashed_discovery;
    Alcotest.test_case "shared finish = isolated replay: discovery" `Quick test_replay_discovery;
    Alcotest.test_case "shared finish = isolated replay: agm, adjacency" `Quick test_replay_board_readers;
    Alcotest.test_case "shared finish counts" `Quick test_shared_counts;
    Alcotest.test_case "partial decider" `Quick test_connectivity_partial;
    Alcotest.test_case "agm sketch connectivity" `Slow test_agm_connectivity;
    Alcotest.test_case "agm sketch components" `Slow test_agm_components;
    Alcotest.test_case "agm rounds polylog" `Quick test_agm_rounds_polylog;
    Alcotest.test_case "mt syndrome connectivity" `Quick test_mt_connectivity;
    Alcotest.test_case "mt bounded degree + sparse gnp" `Quick test_mt_bounded_degree_and_sparse;
    Alcotest.test_case "mt components" `Quick test_mt_components;
    Alcotest.test_case "mt O(1) rounds at b=Theta(log n)" `Quick
      test_mt_rounds_constant_at_log_bandwidth;
    Alcotest.test_case "mt narrow-bandwidth chunking" `Quick test_mt_narrow_bandwidth_chunking;
    Alcotest.test_case "chunked bandwidth variants" `Quick test_chunked_bandwidth_variants;
    Alcotest.test_case "mst matches kruskal" `Quick test_mst_matches_kruskal;
    Alcotest.test_case "mst total weight" `Quick test_mst_total_weight;
    Alcotest.test_case "mst on cycle" `Quick test_mst_on_promise_inputs;
    Alcotest.test_case "kt0 compiler: boruvka" `Quick test_kt0_compiler_boruvka;
    Alcotest.test_case "kt0 compiler: rounds" `Quick test_kt0_compiler_rounds;
    Alcotest.test_case "kt0 compiler: agm" `Slow test_kt0_compiler_agm;
    Alcotest.test_case "codec" `Quick test_codec;
    Alcotest.test_case "trivial baselines" `Quick test_trivial;
    Alcotest.test_case "measure decision error" `Quick test_measure_decision_error ]

let qsuites =
  let open QCheck2 in
  [ Test.make ~name:"discovery agrees with ground truth on multicycles" ~count:60
      Gen.(pair (6 -- 20) (0 -- 100000))
      (fun (n, seed) ->
        let rng = Rng.create ~seed in
        let g = Ggen.random_multicycle rng n in
        let inst = Instance.kt0_circulant g in
        let algo = Discovery.connectivity ~knowledge:Instance.KT0 ~max_degree:2 in
        run_decision algo inst = G.is_connected g);
    (* Hashed discovery decides connectivity of the hashed graph: one
       vertex per distinct public-coin hash, an edge h(u)-h(v) per input
       edge. The oracle redraws (a, b) from the public coins, hashes the
       IDs itself and never touches the decoder; k <= 5 at n >= 33 forces
       collisions, and small k collides often below that. *)
    Test.make ~name:"hashed discovery = connectivity of the hashed graph" ~count:200
      Gen.(triple (6 -- 64) (1 -- 12) (0 -- 100000))
      (fun (n, k, seed) ->
        let rng = Rng.create ~seed in
        let g =
          match seed mod 3 with
          | 0 -> Ggen.random_cycle rng n
          | 1 -> Ggen.random_two_cycles rng n
          | _ -> Ggen.random_multicycle rng n
        in
        let hash =
          let coins = Rng.create ~seed in
          let p = 2147483647 in
          let a = 1 + Rng.int coins (p - 1) in
          let b = Rng.int coins p in
          fun id -> (((a * id) + b) mod p) land ((1 lsl k) - 1)
        in
        (* Default IDs: vertex v has ID v + 1. *)
        let h = Array.init n (fun v -> hash (v + 1)) in
        let distinct = List.sort_uniq Int.compare (Array.to_list h) in
        let index = Hashtbl.create n in
        List.iteri (fun i x -> Hashtbl.replace index x i) distinct;
        let edges = ref [] in
        G.iter_edges
          (fun u v ->
            let hu = Hashtbl.find index h.(u) and hv = Hashtbl.find index h.(v) in
            if hu <> hv then edges := (hu, hv) :: !edges)
          g;
        let hashed = G.of_edges ~n:(List.length distinct) !edges in
        let outputs =
          Simulator.run_outputs ~seed (Hashed_discovery.connectivity ~k) (Instance.kt0_circulant g)
        in
        Array.for_all (Bool.equal (G.is_connected hashed)) outputs);
    Test.make ~name:"boruvka agrees with ground truth on gnp" ~count:60
      Gen.(pair (4 -- 16) (0 -- 100000))
      (fun (n, seed) ->
        let rng = Rng.create ~seed in
        let g = Ggen.gnp rng n 0.2 in
        let inst = Instance.kt1_of_graph g in
        run_decision (Boruvka.connectivity ()) inst = G.is_connected g);
    Test.make ~name:"mt syndrome connectivity agrees with ground truth on multicycles" ~count:40
      Gen.(pair (6 -- 18) (0 -- 100000))
      (fun (n, seed) ->
        let rng = Rng.create ~seed in
        let g = Ggen.random_multicycle rng n in
        let inst = Instance.kt1_of_graph g in
        run_decision (Mt_connectivity.connectivity ()) inst = G.is_connected g);
    Test.make ~name:"min-label matches discovery on multicycles" ~count:40
      Gen.(pair (6 -- 14) (0 -- 100000))
      (fun (n, seed) ->
        let rng = Rng.create ~seed in
        let g = Ggen.random_multicycle rng n in
        let inst = Instance.kt0_circulant g in
        run_decision (Min_label.connectivity ()) inst
        = run_decision (Discovery.connectivity ~knowledge:Instance.KT0 ~max_degree:2) inst) ]
