(* E15: the bandwidth × rounds frontier for Connectivity — at what b does
   the problem drop from Θ(log n) rounds to O(1)?

   The paper's headline lower bounds live at b = 1; Montealegre–Todinca's
   deterministic syndrome protocol (Algos.Mt_connectivity, over
   Bcclb_detsketch) answers in a CONSTANT number of rounds once
   b = Θ(log n). This experiment sweeps the five families
   {trivial, discovery, adjacency-matrix, AGM-randomized,
   MT-deterministic} over a bandwidth × n grid, renders the crossover
   row, and checks correctness by execution against the Graph.Conn
   oracle. Every cell is a pure function of its params (per-cell seeds),
   so the sweep is cached, checkpointable and byte-identical across the
   domains and procs backends. *)

open Exp_common
module Metrics = Bcclb_obs.Metrics
module Mt = Algos.Mt_connectivity

let cells_metric = Metrics.Counter.v "e15.cells"
let exec_metric = Metrics.Counter.v "e15.sim_runs"

(* Bandwidths swept in the rounds grid; 62 is the widest word a single
   broadcast can carry (Bits.max_width). *)
let bandwidths = [ 1; 2; 4; 8; 16; 32; 62 ]

(* n is capped by the GF(p) coordinate universe n(n−1)/2 < 2^30. *)
let n_lo = 8
let n_hi = 32768

let rounds_table = ""
let yardstick_table = "the five families at b = 1 (BCC(1) yardsticks)"
let frontier_table = "frontier: bandwidth where rounds go constant"
let accuracy_table = "execution vs Conn oracle (deterministic MT is exact; AGM is Monte Carlo)"

let mt_rounds ~n b = Mt.total_rounds ~n { (Mt.default_params ~n) with Mt.bandwidth = b }

(* The MT round count at b = element_bits is a constant independent of n
   (one field element per round): the plateau the frontier compares
   against. *)
let plateau ~n = mt_rounds ~n (Mt.element_bits ~n)

let det_frontier_grid ns =
  List.concat_map
    (fun n ->
      [ P.v [ ps "part" "rounds"; pi "n" n ];
        P.v [ ps "part" "yardsticks"; pi "n" n ];
        P.v [ ps "part" "frontier"; pi "n" n ]
      ])
    ns
  @ [ P.v [ ps "part" "accuracy"; pi "n" 14; pi "trials" 18 ];
      P.v [ ps "part" "accuracy"; pi "n" 24; pi "trials" 10 ]
    ]

let det_frontier =
  experiment ~id:"det-frontier"
    ~title:"E15 Bandwidth x rounds frontier: deterministic O(1)-round Connectivity at b = Theta(log n)"
    ~doc:"E15: bandwidth x rounds frontier (MT deterministic vs AGM/adjacency/discovery)"
    ~tables:
      [ { E.name = rounds_table;
          columns =
            [ E.icol ~width:8 "n"; E.icol ~width:4 "b";
              E.icol ~width:12 ~header:"adj rounds" "adj";
              E.icol ~width:12 ~header:"agm rounds" "agm";
              E.icol ~width:12 ~header:"mt rounds" "mt" ]
        };
        { E.name = yardstick_table;
          columns =
            [ E.icol ~width:8 "n"; E.icol ~width:8 "trivial"; E.icol ~width:10 "discovery";
              E.icol ~width:10 "adj"; E.icol ~width:10 "agm"; E.icol ~width:10 "mt" ]
        };
        { E.name = frontier_table;
          columns =
            [ E.icol ~width:8 "n"; E.fcol ~width:8 ~prec:1 ~header:"log2 n" "log2n";
              E.icol ~width:6 ~header:"eb" "eb"; E.icol ~width:10 ~header:"mt @ b=1" "mt1";
              E.icol ~width:8 ~header:"b*" "bstar";
              E.icol ~width:10 ~header:"mt @ b*" "mtstar";
              E.fcol ~width:10 ~prec:2 ~header:"drop x" "drop" ]
        };
        { E.name = accuracy_table;
          columns =
            [ E.icol ~width:6 "n"; E.icol ~width:8 "trials";
              E.icol ~width:10 ~header:"mt ok" "mt";
              E.icol ~width:12 ~header:"mt b=3 ok" "mt_narrow";
              E.icol ~width:10 ~header:"agm ok" "agm"; E.icol ~width:10 ~header:"adj ok" "adj" ]
        } ]
    ~notes:
      [ "mt rounds are independent of n once b >= eb = ceil(log2 p) = Theta(log n): the";
        "constant-round deterministic regime. At b = 1 the same protocol pays Theta(log n)";
        "rounds, adjacency pays Theta(n), and AGM pays Theta(log^3 n): the paper's 1-bit";
        "world really is the hard case. b* = least swept b with rounds <= 2x the plateau." ]
    ~n_range:(n_lo, n_hi)
    ~grid:(det_frontier_grid [ 16; 64; 256; 1024; 4096; 16384 ])
    ~grid_of_ns:det_frontier_grid
    (fun p ->
      Metrics.Counter.incr cells_metric;
      let part = P.str p "part" in
      let n = P.int p "n" in
      match part with
      | "rounds" ->
        List.map
          (fun b ->
            let adj = Algos.Adjacency_matrix.connectivity ~bandwidth:b () in
            let agm = Algos.Agm_connectivity.connectivity ~bandwidth:b () in
            E.row ~table:rounds_table
              [ pi "n" n; pi "b" b; pi "adj" (Algo.rounds adj ~n); pi "agm" (Algo.rounds agm ~n);
                pi "mt" (mt_rounds ~n b) ])
          bandwidths
      | "yardsticks" ->
        let trivial = Algos.Trivial.always_yes () in
        let discovery = Algos.Discovery.connectivity ~knowledge:Instance.KT1 ~max_degree:2 in
        let adj = Algos.Adjacency_matrix.connectivity () in
        let agm = Algos.Agm_connectivity.connectivity () in
        [ E.row ~table:yardstick_table
            [ pi "n" n; pi "trivial" (Algo.rounds trivial ~n);
              pi "discovery" (Algo.rounds discovery ~n); pi "adj" (Algo.rounds adj ~n);
              pi "agm" (Algo.rounds agm ~n); pi "mt" (mt_rounds ~n 1) ]
        ]
      | "frontier" ->
        let budget = 2 * plateau ~n in
        let bstar =
          let rec scan b = if b > 62 || mt_rounds ~n b <= budget then b else scan (b + 1) in
          scan 1
        in
        let mt1 = mt_rounds ~n 1 and mtstar = mt_rounds ~n bstar in
        [ E.row ~table:frontier_table
            [ pi "n" n; pf "log2n" (Mathx.log2 (float_of_int n)); pi "eb" (Mt.element_bits ~n);
              pi "mt1" mt1; pi "bstar" bstar; pi "mtstar" mtstar;
              pf "drop" (float_of_int mt1 /. float_of_int (max 1 mtstar)) ]
        ]
      | "accuracy" ->
        let trials = P.int p "trials" in
        let rng = Rng.create ~seed:(1500 + n) in
        let mt = Mt.connectivity () in
        let mt_narrow =
          Mt.connectivity ~params:{ Mt.s0 = 4; phases = 2; bandwidth = 3 } ()
        in
        let agm = Algos.Agm_connectivity.connectivity ~bandwidth:4 () in
        let adj = Algos.Adjacency_matrix.connectivity ~bandwidth:7 () in
        let counts = Array.make 4 0 in
        for seed = 1 to trials do
          let g =
            match seed mod 3 with
            | 0 -> Gen.random_multicycle rng n
            | 1 -> Gen.random_bounded_degree rng n 4
            | _ -> Gen.gnp rng n (1.2 /. float_of_int n)
          in
          (* Ground truth from the Conn (lock-free ufind) oracle, not
             from any algorithm under test. *)
          let uf = Bcclb_graph.Conn.create n in
          Graph.iter_edges (fun u v -> ignore (Bcclb_graph.Conn.union uf u v)) g;
          let truth = Bcclb_graph.Conn.components uf = 1 in
          List.iteri
            (fun i algo ->
              Metrics.Counter.incr exec_metric;
              let outputs = Simulator.run_outputs ~seed algo (Instance.kt1_of_graph g) in
              if Problems.system_decision outputs = truth then
                counts.(i) <- counts.(i) + 1)
            [ mt; mt_narrow; agm; adj ]
        done;
        [ E.row ~table:accuracy_table
            [ pi "n" n; pi "trials" trials; pi "mt" counts.(0); pi "mt_narrow" counts.(1);
              pi "agm" counts.(2); pi "adj" counts.(3) ]
        ]
      | part -> invalid_arg ("det-frontier: unknown part " ^ part))

let experiments = [ det_frontier ]
