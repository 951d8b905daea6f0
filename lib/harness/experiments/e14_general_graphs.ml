(* E14: polylog-round Connectivity for general graphs (AGM sketches). *)

open Exp_common

let general_graphs_grid ns =
  List.map (fun n -> P.v [ ps "part" "rounds"; pi "n" n ]) ns
  @ [ P.v [ ps "part" "accuracy"; pi "n" 16; pi "trials" 30 ] ]

let general_graphs =
  experiment ~id:"general-graphs"
    ~title:"E14 General graphs in BCC(1): AGM sketches O(log^3 n) vs adjacency Theta(n)"
    ~doc:"E14: polylog Connectivity for general graphs (AGM sketches)"
    ~tables:
      [ { E.name = "";
          columns =
            [ E.icol ~width:8 "n"; E.icol ~width:14 ~header:"agm rounds" "agm";
              E.icol ~width:14 ~header:"adj rounds" "adj";
              E.icol ~width:16 ~header:"boruvka-split" "split";
              E.fcol ~width:16 ~prec:2 ~header:"agm/(log2 n)^3" "agm_norm" ]
        };
        { E.name = "Monte Carlo accuracy (mixed connected/G(n,p) instances)";
          columns = [ E.icol ~width:6 "n"; E.icol ~width:8 "trials"; E.icol ~width:8 "correct" ] } ]
    ~notes:
      [ "shape check: agm/(log n)^3 bounded while adjacency grows linearly; crossover where";
        "c*log^3 n < n-1. The Omega(log n) lower bound leaves a log^2 n gap here, as in the paper." ]
    ~grid:(general_graphs_grid [ 16; 64; 256; 1024; 4096; 16384; 65536; 262144 ])
    ~grid_of_ns:general_graphs_grid
    (fun p ->
      match P.str p "part" with
      | "rounds" ->
        let n = P.int p "n" in
        let agm = Algos.Agm_connectivity.connectivity () in
        let adj = Algos.Adjacency_matrix.connectivity () in
        let split = Bcclb_bcc.Split.compile (Algos.Boruvka.connectivity ()) in
        let lg = Mathx.log2 (float_of_int n) in
        [ E.row
            [ pi "n" n; pi "agm" (Algo.rounds agm ~n); pi "adj" (Algo.rounds adj ~n);
              pi "split" (Algo.rounds split ~n);
              pf "agm_norm" (float_of_int (Algo.rounds agm ~n) /. (lg ** 3.0)) ]
        ]
      | "accuracy" ->
        let n = P.int p "n" and trials = P.int p "trials" in
        let rng = Rng.create ~seed:14 in
        let agm = Algos.Agm_connectivity.connectivity () in
        let correct = ref 0 in
        for seed = 1 to trials do
          let g =
            if seed mod 2 = 0 then Gen.random_connected rng n else Gen.gnp rng n 0.12
          in
          let inst = Instance.kt1_of_graph g in
          let outputs = Simulator.run_outputs ~seed agm inst in
          if Problems.system_decision outputs = Graph.is_connected g then incr correct
        done;
        [ E.row ~table:"Monte Carlo accuracy (mixed connected/G(n,p) instances)"
            [ pi "n" n; pi "trials" trials; pi "correct" !correct ]
        ]
      | part -> invalid_arg ("general-graphs: unknown part " ^ part))

let experiments = [ general_graphs ]
