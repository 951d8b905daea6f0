(* E10: rounds of the implemented algorithms. *)

open Exp_common

let upper_bounds_grid ns =
  List.map (fun n -> P.v [ ps "part" "rounds"; pi "n" n ]) ns
  @ List.map (fun n -> P.v [ ps "part" "normalised"; pi "n" n ]) ns
  @ List.map (fun n -> P.v [ ps "part" "exec"; pi "n" n ]) (List.filter (fun n -> n <= 128) ns)

let upper_bounds =
  experiment ~id:"upper-bounds" ~title:"E10 Tightness: rounds of the BCC algorithms vs n"
    ~doc:"E10: rounds of the implemented algorithms"
    ~tables:
      [ { E.name = "";
          columns =
            [ E.icol ~width:6 "n"; E.icol ~width:16 ~header:"discovery KT-0" "d0";
              E.icol ~width:16 ~header:"discovery KT-1" "d1"; E.icol ~width:12 ~header:"adj-matrix" "adj";
              E.icol ~width:12 ~header:"min-label" "ml"; E.icol ~width:18 ~header:"boruvka(BCC(2L))" "bv" ]
        };
        { E.name = "normalised by log2 n";
          columns =
            [ E.icol ~width:6 "n"; E.fcol ~width:16 ~prec:3 ~header:"KT-0/log n" "d0_norm";
              E.fcol ~width:16 ~prec:3 ~header:"KT-1/log n" "d1_norm";
              E.fcol ~width:19 ~header:"min-label/(n log n)" "ml_norm" ]
        };
        { E.name = "execution check (YES/NO answers on random instances)";
          columns =
            [ E.icol ~width:6 "n"; E.bcol ~width:14 ~header:"YES-instance" "yes";
              E.bcol ~width:13 ~header:"NO-instance" "no" ]
        } ]
    ~grid:(upper_bounds_grid [ 8; 16; 32; 64; 128; 256; 512; 1024; 2048; 4096 ])
    ~grid_of_ns:upper_bounds_grid
    (fun p ->
      let n = P.int p "n" in
      let d0 () = Algos.Discovery.connectivity ~knowledge:Instance.KT0 ~max_degree:2 in
      let d1 () = Algos.Discovery.connectivity ~knowledge:Instance.KT1 ~max_degree:2 in
      match P.str p "part" with
      | "rounds" ->
        [ E.row
            [ pi "n" n; pi "d0" (Algo.rounds (d0 ()) ~n); pi "d1" (Algo.rounds (d1 ()) ~n);
              pi "adj" (Algo.rounds (Algos.Adjacency_matrix.connectivity ()) ~n);
              pi "ml" (Algo.rounds (Algos.Min_label.connectivity ()) ~n);
              pi "bv" (Algo.rounds (Algos.Boruvka.connectivity ()) ~n) ]
        ]
      | "normalised" ->
        let lg = Mathx.log2 (float_of_int n) in
        [ E.row ~table:"normalised by log2 n"
            [ pi "n" n; pf "d0_norm" (float_of_int (Algo.rounds (d0 ()) ~n) /. lg);
              pf "d1_norm" (float_of_int (Algo.rounds (d1 ()) ~n) /. lg);
              pf "ml_norm"
                (float_of_int (Algo.rounds (Algos.Min_label.connectivity ()) ~n)
                /. (float_of_int n *. lg)) ]
        ]
      | "exec" ->
        let rng = Rng.create ~seed:(100 + n) in
        let yes = Gen.random_cycle rng n in
        let no = Gen.random_two_cycles rng n in
        let run algo inst = Problems.system_decision (Simulator.run_outputs algo inst) in
        [ E.row ~table:"execution check (YES/NO answers on random instances)"
            [ pi "n" n; pb "yes" (run (d0 ()) (Instance.kt0_circulant yes));
              pb "no" (run (d0 ()) (Instance.kt0_circulant no)) ]
        ]
      | part -> invalid_arg ("upper-bounds: unknown part " ^ part))

let experiments = [ upper_bounds ]
