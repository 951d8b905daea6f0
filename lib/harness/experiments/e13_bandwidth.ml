(* E13: bandwidth translation (1.1) and MST. *)

open Exp_common

let bandwidth_grid ns =
  List.map (fun n -> P.v [ ps "part" "rounds"; pi "n" n ]) ns
  @ List.map (fun check -> P.v [ ps "part" "exec"; ps "check" check ])
      [ "split-vs-direct"; "kt0-compiled-boruvka"; "mst-vs-kruskal" ]

let bandwidth =
  experiment ~id:"bandwidth"
    ~title:"E13 Bandwidth translation (1.1) and MST: BCC(2L) algorithms in BCC(1)"
    ~doc:"E13: bandwidth translation + MST"
    ~tables:
      [ { E.name = "";
          columns =
            [ E.icol ~width:6 "n"; E.icol ~width:14 ~header:"boruvka(2L)" "bv";
              E.icol ~width:16 ~header:"split->BCC(1)" "split"; E.fcol ~width:10 ~prec:1 "factor";
              E.icol ~width:14 ~header:"mst rounds" "mst" ]
        };
        { E.name = "execution checks";
          columns =
            [ E.scol ~width:24 "check"; E.bcol ~width:6 "ok"; E.scol ~width:30 "detail" ]
        } ]
    ~grid:(bandwidth_grid [ 8; 16; 32; 64; 128; 256; 512; 1024 ])
    ~grid_of_ns:bandwidth_grid
    (fun p ->
      match P.str p "part" with
      | "rounds" ->
        let n = P.int p "n" in
        let bv = Algos.Boruvka.connectivity () in
        let split = Bcclb_bcc.Split.compile bv in
        let mst = Algos.Mst_boruvka.forest () in
        let r1 = Algo.rounds bv ~n and r2 = Algo.rounds split ~n in
        [ E.row
            [ pi "n" n; pi "bv" r1; pi "split" r2;
              pf "factor" (float_of_int r2 /. float_of_int r1); pi "mst" (Algo.rounds mst ~n) ]
        ]
      | "exec" ->
        let exec_row check ok detail =
          [ E.row ~table:"execution checks" [ ps "check" check; pb "ok" ok; ps "detail" detail ] ]
        in
        (match P.str p "check" with
        | "split-vs-direct" ->
          let rng = Rng.create ~seed:13 in
          let inst = Instance.kt1_of_graph (Gen.gnp rng 14 0.2) in
          let bv = Algos.Boruvka.connectivity () in
          let direct = Simulator.run_outputs bv inst in
          let split = Simulator.run_outputs (Bcclb_bcc.Split.compile bv) inst in
          exec_row "split-vs-direct" (direct = split) "same outputs on G(14,0.2)"
        | "kt0-compiled-boruvka" ->
          let rng = Rng.create ~seed:113 in
          let bv = Algos.Boruvka.connectivity () in
          let kt0 = Algos.Kt0_compiler.compile bv in
          let g0 = Gen.random_multicycle rng 12 in
          let r0 = Simulator.run_outputs kt0 (Instance.kt0_random rng g0) in
          exec_row "kt0-compiled-boruvka" (Problems.system_decision r0 = Graph.is_connected g0)
            (Printf.sprintf "additive %d learning rounds"
               (Algos.Kt0_compiler.learning_rounds ~n:12 ~bandwidth:(Algo.bandwidth bv ~n:12)))
        | "mst-vs-kruskal" ->
          let rng = Rng.create ~seed:213 in
          let g = Gen.gnp rng 14 0.2 in
          let inst = Instance.kt1_of_graph g in
          let mst = Simulator.run_outputs (Algos.Mst_boruvka.forest ()) inst in
          let weight_ids = Bcclb_graph.Mst.weight_of_ids ~max_id:14 in
          let weight u v = weight_ids (u + 1) (v + 1) in
          let kruskal = List.sort compare (Bcclb_graph.Mst.kruskal g ~weight) in
          let got =
            List.sort compare
              (List.map (fun (a, b) -> (a - 1, b - 1)) mst.(0))
          in
          exec_row "mst-vs-kruskal" (got = kruskal) "distributed forest = Kruskal"
        | check -> invalid_arg ("bandwidth: unknown check " ^ check))
      | part -> invalid_arg ("bandwidth: unknown part " ^ part))

let experiments = [ bandwidth ]
