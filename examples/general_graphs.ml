(* Beyond the promise problems: general input graphs in the BCC model.

   The paper's lower bounds live on 2-regular instances; its introduction
   situates them against the polylog-round algorithms that exist for
   ARBITRARY graphs. This example runs that upper-bound landscape:

     - AGM linear-sketch connectivity, O(log^3 n) rounds in BCC(1);
     - the Theta(n)-round adjacency-matrix broadcast baseline;
     - Boruvka in BCC(2 log n), O(log n) rounds, and the same algorithm
       compiled down to BCC(1) by the bandwidth-splitting translation;
     - minimum spanning forest in BCC(2 log n).

     dune exec examples/general_graphs.exe
*)

module I = Bcclb_bcc.Instance
module S = Bcclb_bcc.Simulator
module P = Bcclb_bcc.Problems
module A = Bcclb_bcc.Algo
module Gen = Bcclb_graph.Gen
module Graph = Bcclb_graph.Graph
module Rng = Bcclb_util.Rng

let () =
  let n = 16 in
  let rng = Rng.create ~seed:2024 in
  let g = Gen.gnp rng n 0.15 in
  let inst = I.kt1_of_graph g in
  Printf.printf "instance: G(n=%d, p=0.15): %d edges, %d components, connected=%b\n" n
    (Graph.num_edges g) (Graph.num_components g) (Graph.is_connected g);

  let run name algo =
    let r = S.run ~seed:1 algo inst in
    let correct = P.system_decision r.S.outputs = Graph.is_connected g in
    Printf.printf "%-28s %6d rounds  b=%-2d  -> %s\n" name r.S.rounds_used (A.bandwidth algo ~n)
      (if correct then "correct" else "WRONG");
    assert correct
  in
  run "agm-sketch (BCC(1))" (Bcclb_algorithms.Agm_connectivity.connectivity ());
  run "adjacency-matrix (BCC(1))" (Bcclb_algorithms.Adjacency_matrix.connectivity ());
  let boruvka = Bcclb_algorithms.Boruvka.connectivity () in
  run "boruvka (BCC(2L))" boruvka;
  run "boruvka split to BCC(1)" (Bcclb_bcc.Split.compile boruvka);

  (* Minimum spanning forest, checked against Kruskal. *)
  let mst = S.run (Bcclb_algorithms.Mst_boruvka.forest ()) inst in
  let forest = mst.S.outputs.(0) in
  let weight_ids = Bcclb_graph.Mst.weight_of_ids ~max_id:n in
  let weight u v = weight_ids (u + 1) (v + 1) in
  let kruskal = List.sort compare (Bcclb_graph.Mst.kruskal g ~weight) in
  let got = List.sort compare (List.map (fun (a, b) -> (a - 1, b - 1)) forest) in
  Printf.printf "%-28s %6d rounds  b=%-2d  -> %s (%d edges, weight %d)\n" "mst-boruvka (BCC(2L))"
    mst.S.rounds_used
    (A.bandwidth (Bcclb_algorithms.Mst_boruvka.forest ()) ~n)
    (if got = kruskal then "= Kruskal" else "MISMATCH")
    (List.length got)
    (Bcclb_graph.Mst.total_weight ~weight got);
  assert (got = kruskal);

  (* The asymptotic picture the paper paints: Omega(log n) <= polylog for
     general graphs; Theta(log n) exactly for bounded degree. *)
  Printf.printf "\nround growth (connectivity, general graphs):\n";
  Printf.printf "%10s %12s %12s %14s\n" "n" "agm O(lg^3)" "adj O(n)" "boruvka-split";
  List.iter
    (fun n ->
      Printf.printf "%10d %12d %12d %14d\n" n
        (A.rounds (Bcclb_algorithms.Agm_connectivity.connectivity ()) ~n)
        (A.rounds (Bcclb_algorithms.Adjacency_matrix.connectivity ()) ~n)
        (A.rounds (Bcclb_bcc.Split.compile (Bcclb_algorithms.Boruvka.connectivity ())) ~n))
    [ 64; 1024; 16384; 262144 ];
  print_endline "general_graphs: OK"
