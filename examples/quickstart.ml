(* Quickstart: build a BCC(1) instance, run a Connectivity algorithm,
   inspect the result.

     dune exec examples/quickstart.exe
*)

module Gen = Bcclb_graph.Gen
module Instance = Bcclb_bcc.Instance
module Simulator = Bcclb_bcc.Simulator
module Problems = Bcclb_bcc.Problems
module Rng = Bcclb_util.Rng

let () =
  let n = 16 in
  let rng = Rng.create ~seed:42 in

  (* A YES instance (one cycle) and a NO instance (two disjoint cycles),
     both 2-regular: the TwoCycle promise problem of the paper's §3. *)
  let yes_graph = Gen.random_cycle rng n in
  let no_graph = Gen.random_two_cycles rng n in

  (* Wrap them as KT-0 instances: vertices know their ID and which ports
     carry input edges — nothing about who is behind each port. *)
  let yes_inst = Instance.kt0_circulant yes_graph in
  let no_inst = Instance.kt0_circulant no_graph in

  (* The O(log n)-round discovery algorithm (the paper's tightness
     witness): every vertex broadcasts its ID bit-by-bit, then its
     neighbour list; everyone reconstructs the graph locally. *)
  let algo = Bcclb_algorithms.Discovery.connectivity ~knowledge:Instance.KT0 ~max_degree:2 in
  Printf.printf "algorithm: %s, rounds(n=%d) = %d\n" (Bcclb_bcc.Algo.name algo) n
    (Bcclb_bcc.Algo.rounds algo ~n);

  let run inst =
    let result = Simulator.run algo inst in
    let decision = Problems.system_decision result.Simulator.outputs in
    (decision, Simulator.total_bits_broadcast result)
  in
  let yes_decision, yes_bits = run yes_inst in
  let no_decision, no_bits = run no_inst in
  Printf.printf "one-cycle instance : system says %s (%d bits broadcast in total)\n"
    (if yes_decision then "CONNECTED" else "DISCONNECTED")
    yes_bits;
  Printf.printf "two-cycle instance : system says %s (%d bits broadcast in total)\n"
    (if no_decision then "CONNECTED" else "DISCONNECTED")
    no_bits;

  (* The same in KT-1, where ports are labelled by neighbour IDs; one
     learning phase fewer. *)
  let kt1 = Bcclb_algorithms.Discovery.connectivity ~knowledge:Instance.KT1 ~max_degree:2 in
  let r = Simulator.run kt1 (Instance.kt1_of_graph no_graph) in
  Printf.printf "KT-1 variant       : system says %s in %d rounds\n"
    (if Problems.system_decision r.Simulator.outputs then "CONNECTED" else "DISCONNECTED")
    r.Simulator.rounds_used;

  assert (yes_decision && (not no_decision) && not (Problems.system_decision r.Simulator.outputs));
  print_endline "quickstart: OK"
