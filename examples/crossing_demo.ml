(* The edge-crossing engine of the KT-0 lower bound (§3), demonstrated:
   a port-preserving crossing (Definition 3.3) turns one cycle into two
   while leaving every vertex's local view untouched, so an algorithm
   that has not broadcast enough cannot tell the difference (Lemma 3.4).

     dune exec examples/crossing_demo.exe
*)

module Gen = Bcclb_graph.Gen
module Graph = Bcclb_graph.Graph
module Instance = Bcclb_bcc.Instance
module Simulator = Bcclb_bcc.Simulator
module Problems = Bcclb_bcc.Problems

let () =
  let n = 16 in
  let g = Gen.cycle n in
  let inst = Instance.kt0_circulant g in

  (* Cross the directed cycle edges (0,1) and (3,4): the cycle splits
     into 1..3 and 4..0 but, port by port, nobody's view changes. *)
  let crossed = Instance.cross inst (0, 1) (3, 4) in
  Printf.printf "original components : %d\n" (Graph.num_components (Instance.input_graph inst));
  Printf.printf "crossed  components : %d\n" (Graph.num_components (Instance.input_graph crossed));

  let views_equal =
    List.for_all (fun v -> Instance.same_knowledge inst v crossed v) (Bcclb_util.Arrayx.range 0 n)
  in
  Printf.printf "all %d views identical: %b\n" n views_equal;

  (* A truncated algorithm (too few rounds) produces identical transcripts
     on both instances and therefore the same — now wrong — answer. In
     its first 2 rounds every vertex broadcasts the top two bits of its
     5-bit ID, "00" at the four endpoints (IDs 1, 2, 4 and 5): the
     pairwise-equal sequences of Lemma 3.4. *)
  let truncated =
    Bcclb_algorithms.Discovery.connectivity_truncated ~knowledge:Instance.KT0 ~max_degree:2 ~rounds:2
      ~optimist:true
  in
  let fooled = Simulator.indistinguishable truncated inst crossed in
  Printf.printf "2-round algorithm  : indistinguishable = %b (it answers %s on both)\n" fooled
    (if Problems.system_decision (Simulator.run_outputs truncated inst) then "YES" else "NO");

  (* The full O(log n)-round algorithm distinguishes them: after enough
     rounds the endpoints of the crossed edges broadcast different
     sequences, breaking Lemma 3.4's hypothesis. *)
  let full = Bcclb_algorithms.Discovery.connectivity ~knowledge:Instance.KT0 ~max_degree:2 in
  let yes = Problems.system_decision (Simulator.run_outputs full inst) in
  let no = Problems.system_decision (Simulator.run_outputs full crossed) in
  let told_apart = not (Simulator.indistinguishable full inst crossed) in
  Printf.printf "full algorithm     : indistinguishable = %b, answers %s / %s\n" (not told_apart)
    (if yes then "YES" else "NO")
    (if no then "YES" else "NO");
  assert (views_equal && fooled && told_apart && yes && not no);
  print_endline "crossing_demo: OK"
