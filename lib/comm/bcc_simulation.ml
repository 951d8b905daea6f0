open Bcclb_bcc

(* The §4.3 reduction: two parties jointly simulate a KT-1 BCC(b)
   algorithm on a vertex-partitioned input graph. Both know all IDs (and
   hence the KT-1 wiring); each knows only the edges incident to its
   hosted vertices — exactly the initial knowledge of those vertices. Per
   round, each party sends the broadcast characters of its hosted
   vertices in increasing ID order; each character ranges over
   {⊥} ∪ {0,1}^{<=b} and is encoded in b+1 bits. For BCC(1) that is 2
   bits per character: O(n) bits per simulated round, the O(rn) total of
   Theorem 4.4's proof. *)

type 'o result = {
  outputs : 'o array;
  rounds : int;
  chars_per_round : int;  (* characters exchanged per round, both parties *)
  bits_total : int;
  bits_alice : int;
  bits_bob : int;
}

let char_bits ~b = b + 1

(* The joint simulation is the plain simulation: both parties know the
   wiring and every broadcast after each exchange, so together they
   execute exactly [Simulator.run_outputs] (which also rejects over-wide
   emissions). What the reduction adds is the bill: every round, each
   party ships one (b+1)-bit character per hosted vertex. *)
let run ?(seed = 0) algo g ~alice_hosts =
  let inst = Instance.kt1_of_graph g in
  let n = Instance.n inst in
  let b = Algo.bandwidth algo ~n in
  let rounds = Algo.rounds algo ~n in
  let outputs = Simulator.run_outputs ~seed algo inst in
  let alice = List.length (List.filter alice_hosts (List.init n Fun.id)) in
  let per_vertex = rounds * char_bits ~b in
  { outputs;
    rounds;
    chars_per_round = n;
    bits_total = n * per_vertex;
    bits_alice = alice * per_vertex;
    bits_bob = (n - alice) * per_vertex }

(* Reduction pipelines: Partition -> 2-party Connectivity -> KT-1 BCC. *)

type partition_result = { answer : bool; bits : int; bcc_rounds : int; gadget_n : int }

let partition_via_bcc ?seed algo pa pb =
  let n = Bcclb_partition.Set_partition.ground_size pa in
  let g = Reduction_graph.gadget pa pb in
  let r = run ?seed algo g ~alice_hosts:(Reduction_graph.alice_hosts ~n) in
  { answer = Problems.system_decision r.outputs;
    bits = r.bits_total;
    bcc_rounds = r.rounds;
    gadget_n = Bcclb_graph.Graph.n g }

let two_partition_via_bcc ?seed algo pa pb =
  let n = Bcclb_partition.Set_partition.ground_size pa in
  let g = Reduction_graph.two_gadget pa pb in
  let r = run ?seed algo g ~alice_hosts:(Reduction_graph.two_alice_hosts ~n) in
  { answer = Problems.system_decision r.outputs;
    bits = r.bits_total;
    bcc_rounds = r.rounds;
    gadget_n = Bcclb_graph.Graph.n g }

(* PartitionComp via a KT-1 ConnectedComponents algorithm (Theorem 4.5's
   reduction): run the components algorithm on the gadget and read the
   join off the labels of the element-vertices. *)
let partition_comp_via_bcc ?seed algo pa pb =
  let n = Bcclb_partition.Set_partition.ground_size pa in
  let g = Reduction_graph.gadget pa pb in
  let r = run ?seed algo g ~alice_hosts:(Reduction_graph.alice_hosts ~n) in
  let labels = Array.init n (fun i -> r.outputs.(Reduction_graph.vertex_l ~n i)) in
  (Bcclb_partition.Set_partition.of_labels labels, r)
