open Bcclb_comm

(* Quantitative content of §4 (Theorem 4.4), packaged for the harness. *)

type rank_row = {
  n : int;
  dimension : int;  (* matrix dimension = B_n or r *)
  rank : int;  (* computed rank (mod p certificate) *)
  full : bool;
  lb_bits : float;  (* log2 rank *)
  ub_bits : int;  (* measured bits of the trivial protocol, worst case over samples *)
}

(* E5/E6: certify the rank of a Partition matrix (M^n or E^n) and
   sandwich the bound with the trivial protocol's measured cost on pairs
   of inputs drawn by [sample]. *)
let rank_row ~n ~matrix ~sample rng ~samples =
  let dim = Array.length matrix in
  let rank = Rank_bound.rank_mod_p matrix in
  let spec = Upper_bounds.partition_protocol ~n in
  let worst = ref 0 in
  for _ = 1 to samples do
    let pa = sample rng ~n in
    let pb = sample rng ~n in
    let r = Protocol.run spec pa pb in
    worst := max !worst (Protocol.total_bits r)
  done;
  { n; dimension = dim; rank; full = rank = dim;
    lb_bits = Bcclb_util.Mathx.log2 (float_of_int (max 1 rank)); ub_bits = !worst }

(* Closed-form series for larger n (rank facts proven in the paper, so
   lb = log2 B_n resp. log2 r without building the matrix). *)
type series_row = { n : int; lb_bits : float; ub_bits : float }

let partition_series ~n =
  { n;
    lb_bits = Rank_bound.partition_bits ~n;
    ub_bits = float_of_int ((n * Upper_bounds.label_width ~n) + 1) }

let two_partition_series ~n =
  { n;
    lb_bits = Rank_bound.two_partition_bits ~n;
    ub_bits = float_of_int ((n * Upper_bounds.label_width ~n) + 1) }

(* E8: the section 4.3 pipeline measured end to end. Solve TwoPartition
   instances through a real KT-1 BCC(1) Connectivity algorithm on the
   2-regular MultiCycle gadget and account the communication. *)
type pipeline_row = {
  n : int;  (* ground set size; the gadget has 2n vertices *)
  gadget_n : int;
  bcc_rounds : int;
  measured_bits : int;
  predicted_bits : int;  (* 2 * gadget_n * rounds: 2 bits per char *)
  correct : bool;  (* answers matched the join truth on all samples *)
  implied_round_lb : float;  (* lb_bits / (2 * gadget_n) *)
}

let pipeline_row ~n rng ~samples =
  let algo =
    Bcclb_algorithms.Discovery.connectivity ~knowledge:Bcclb_bcc.Instance.KT1 ~max_degree:2
  in
  let correct = ref true in
  let bits = ref 0 and rounds = ref 0 and gadget_n = ref 0 in
  for _ = 1 to samples do
    let pa = Bcclb_partition.Two_partition.random rng ~n in
    let pb = Bcclb_partition.Two_partition.random rng ~n in
    let truth =
      Bcclb_partition.Set_partition.is_coarsest (Bcclb_partition.Set_partition.join pa pb)
    in
    let r = Bcc_simulation.two_partition_via_bcc algo pa pb in
    if r.Bcc_simulation.answer <> truth then correct := false;
    bits := r.Bcc_simulation.bits;
    rounds := r.Bcc_simulation.bcc_rounds;
    gadget_n := r.Bcc_simulation.gadget_n
  done;
  let lb_bits = Rank_bound.two_partition_bits ~n in
  { n;
    gadget_n = !gadget_n;
    bcc_rounds = !rounds;
    measured_bits = !bits;
    predicted_bits = 2 * !gadget_n * !rounds;
    correct = !correct;
    implied_round_lb = Rank_bound.kt1_round_lb ~bits_per_round:(2 * !gadget_n) lb_bits }
