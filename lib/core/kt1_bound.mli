(** Experiment kernels for the deterministic KT-1 lower bound (§4,
    Theorem 4.4): rank certificates for Mⁿ and Eⁿ (E5), the
    Ω(n log n)/O(n log n) communication sandwich (E6), and the measured
    §4.3 reduction pipeline (E8). *)

type rank_row = {
  n : int;
  dimension : int;
  rank : int;
  full : bool;  (** rank = dimension certifies Theorem 2.3 / Lemma 4.1. *)
  lb_bits : float;
  ub_bits : int;  (** Worst measured cost of the trivial protocol. *)
}

val rank_row :
  n:int ->
  matrix:int array array ->
  sample:(Bcclb_util.Rng.t -> n:int -> Bcclb_partition.Set_partition.t) ->
  Bcclb_util.Rng.t ->
  samples:int ->
  rank_row
(** Rank [matrix] ({!Bcclb_linalg.Partition_matrix.m_matrix} or
    [e_matrix] at [n]) in place by {!Bcclb_comm.Rank_bound.rank_mod_p}
    (the row takes ownership of [matrix]), and take
    the worst cost of the trivial protocol over [samples] input pairs,
    each drawn as [sample rng ~n] for Alice, then for Bob. E5's largest
    cell, E¹⁰ with 20 samples, takes ≈ 0.5 s to build and rank on a
    2-vCPU Xeon virtual machine. *)

type series_row = { n : int; lb_bits : float; ub_bits : float }

val partition_series : n:int -> series_row
(** Closed-form sandwich for any n: log₂ Bₙ vs n·⌈log₂ n⌉ + 1. *)

val two_partition_series : n:int -> series_row

type pipeline_row = {
  n : int;
  gadget_n : int;
  bcc_rounds : int;
  measured_bits : int;
  predicted_bits : int;  (** 2 · gadget_n · rounds (2 bits/character). *)
  correct : bool;
  implied_round_lb : float;
      (** The Theorem 4.4 statement instantiated: rounds any KT-1 BCC(1)
          algorithm needs, = log₂ r / (2·gadget_n) = Ω(log n). *)
}

val pipeline_row : n:int -> Bcclb_util.Rng.t -> samples:int -> pipeline_row
(** Run TwoPartition → MultiCycle gadget → KT-1 discovery algorithm →
    measured 2-party communication, checking answers against the join. *)
