(** Input-graph generators for experiments and tests.

    The paper's hard instances are 2-regular: single cycles (YES) vs
    disjoint unions of ≥ 2 cycles each of length ≥ 3 (NO). All generators
    take an explicit {!Bcclb_util.Rng.t} for reproducibility. *)

val cycle : int -> Graph.t
(** The canonical n-cycle 0−1−…−(n−1)−0. @raise Invalid_argument for n < 3. *)

val random_cycle : Bcclb_util.Rng.t -> int -> Graph.t
(** Uniformly random one-cycle instance on n vertices. *)

val multicycle_of_lengths : Bcclb_util.Rng.t -> int -> int list -> Graph.t
(** Random disjoint cycles with the given lengths (each ≥ 3, summing to n).
    @raise Invalid_argument otherwise. *)

val random_two_cycles : Bcclb_util.Rng.t -> int -> Graph.t
(** A TwoCycle NO-instance: two disjoint cycles of lengths ≥ 3.
    @raise Invalid_argument for n < 6. *)

val random_multicycle : Bcclb_util.Rng.t -> int -> Graph.t
(** A MultiCycle instance (possibly a single cycle). *)

val gnp : Bcclb_util.Rng.t -> int -> float -> Graph.t
(** Erdős–Rényi G(n, p). @raise Invalid_argument for p outside [0, 1]. *)

val random_connected : Bcclb_util.Rng.t -> int -> Graph.t
(** Random spanning tree plus a few extra edges: always connected. *)

val random_bounded_degree : Bcclb_util.Rng.t -> int -> int -> Graph.t
(** Random graph with maximum degree at most [d]. *)
