(** The reduction gadgets of §4.2 (Figure 2).

    [gadget P_A P_B] is the 4n-vertex graph G(P_A, P_B): spine edges
    (ℓᵢ, rᵢ) for every i, Alice's part-vertices aⱼ wired to the ℓᵢ of
    part Sⱼ ∈ P_A (unused aⱼ tied to ℓ_{n−1}), and symmetrically for Bob.
    Theorem 4.3: its components restrict to exactly P_A ∨ P_B on the
    element-vertices, so G is connected iff P_A ∨ P_B = 1.

    [two_gadget] is the TwoPartition variant on 2n vertices with no
    part-vertices; every vertex has degree exactly 2, so the instance is
    a disjoint union of cycles (each of length ≥ 4: spine edges alternate
    sides) — a MultiCycle instance. *)

val gadget : Bcclb_partition.Set_partition.t -> Bcclb_partition.Set_partition.t -> Bcclb_graph.Graph.t
(** @raise Invalid_argument on mismatched ground sets. *)

val vertex_l : n:int -> int -> int
(** Vertex index in the L group. @raise Invalid_argument out of range. *)

val alice_hosts : n:int -> int -> bool
(** Alice hosts A ∪ L (the first 2n vertices) in the §4.3 simulation. *)

val two_gadget :
  Bcclb_partition.Set_partition.t -> Bcclb_partition.Set_partition.t -> Bcclb_graph.Graph.t
(** @raise Invalid_argument if either input is not a TwoPartition. *)

val two_alice_hosts : n:int -> int -> bool

val gadget_partition : Bcclb_graph.Graph.t -> n:int -> Bcclb_partition.Set_partition.t
(** The partition induced on ℓ-vertices by components of [gadget]. *)

val two_gadget_partition : Bcclb_graph.Graph.t -> n:int -> Bcclb_partition.Set_partition.t
(** The partition induced on ℓ-vertices by components of [two_gadget]. *)
