(** Hopcroft–Karp maximum bipartite matching, and the k-matchings of the
    Polygamous Hall's Theorem (Theorem 2.1).

    The KT-0 lower bound (Theorem 3.1) packs the indistinguishability
    graph with |V₁| disjoint "stars" of Θ(log n) two-cycle leaves each;
    {!k_matching} constructs such a packing explicitly by matching in the
    graph where every left (one-cycle) vertex is cloned k times. *)

type result = {
  size : int;  (** Cardinality of the maximum matching. *)
  pair_left : int array;  (** Matched right vertex of each left vertex, or −1. *)
  pair_right : int array;  (** Matched left vertex of each right vertex, or −1. *)
}

val max_matching : nl:int -> nr:int -> adj:int array array -> result
(** [adj.(u)] lists the right-neighbours of left vertex [u].
    @raise Invalid_argument on malformed adjacency. *)

val k_matching : k:int -> nl:int -> nr:int -> adj:int array array -> int array array option
(** [Some groups] with [groups.(u)] the k pairwise-disjoint right vertices
    assigned to left vertex [u], if every left vertex can get k; [None]
    otherwise — at once, without matching, when k·nl > nr. By Theorem 2.1
    this succeeds whenever |N(S)| ≥ k|S| for all S ⊆ L.
    @raise Invalid_argument if k ≤ 0 or on malformed adjacency. *)
