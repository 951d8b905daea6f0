(** The bipartite indistinguishability graph G^t_{x,y} of Definition 3.6,
    materialised exhaustively for small n.

    Left side: all one-cycle instances V₁. Right side: all two-cycle
    instances V₂. An edge joins I₁ to I₂ iff I₂ arises from I₁ by
    crossing two {e active} independent directed edges — edges whose head
    broadcasts x and tail broadcasts y during the algorithm's rounds.
    Lemmas 3.7–3.9 are statements about this graph's degree structure;
    {!k_matching} realises the Theorem 2.1 star packing that drives
    Theorem 3.1. *)

type t = {
  n : int;
  x : string;
  y : string;
  v1 : Bcclb_graph.Cycles.t array;
  v2 : Bcclb_graph.Cycles.t array;
  adj : int array array;
  radj : int array array;
}

val build : ?seed:int -> ?deepest:int -> 'o Bcclb_bcc.Algo.packed -> n:int -> unit -> t
(** Run the (already truncated) algorithm and connect crossings of
    same-label active edge pairs, for the most frequent label (x, y)
    across V₁. Rows are computed once per representative of
    {!Arena.atlas} and expanded to every member: V₁'s rotation classes
    where {!Arena.rotation_sound}, every instance otherwise. With
    [deepest], labels are read off the codes of the family's
    [deepest]-round member, masked to this algorithm's rounds
    ({!Arena.codes}), so sibling truncations share one execution per
    instance; the graph is the same.
    @raise Invalid_argument, naming the limit, for n outside
    {!Arena.supported} or an algorithm {!Arena.require_codable} refuses. *)

val num_edges : t -> int
val degree_v1 : t -> int -> int
val degree_v2 : t -> int -> int

val hall_condition_sampled :
  ?samples:int -> Bcclb_util.Rng.t -> t -> k:int -> (unit, int list) result
(** Check |N(S)| ≥ k·|S| on random subsets of the positive-degree left
    vertices; [Error s] returns a violating witness. *)

val k_matching : t -> k:int -> (int array * int array array) option
(** A k-matching covering every positive-degree left vertex: returns
    (their indices, per-vertex groups of k pairwise-disjoint right
    indices), or [None] if none exists. *)

val build_full : ?seed:int -> 'o Bcclb_bcc.Algo.packed -> n:int -> unit -> t
(** The union of G^t_{x,y} over ALL label pairs: {I₁, I₂} is an edge iff
    some same-label active independent pair of I₁ crosses to I₂ — every
    edge is an execution-indistinguishable pair (Lemma 3.4). Same atlas
    and refusals as {!build}. *)

val certified_error_lb : t -> int * Bcclb_bignum.Ratio.t
(** (matching size, certified error): a maximum matching in the full
    graph forces any output assignment of this algorithm to err with
    μ-mass ≥ size/(2·max(|V₁|,|V₂|)) — the Theorem 3.1 argument
    instantiated as a per-algorithm certificate. *)

val neighbor_degree_histogram : t -> int -> ((int * int) * int) list
(** For one left instance: [((smaller_cycle_len, neighbour_degree), count)]
    over its neighbours, sorted — the per-i structure of Lemma 3.7. *)
