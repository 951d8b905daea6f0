(** Immutable undirected simple graphs on vertices 0..n−1.

    These are the {e input graphs} of the BCC model (§1.2): a subset of the
    clique's network edges. Adjacency rows are sorted for O(log n) edge
    queries, which the crossing machinery uses heavily when testing edge
    independence (Definition 3.2). *)

type t

val of_edges : n:int -> (int * int) list -> t
(** Build from an edge list; duplicates are merged by sorting each
    adjacency row and dropping its repeats, O(n + m log Δ).
    @raise Invalid_argument on the first self-loop or endpoint out of
    range, in list order. *)

val n : t -> int
(** Number of vertices. *)

val num_edges : t -> int

val neighbors : t -> int -> int array
(** Sorted; do not mutate. *)

val degree : t -> int -> int
val max_degree : t -> int

val mem_edge : t -> int -> int -> bool

val edges : t -> (int * int) list
(** Each edge once, as (u, v) with u < v, lexicographically sorted. *)

val edges_array : t -> (int * int) array
(** Same edges as {!edges}, as a pre-sized array — the allocation-light
    form for hot loops that index or repeatedly scan the edge set. *)

val iter_edges : (int -> int -> unit) -> t -> unit
(** Visit each edge once, (u, v) with u < v, lexicographic order,
    without materialising a list. *)

val components : t -> int array
(** Canonical component labels (smallest vertex in each component). *)

val num_components : t -> int

val is_connected : t -> bool
(** The ground truth the Connectivity problem asks for. *)

val is_regular : t -> k:int -> bool
(** All degrees equal [k]; 2-regular inputs are exactly the disjoint cycle
    unions of the TwoCycle/MultiCycle promise problems. *)

val equal : t -> t -> bool
