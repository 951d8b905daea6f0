(** Disjoint unions of cycles in canonical form.

    The instances of the TwoCycle problem (§3) and the MultiCycle problem
    (§4) are exactly the 2-regular graphs, i.e. disjoint cycle unions with
    every cycle of length ≥ 3. This module gives them a canonical,
    comparable representation so that census enumeration and the
    structure-level crossing operation can use them as hash keys: each
    cycle is rotated to start at its smallest vertex and oriented toward
    its smaller neighbour, and cycles are sorted by smallest vertex. *)

type t

val canonical_cycle : int array -> int array
(** Canonical rotation/reflection of one cycle given as a vertex sequence.
    @raise Invalid_argument on length < 3. *)

val make : int array list -> t
(** Canonicalise a family of vertex-disjoint cycles.
    @raise Invalid_argument if cycles share a vertex or one is too short. *)

val of_canonical : int array list -> t
(** The family itself, when it is already in {!make}'s canonical form —
    each cycle starts at its minimum vertex and its second entry is less
    than its last, cycles are sorted by first vertex and vertex-disjoint —
    so [of_canonical cs] equals [make cs] without copying or
    re-canonicalising. Checked in O(total length) without allocating.
    The arrays become the value: do not mutate them afterwards.
    @raise Invalid_argument on a non-canonical or overlapping family, or
    a vertex outside [0, Sys.int_size). *)

val cycles : t -> int array list
(** The canonical cycles, sorted by their smallest vertex. Do not mutate. *)

val num_cycles : t -> int
val num_vertices : t -> int
val lengths : t -> int list

val equal : t -> t -> bool
val compare_t : t -> t -> int

val to_graph : n:int -> t -> Graph.t

val of_graph : Graph.t -> t option
(** Decompose a 2-regular graph into its cycles; [None] if the graph is
    not 2-regular or has a cycle of length < 3 (impossible for simple
    graphs, kept as a defensive check). *)

val pp : Format.formatter -> t -> unit
