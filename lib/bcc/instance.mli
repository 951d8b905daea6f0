(** A size-n instance of the BCC(b) model (§1.2): an n-clique of network
    edges with explicit port wiring, a subset of edges marked as the input
    graph, and per-vertex IDs. The marking is stored once, as each
    vertex's input ports in ascending order, so everything that reads it
    costs O(degree) per vertex, not O(n).

    Vertices are internally indexed 0..n−1 (the simulator's bookkeeping);
    algorithms only ever see IDs and ports through {!View.t}. In KT-0 the
    wiring is arbitrary; in KT-1 port p of every vertex leads to the
    vertex with the p-th smallest ID among the others, realising "ports
    are labelled by IDs". The circulant and KT-1 wirings are computed,
    in O(n) words; only {!kt0_random} and {!cross} store tables. *)

type knowledge = KT0 | KT1

type t

val n : t -> int

val ids : t -> int array
(** Fresh copy: [ids.(v)] is vertex v's ID. *)

val peer : t -> int -> int -> int
(** [peer t v p]: the vertex at the far end of port [p] of vertex [v]. *)

val port_row : t -> int -> Port_row.t
(** [port_row t v]: the row [p ↦ peer t v p], copying nothing: what an
    inbox ({!Inbox.view}) and a transcript read senders through. *)

val port_to : t -> int -> int -> int
(** [port_to t v u]: the port of [v] whose far end is [u].
    @raise Invalid_argument if [u = v]. *)

val is_input_edge : t -> int -> int -> bool
(** Is {u, v} an input-graph edge? A binary search of [v]'s port row. *)

val kt0_circulant : ?ids:int array -> Bcclb_graph.Graph.t -> t
(** KT-0 instance over the canonical circulant wiring
    (port p of v → v+p+1 mod n); the background wiring of all
    census-level instances. Default IDs are 1..n. Built and validated in
    O(n + m) words. *)

val kt0_circulant_sweep : int -> int array list -> t
(** [kt0_circulant_sweep n] returns a stamp over one circulant wiring
    and default IDs: applied to the cycles of a 2-regular instance, each
    a vertex sequence, it builds the same instance
    [kt0_circulant (Cycles.to_graph ...)] would, without the graph
    construction, checking the cycles in O(n) and writing each vertex's
    two-entry port row.
    The hot constructor behind the core layer's census sweeps.
    @raise Invalid_argument if a cycle is shorter than 3, or the cycles
    do not cover 0..n−1 exactly once (a vertex repeated, missing or out
    of range). *)

val kt0_random : ?ids:int array -> Bcclb_util.Rng.t -> Bcclb_graph.Graph.t -> t
(** KT-0 instance with independently random port numbering at every
    vertex — the adversarial wiring freedom of the KT-0 model. *)

val kt1_of_graph : ?ids:int array -> Bcclb_graph.Graph.t -> t
(** KT-1 instance; the wiring is forced by the IDs, computed from one
    sort of them, in O(n + m) words. *)

val input_graph : t -> Bcclb_graph.Graph.t
(** The input graph (on vertex indices). *)

val view : ?coins_seed:int -> t -> int -> View.t
(** Initial knowledge of vertex [v]; every vertex of a run must receive
    the same [coins_seed] (public-coin model). Its input ports, and in
    KT-1 its IDs, are the instance's arrays, shared and not copied. *)

val same_knowledge : t -> int -> t -> int -> bool
(** [same_knowledge a v b u]: does vertex [v] of [a] start with the
    knowledge vertex [u] of [b] starts with — are their views ({!view})
    equal but for the public coins, which every vertex shares? In O(n),
    without building either view. Two vertices with the same knowledge
    are "initially indistinguishable" (§3). *)

val validate : t -> t
(** Re-check the structural invariants: distinct IDs, ascending
    in-range port rows marking each input edge at both ends, and for
    tables a clique wiring with symmetric port maps (computed wirings
    hold it, and KT-1's ID order, by construction).
    @raise Invalid_argument describing the violation. *)

val independent : t -> int * int -> int * int -> bool
(** Definition 3.2: both pairs are input edges with four distinct
    endpoints, and neither diagonal is an input edge. *)

val cross : t -> int * int -> int * int -> t
(** The port-preserving crossing I(e₁, e₂) of Definition 3.3, for directed
    input edges e₁ = (v₁, u₁) and e₂ = (v₂, u₂): input edges e₁, e₂ are
    replaced by (v₁, u₂), (v₂, u₁) and the wiring is rewired so that every
    vertex's per-port view is unchanged. The result stores tables.
    @raise Invalid_argument if the edges are not independent or the
    instance is KT-1 (where ports are pinned to IDs). *)

val equal : t -> t -> bool
(** Same knowledge, IDs, wiring, and input marking. *)
