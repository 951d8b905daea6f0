(** A size-n instance of the BCC(b) model (§1.2): an n-clique of network
    edges with explicit port wiring, a subset of edges marked as the input
    graph, and per-vertex IDs.

    Vertices are internally indexed 0..n−1 (the simulator's bookkeeping);
    algorithms only ever see IDs and ports through {!View.t}. In KT-0 the
    wiring is arbitrary; in KT-1 port p of every vertex leads to the
    vertex with the p-th smallest ID among the others, realising "ports
    are labelled by IDs". *)

type knowledge = KT0 | KT1

type t

val n : t -> int

val ids : t -> int array
(** Fresh copy: [ids.(v)] is vertex v's ID. *)

val peer : t -> int -> int -> int
(** [peer t v p]: the vertex at the far end of port [p] of vertex [v]. *)

val peer_row : t -> int -> int array
(** [peer_row t v]: the row [p ↦ peer t v p] — shared with the instance,
    not copied, so do not mutate it. What the simulator reads each
    vertex's inbox through ({!Inbox.view}). *)

val port_to : t -> int -> int -> int
(** [port_to t v u]: the port of [v] whose far end is [u].
    @raise Invalid_argument if [u = v]. *)

val is_input_edge : t -> int -> int -> bool
(** Is {u, v} an input-graph edge? *)

val kt0_circulant : ?ids:int array -> Bcclb_graph.Graph.t -> t
(** KT-0 instance over the canonical circulant wiring
    (port p of v → v+p+1 mod n); the shared background wiring of all
    census-level instances. Default IDs are 1..n: the wiring tables and
    IDs are then built and validated once per n and shared, and only the
    input marking is checked per instance. With [?ids] everything is
    built and validated afresh. *)

val kt0_circulant_sweep : int -> (int * int) array -> t
(** [kt0_circulant_sweep n] returns a stamp over the same shared,
    validated tables: applied to a per-vertex cycle-neighbour table (the
    two input-graph neighbours of each vertex of a 2-regular instance),
    it builds the same instance [kt0_circulant (Cycles.to_graph ...)]
    would, without the graph construction, checking the table in O(n).
    The hot constructor behind the core layer's census sweeps.
    @raise Invalid_argument if the table is not 2-regular (a pair out
    of range, repeated, naming the vertex itself, or not mutual). *)

val kt0_random : ?ids:int array -> Bcclb_util.Rng.t -> Bcclb_graph.Graph.t -> t
(** KT-0 instance with independently random port numbering at every
    vertex — the adversarial wiring freedom of the KT-0 model. *)

val kt1_of_graph : ?ids:int array -> Bcclb_graph.Graph.t -> t
(** KT-1 instance; the wiring is forced by the IDs. *)

val input_graph : t -> Bcclb_graph.Graph.t
(** The input graph (on vertex indices). *)

val view : ?coins_seed:int -> t -> int -> View.t
(** Initial knowledge of vertex [v]; every vertex of a run must receive
    the same [coins_seed] (public-coin model). *)

val validate : t -> t
(** Re-check all structural invariants (clique wiring, symmetric port
    maps, symmetric input flags, distinct IDs, KT-1 ID-ordering).
    @raise Invalid_argument describing the violation. *)

val independent : t -> int * int -> int * int -> bool
(** Definition 3.2: both pairs are input edges with four distinct
    endpoints, and neither diagonal is an input edge. *)

val cross : t -> int * int -> int * int -> t
(** The port-preserving crossing I(e₁, e₂) of Definition 3.3, for directed
    input edges e₁ = (v₁, u₁) and e₂ = (v₂, u₂): input edges e₁, e₂ are
    replaced by (v₁, u₂), (v₂, u₁) and the wiring is rewired so that every
    vertex's per-port view is unchanged.
    @raise Invalid_argument if the edges are not independent or the
    instance is KT-1 (where ports are pinned to IDs). *)

val equal : t -> t -> bool
(** Same knowledge, IDs, wiring, and input marking. *)
