(** Exhaustive census of the §3.1 instance sets V₁ (one-cycle input
    graphs) and V₂ (two-disjoint-cycle input graphs) on [n] labelled
    vertices, with the structure-level crossing operations that link them.

    Instances are canonical {!Bcclb_graph.Cycles.t} values over the shared
    circulant background wiring (DESIGN.md): Lemma 3.9's counting and the
    indistinguishability graph of Definition 3.6 live at this level, while
    the full port-rewiring semantics of crossings is exercised separately
    through {!Bcclb_bcc.Instance.cross}. *)

val iter_one_cycles : n:int -> (Bcclb_graph.Cycles.t -> unit) -> unit
(** All (n−1)!/2 one-cycle instances. @raise Invalid_argument for n < 3. *)

val one_cycles : n:int -> Bcclb_graph.Cycles.t array

val iter_two_cycles : n:int -> (Bcclb_graph.Cycles.t -> unit) -> unit
(** All two-cycle instances (both lengths ≥ 3), each exactly once.
    @raise Invalid_argument for n < 6. *)

val two_cycles : n:int -> Bcclb_graph.Cycles.t array

(** {2 Rotation orbits}

    The label rotations ρ_c : v ↦ v+c (mod n) are automorphisms of the
    circulant background wiring, so anonymous algorithms
    ({!Bcclb_bcc.Algo.anonymous}) have rotation-equivariant transcripts
    and every census sum collapses to a weighted sum over one
    representative per rotation class — a factor-≈n reduction that is
    what carries the exhaustive §3 pipeline past n = 12. Representatives
    are the {!Bcclb_graph.Cycles.compare_t}-minimal rotations; weights
    are class sizes (divisors of n, and Σ weight = census size). *)

val rotate : n:int -> int -> Bcclb_graph.Cycles.t -> Bcclb_graph.Cycles.t
(** [rotate ~n c s]: apply v ↦ v+c (mod n) and re-canonicalise. *)

val is_orbit_rep : n:int -> Bcclb_graph.Cycles.t -> bool
(** Is [s] minimal among its n rotations? *)

val orbit_size : n:int -> Bcclb_graph.Cycles.t -> int
(** Number of distinct structures among the n rotations of [s]
    (n / |stabiliser|, so always a divisor of n). *)

val orbit_rep : n:int -> Bcclb_graph.Cycles.t -> Bcclb_graph.Cycles.t
(** The minimal rotation of [s] — the class representative. *)

val iter_one_cycle_orbits : ?second:int -> n:int -> (int array -> weight:int -> unit) -> unit
(** One representative per rotation class of V₁ with its class size;
    Σ weight = (n−1)!/2. The callback receives the representative's
    canonical cycle as a scratch buffer valid only for the duration of
    the call (copy to retain; [Cycles.of_canonical [ Array.copy seq ]] is
    its structure). [second] restricts to canonical sequences whose
    second vertex is the given value — the slices over
    [second ∈ 1..n−1] partition the enumeration, so workers can scan
    branches in parallel. @raise Invalid_argument for n < 3. *)

val to_instance : ?ids:int array -> Bcclb_graph.Cycles.t -> n:int -> Bcclb_bcc.Instance.t
(** KT-0 instance of the structure over the circulant background wiring. *)

val cross_one_cycle : int array -> int -> int -> Bcclb_graph.Cycles.t
(** [cross_one_cycle cyc i j]: cross the directed cycle edges
    (cᵢ, cᵢ₊₁) and (cⱼ, cⱼ₊₁), splitting into two cycles. Defined iff
    both arcs have length ≥ 3 — exactly edge independence on a cycle.
    @raise Invalid_argument otherwise. *)

val cross_two_cycles : int array -> int array -> int -> int -> Bcclb_graph.Cycles.t
(** Cross edge i of the first cycle with edge j of the second, merging
    them into one cycle (always independent across disjoint cycles).
    @raise Invalid_argument on bad indices. *)

val t_i_counts : n:int -> (int * int) list
(** Exact |Tᵢ| (two-cycle instances with smaller cycle length i) by
    direct enumeration — the quantity Lemma 3.9's proof double-counts. *)

val num_one_cycles : n:int -> int
(** |V₁| = (n−1)!/2 in closed form. *)

val t_i_closed_form : n:int -> (int * int) list
(** |Tᵢ| = C(n,i)·(i−1)!/2·(n−i−1)!/2 (halved when i = n−i) — agrees
    with {!t_i_counts} wherever enumeration is feasible, and is what the
    streaming quotient path uses where it is not.
    @raise Invalid_argument for n < 6. *)

val num_two_cycles : n:int -> int
(** |V₂| = Σᵢ |Tᵢ| in closed form. @raise Invalid_argument for n < 6. *)
