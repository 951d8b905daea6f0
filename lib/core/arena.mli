(** Interned arena of the §3.1 instance sets V₁/V₂ with integer handles,
    plus the on-disk store of V₁'s rotation-orbit representatives.

    The census is enumerated once per arena (in {!Census} order, so
    handles agree with every array-indexed census consumer), two-cycle
    structures are deduplicated behind packed canonical keys (4 bits
    per coordinate, one machine word up to n = 15), and crossing
    successors of a one-cycle instance resolve by hash lookup of the
    crossed key — computed arithmetically from the arc decomposition,
    allocating nothing. Broadcast codes (2 bits per round,
    {!Bcclb_bcc.Simulator.run_sent_codes}) are computed once per
    (algorithm name, seed, atlas) as single-flight pool batches: each
    distinct execution runs once per process, and sibling truncations
    read the codes of their family's deepest member. That is what makes
    {!Indist_graph} cheap.

    Every memo here is a {!Bcclb_engine.Pool.shared} batch kept for the
    life of the process and keyed by what it depends on: [arena|n] for
    {!get}, [arena<id>.orbit_one] and [arena<id>.rotations] for an
    arena's atlas and rotation maps, [arena<id>.codes|…] for its codes
    and [orbit|n|root] for {!Orbit.get}. A caller therefore waits only
    for the key it needs, and an arena ({!t}) is an immutable value.

    On top of the full census, {!orbit_one} tabulates the rotation-orbit
    atlas of V₁ (representatives, weights, and the rotation taking each
    handle back to its representative) and {!rotation_map_two} the
    induced V₂ handle permutations. An {!atlas} names the representatives
    {!Indist_graph} computes on: the rotation classes where
    {!rotation_sound}, else every instance. The {!Orbit} submodule is the
    arena's past-the-census form: a checksummed store of just the
    representatives and weights, reaching n = 13 where materialising the
    census is impossible. *)

type handle = int
(** Index into the arena's V₁ or V₂ array (context disambiguates). *)

type t

val min_n : int
(** 6 — below this V₂ is empty and §3 is vacuous. *)

val max_n : int
(** 15: the largest n whose packed canonical keys fit one word. *)

val supported : n:int -> (unit, string) result
(** Range check with a human-readable refusal — what the CLI surfaces
    before any enumeration starts. *)

val create : n:int -> t
(** Enumerate and intern both censuses.
    @raise Invalid_argument outside [min_n..max_n] (the {!supported}
    message). *)

val get : n:int -> t
(** The process-wide shared arena for [n], created on first use —
    census enumeration and the executions are per-n facts, so sweeps
    that rebuild indistinguishability graphs (different t, same n)
    enumerate once and run each distinct execution once. Thread-safe.
    Use {!create} only when isolation is required: a created arena
    shares no batch with any other. *)

val n : t -> int
val n_one : t -> int
val n_two : t -> int

val one_structure : t -> handle -> Bcclb_graph.Cycles.t
val two_structure : t -> handle -> Bcclb_graph.Cycles.t

val one_structures : t -> Bcclb_graph.Cycles.t array
val two_structures : t -> Bcclb_graph.Cycles.t array
(** The interned census arrays themselves (Census order). Do not mutate. *)

val one_cycle : t -> handle -> int array
(** The single canonical cycle of a V₁ structure. Do not mutate. *)

val key_two : Bcclb_graph.Cycles.t -> int
(** Packed canonical key of a two-cycle structure:
    [len c₁ | c₁ minus leading 0 | c₂], 4 bits per coordinate, LSB-first.
    @raise Invalid_argument if not a two-cycle structure or n > 15. *)

val cross_key : int array -> int -> int -> int
(** [cross_key cyc i j] = [key_two (Census.cross_one_cycle cyc i j)]
    (i > j allowed) without allocating anything.
    @raise Invalid_argument under the same conditions as
    {!Census.cross_one_cycle}. *)

module Key_tbl : Hashtbl.S with type key = int
(** Hash tables keyed by packed keys (or any int): int equality and a
    multiplicative hash, no polymorphic hashing or compare. *)

val two_handle : t -> key:int -> handle
(** Resolve a packed key to its V₂ handle.
    @raise Invalid_argument if the key interns nothing. *)

val cross_handle : t -> int array -> int -> int -> handle
(** [two_handle ~key:(cross_key cyc i j)]. *)

type orbit_one = {
  reps : handle array;  (** V₁ handles of the representatives, ascending. *)
  weights : int array;  (** Orbit sizes; Σ = (n−1)!/2. *)
  rep_of : int array;  (** V₁ handle → index into [reps]. *)
  shift_of : int array;  (** V₁ handle → c with rotate c (rep) = handle. *)
  flip_of : bool array;
      (** V₁ handle → did re-canonicalising the rotated cycle reverse its
          traversal? Orientation-sensitive consumers (the labelled
          G^t_{x,y} with x ≠ y) must swap (x, y) for flipped members;
          orientation-free ones (the full graph) can ignore it. *)
}
(** The V₁ rotation-orbit atlas. Census order is lexicographic, so each
    orbit's representative is its smallest handle. *)

val orbit_one : t -> orbit_one
(** Tabulated on first use, then shared (thread-safe). *)

val rotation_map_two : t -> int -> int array
(** [rotation_map_two t c].(h) is the V₂ handle of the rotation by [c]
    of structure [h] — the handle permutation that maps a
    representative's adjacency row to any orbit member's. ρ₁'s keys come
    from the same allocation-free canonicaliser as {!cross_key}; every
    other shift composes it, ρ_c(h) = ρ₁(ρ_{c−1}(h)). All n maps are
    built in one loop on first use, then shared (thread-safe). *)

val rotation_sound : 'o Bcclb_bcc.Algo.packed -> n:int -> bool
(** Are the algorithm's transcripts rotation-equivariant on the circulant
    wiring — is it anonymous ({!Bcclb_bcc.Algo.anonymous}) or at
    rounds = 0? The one condition under which a V₁ rotation class may be
    computed on through its representative ({!Rotations}, and the
    orbit-reduced {!Quotient} and [Crossing_check.check_reps] sweeps). *)

(** The V₁ instances a §3 computation executes and sweeps — its
    representatives — and how every V₁ handle is reached from one. *)
type atlas =
  | Instances  (** Every handle is its own representative. *)
  | Rotations of orbit_one  (** V₁'s rotation classes; sound only under {!rotation_sound}. *)

val atlas : t -> 'o Bcclb_bcc.Algo.packed -> atlas
(** {!Rotations} when {!rotation_sound}, else {!Instances}. *)

val num_reps : t -> atlas -> int

val rep : atlas -> int -> handle
(** The V₁ handle of the [ri]-th representative. *)

val rep_weight : atlas -> int -> int
(** How many V₁ instances the [ri]-th representative stands for. *)

val reverses : atlas -> bool
(** Can a member be its representative traversed in reverse? Only
    {!Rotations}: orientation-sensitive rows (the labelled G^t_{x,y}
    with x ≠ y) then need the representative's (y, x) row too. *)

val expand :
  t -> atlas -> fwd:handle array array -> rev:handle array array -> handle array array
(** One V₂ row per V₁ handle from the representatives' rows: [fwd.(ri)]
    is representative [ri]'s row and [rev.(ri)] the same read in reverse
    orientation (pass [fwd] again where orientation does not matter). A
    flipped member starts from [rev], and a rotated member's row is
    pushed through {!rotation_map_two}. On {!Instances} the result is
    [fwd] itself: no rotation map, no copy. *)

val code_source : ?deepest:int -> 'o Bcclb_bcc.Algo.packed -> n:int -> 'o Bcclb_bcc.Algo.packed
(** The execution whose codes serve the algorithm: the [deepest]-round
    member of its truncation family ({!Bcclb_bcc.Algo.deepen}) when that
    member runs more rounds, has the same {!rotation_sound} verdict (so
    the same atlas) and is codable — else the algorithm itself. Its codes
    restricted to the low 2·rounds bits are the algorithm's own: the
    simulator packs round r at bits 2(r−1), and members of one family
    agree on every round both run. *)

val codes :
  t -> atlas -> ?seed:int -> ?deepest:int -> 'o Bcclb_bcc.Algo.packed -> int array array * int
(** [(codes, mask)]: per-representative, per-vertex packed broadcast
    codes of the {!code_source} execution, indexed by representative,
    and the mask that restricts them to the algorithm's own rounds
    ([code land mask] is the algorithm's code). Computed once per
    (arena, source name, seed, atlas) as a single-flight
    {!Bcclb_engine.Pool.shared} batch — concurrent callers share its
    executions, later ones read the stored result — under span
    [arena.codes] for {!Instances} and [arena.codes_reps] for
    {!Rotations}. Requires a codable algorithm ({!require_codable});
    raises as {!Bcclb_bcc.Simulator.run_sent_codes} otherwise. *)

val require_codable : string -> 'o Bcclb_bcc.Algo.packed -> n:int -> unit
(** [require_codable who algo ~n] accepts a codable algorithm: bandwidth
    ≤ 1 and ≤ 31 declared rounds, so its broadcast sequences pack into
    one machine word per vertex.
    @raise Invalid_argument naming [who], the algorithm and both limits
    otherwise. *)

(** The store of V₁'s rotation-orbit representatives, past the census.

    One fixed-width record per representative — the canonical cycle minus
    its leading 0 at 4 bits per vertex (⌈log₂ n⌉ past n = 16), then a
    weight byte — held as one resident string. Each (n, root) keeps it as
    one file, [<root>/nNN-<hash>.orbit] under [results/cache/arena] by
    default, named by the format version, n and width: a header line
    [<spec> reps=R weight=W crc=C], then the records. A warm process
    reads the file whole, so re-runs never pay the enumeration scan (the
    dominant cold cost at n ≥ 12). A build counts its representatives in
    [arena.orbit.reps] under span [arena.orbit.build]. *)
module Orbit : sig
  type store

  val max_n : int
  (** 13 — the exhaustive frontier: ~18.4M representatives standing for
      the 239.5M instances of V₁. *)

  val create : ?root:string -> n:int -> unit -> store
  (** Open warm from a valid file, else enumerate (branch-parallel over
      the pool) and publish. A file is valid when its header names this
      spec, its records have the length and CRC-32 the header records,
      and the header's Σ weight is (n−1)!/2; any other file is rebuilt
      in place. A build is written to a temporary file in the root and
      renamed over the path, so concurrent builders and readers, domains
      or processes, only ever see a whole store.
      @raise Invalid_argument outside [3..max_n]. *)

  val get : ?root:string -> n:int -> unit -> store
  (** Shared per-(n, root) store, created on first use. Thread-safe. *)

  val n_reps : store -> int
  (** Number of representatives (records). *)

  val total_weight : store -> int
  (** Σ weights = |V₁| = (n−1)!/2 — validated on open against the closed
      form. *)

  val warm : store -> bool
  (** True when the store was read from its file without enumeration. *)

  val iter : store -> (int array -> weight:int -> unit) -> unit
  (** Stream every representative in store order: the callback receives
      the canonical cycle (a scratch buffer valid only for the duration
      of the call — copy to retain) and the orbit size. *)

  val iter_range : store -> lo:int -> hi:int -> (int array -> weight:int -> unit) -> unit
  (** {!iter} restricted to records [lo..hi-1] — the unit of parallel
      consumption: workers map over record ranges.
      @raise Invalid_argument unless [0 <= lo <= hi <= n_reps]. *)
end
