(** Lock-free concurrent union-find on OCaml-multicore atomics.

    The structure behind [Bcclb_graph.Conn], and so behind every
    per-instance component check — the OCaml equivalent of the
    plain-compare-and-swap variant that Alistarh, Fedorov and Koval
    measured fastest in "In Search of the Fastest Concurrent Union-Find
    Algorithm" (OPODIS 2019). Every current caller uses one structure
    from a single domain; the concurrent guarantees below are what this
    module's tests check.

    {2 Packed word layout}

    One [int Atomic.t] cell per element, holding {e either} a parent
    pointer {e or} a rank, distinguished by sign:

    {v
      value >= 0   non-root: value is the parent's index
      value <  0   root:     rank = -value - 1   (fresh cell: -1, rank 0)
    v}

    Packing both into a single word is what makes every transition one
    CAS: attaching a root under a new parent replaces its rank word by a
    parent pointer atomically, so no reader can observe a half-linked
    node, and a CAS that lost a race fails cleanly and retries against
    the winner's value.

    {2 Progress and linearizability}

    [find] uses path halving: each step tries to swing a node past its
    parent to its grandparent with a CAS whose failure is benign (some
    other operation already improved or changed the path), so finds are
    wait-free apart from helping traffic. [union] is lock-free: a CAS on
    a root fails only because a concurrent union linked that root first,
    i.e. the system made progress. [same_set] is read-only up to path
    halving and linearizes at the re-check of the first root: if
    [find u] and [find v] return distinct roots and [u]'s root is still
    a root afterwards, there was an instant during the call at which the
    two sets were disjoint.

    The structure never shrinks and elements cannot be added after
    [create]: grow by creating a larger one and replaying unions. *)

type t

val create : int -> t
(** [create n]: n singleton sets {0}, …, {n−1}.
    @raise Invalid_argument on a negative size. *)

val size : t -> int

val find : t -> int -> int
(** Representative of the element's set, compressing (halving) the path
    as it walks. Roots are stable only while no concurrent union links
    them; use {!same_set} to compare membership concurrently. *)

val union : t -> int -> int -> bool
(** Merge the two sets; [true] iff {e this call} performed the merge
    (its CAS was the linearization point). Under concurrent duplicate
    unions exactly one caller sees [true]. Union by rank; equal ranks
    tie-break toward the smaller root index so the sequential behaviour
    is deterministic. *)

val same_set : t -> int -> int -> bool
(** [same_set t u v] — were u and v in the same set at some instant
    during the call? Wait-free in the absence of concurrent unions
    touching u's or v's set; retries (with fresh finds) only when a
    racing union invalidated the witness root. *)

val components : t -> int
(** Number of disjoint sets: a scan counting roots. Exact while no
    unions are in flight (quiescent reads — end-of-build, stats); under
    concurrency it may count a set twice mid-merge. *)

val labels : t -> int array
(** Canonical labelling: [labels t].(v) is the {e smallest} element of
    v's set — the same canonical form as the sequential
    [Union_find.labels] parity oracle, so byte-identity of downstream
    reports reduces to partition equality. Quiescent use. *)

val of_edges : n:int -> (int * int) array -> t
(** [create n], then [union] over every edge. *)

val check_invariants : t -> (unit, string) result
(** Structural audit for tests (quiescent use): every parent chain
    reaches a root with no cycle, ranks strictly increase toward roots'
    upper bounds, and a root's rank never exceeds log2(size). [Error]
    names the first violation. *)
