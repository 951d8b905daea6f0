(** The connectivity oracle seam.

    Every per-instance component decision in the repository — the
    Borůvka-family merge loops, anonymous adjacency inference, the
    partition join, {!Graph.components} itself — goes through this one
    module, a thin view of the lock-free {!Bcclb_ufind.Ufind}. The
    sequential {!Union_find} disjoint-set forest is its test oracle:
    [union]'s merged/already-joined verdicts, [components] and the
    smallest-member labels agree with it on every union sequence.

    Representatives returned by {!find} depend on union order and
    balancing; use them only as opaque keys. *)

type t

val create : int -> t

val union : t -> int -> int -> bool
(** Merge; [true] iff the sets were distinct. *)

val find : t -> int -> int
(** Current representative: an opaque key. *)

val same : t -> int -> int -> bool

val components : t -> int

val labels : t -> int array
(** Canonical smallest-member labels. *)
