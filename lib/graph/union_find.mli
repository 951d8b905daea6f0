(** Disjoint-set forest with path compression and union by rank.

    The workhorse behind connected components, the join of set partitions
    (P_A ∨ P_B is computed by uniting within parts), and the correctness
    oracle for every connectivity algorithm in the repository. *)

type t

val create : int -> t
(** [create n]: n singleton sets {0}, …, {n−1}. *)

val components : t -> int
(** Current number of disjoint sets. *)

val union : t -> int -> int -> bool
(** Merge two sets; [true] iff they were distinct. *)

val same : t -> int -> int -> bool

val labels : t -> int array
(** [labels t].(v) is the smallest element of v's set — a canonical
    component labelling, the output format of ConnectedComponents. *)
