(** Set partitions of the ground set [n] = {0, …, n−1}, the combinatorial
    heart of §4: inputs of the Partition, TwoPartition, and PartitionComp
    communication problems.

    The canonical representation is the {e restricted growth string}
    (RGS): an array [a] with [a.(0) = 0] and
    [a.(i) ≤ 1 + max(a.(0..i−1))], where [a.(i)] is the block index of
    element [i]. Equal partitions have equal arrays. *)

type t

val of_rgs : int array -> t
(** Validate and copy an RGS. @raise Invalid_argument if not an RGS. *)

val to_rgs : t -> int array
(** Fresh copy of the underlying RGS. *)

val of_labels : int array -> t
(** Partition induced by arbitrary block labels (renumbered into RGS). *)

val of_blocks : n:int -> int list list -> t
(** From explicit blocks. @raise Invalid_argument unless the blocks
    partition [0..n−1] exactly. *)

val blocks : t -> int list list
(** Blocks in order of first appearance, elements ascending. *)

val ground_size : t -> int
val num_parts : t -> int

val part_of : t -> int -> int
(** Block index of an element. *)

val same_part : t -> int -> int -> bool

val finest : int -> t
(** (0)(1)…(n−1) — Bob's fixed input in the Theorem 4.5 hard distribution. *)

val coarsest : int -> t
(** The one-block partition 1; [Partition] asks whether P_A ∨ P_B equals it. *)

val is_coarsest : t -> bool

val equal : t -> t -> bool

val join : t -> t -> t
(** P ∨ Q, the finest common coarsening (§1.1).
    @raise Invalid_argument on different ground sets. *)

val meet : t -> t -> t
(** P ∧ Q, the coarsest common refinement. *)

val refines : t -> t -> bool
(** [refines p q] iff every part of [p] is contained in a part of [q]. *)

val iter : n:int -> (t -> unit) -> unit
(** All Bₙ partitions in lexicographic RGS order. *)

val all : n:int -> t list

val count : n:int -> int
(** Bₙ by direct enumeration (use {!Bcclb_bignum.Combi.bell} beyond small n). *)

val rank : t -> int
(** Index in the {!iter} order; inverse of {!unrank}.
    @raise Invalid_argument for n > 20 (count overflows an int). *)

val unrank : n:int -> int -> t
(** Partition with the given index. @raise Invalid_argument out of range. *)

val random_uniform : Bcclb_util.Rng.t -> n:int -> t
(** Exactly uniform over all Bₙ partitions (n ≤ 20) — the hard
    distribution of Theorem 4.5. @raise Invalid_argument for n > 20. *)

val random_crp : Bcclb_util.Rng.t -> n:int -> t
(** Cheap non-uniform random partition (uniform RGS digits), any n; for
    stress tests where exact uniformity is irrelevant. *)

val to_string : t -> string
(** E.g. ["(0,1)(2)"] in the paper's notation. *)

val pp : Format.formatter -> t -> unit
