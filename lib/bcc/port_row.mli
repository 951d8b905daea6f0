(** One vertex's port row: what each port leads to (a vertex, or in a
    KT-1 view an ID), read in place from an array that all rows of an
    instance may share. Port [p] reads [cells.(offset + p)], or
    [cells.(offset + p + 1)] from [skip] on: the circulant wiring is a
    (2n − 1)-entry ring read from [offset = v + 1], KT-1 the vertices
    (or their IDs) in ID order with the vertex's own rank skipped, and a
    table row, an identity row or a row of learned IDs the array itself.
    A read is a comparison and an index: no variant, no closure. *)

type t

val of_array : int array -> t
(** Port [p] reads [a.(p)]. Shared, not copied: do not mutate it. *)

val window : int array -> offset:int -> skip:int -> ports:int -> t
(** Shared, not copied. @raise Invalid_argument if the cells read do not
    fit the array. *)

val ports : t -> int

val get : t -> int -> int
(** @raise Invalid_argument on a port outside 0..[ports] − 1. *)
