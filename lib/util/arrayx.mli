(** Array and list helpers used across the codebase. *)

val swap : 'a array -> int -> int -> unit

val init_matrix : int -> int -> (int -> int -> 'a) -> 'a array array

val matrix_copy : 'a array array -> 'a array array
(** Deep copy of a 2-d array. *)

val find_index : ('a -> bool) -> 'a array -> int option

val count : ('a -> bool) -> 'a array -> int

val sum : int array -> int

val rev_in_place : 'a array -> unit

val sort_uniq_prefix : int array -> int -> int
(** [sort_uniq_prefix a len] sorts [a.(0 .. len-1)] ascending in place,
    moves its distinct values to the front and returns their count.
    Allocation-free; quadratic in [len], so meant for short rows. *)

val rotate_left : 'a array -> int -> 'a array
(** Fresh array rotated left by [k] (any sign). *)

val take : int -> 'a list -> 'a list
(** First [n] elements (fewer if the list is shorter). *)

val range : int -> int -> int list
(** [range lo hi] is [lo; lo+1; …; hi-1]. *)
