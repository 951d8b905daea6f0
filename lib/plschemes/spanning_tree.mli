(** The BFS-tree proof-labeling scheme for Connectivity: labels
    (id, root, parent, dist), 4·⌈log₂(n+1)⌉ bits, verified in one
    broadcast round in either knowledge model. Complete and sound. *)

val scheme : Scheme.t

(**/**)

type fields = { id : int; root : int; parent : int; dist : int }

val encode : n:int -> fields -> string
val decode : n:int -> string -> fields option
