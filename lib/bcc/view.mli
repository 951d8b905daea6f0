(** A vertex's initial knowledge (§1.2).

    In KT-0 a vertex knows: its own ID, that there are n−1 ports, which
    ports carry input-graph edges, and a public random string. Port labels
    carry {e no} information about who is on the other side. In KT-1 it
    additionally knows all n IDs and the ID at the far end of every port.
    The KT-1 extras are simply absent from a KT-0 view, so an algorithm
    cannot access knowledge its model does not grant. *)

type kt1_info = {
  all_ids : int array;  (** All n IDs, sorted; shared, so do not mutate it. *)
  neighbor_ids : Port_row.t;  (** Port [p] leads to ID [Port_row.get neighbor_ids p]. *)
}

type t = {
  n : int;
  id : int;
  num_ports : int;
  input_ports : int array;
      (** The ports carrying input edges, ascending: the instance's own
          row, shared and not copied, so do not mutate it. *)
  kt1 : kt1_info option;
  coins : Bcclb_util.Rng.t;
}

val n : t -> int
val id : t -> int
val num_ports : t -> int

val is_input_port : t -> int -> bool
(** Binary search of {!input_ports}; allocates nothing.
    @raise Invalid_argument on out-of-range port. *)

val input_ports : t -> int array
(** Ports carrying input edges, ascending: the record's shared row, so
    do not mutate it. *)

val degree : t -> int
(** Input-graph degree: the length of {!input_ports}, O(1). *)

val kt1 : t -> kt1_info option

val neighbor_id : t -> int -> int
(** KT-1 only. @raise Invalid_argument in KT-0. *)

val all_ids : t -> int array
(** KT-1 only (fresh copy). @raise Invalid_argument in KT-0. *)

val index_of_id : t -> int -> int
(** KT-1 only: the ID's position in the sorted {!all_ids}, the shared
    vertex numbering of the KT-1 families. A binary search that copies
    nothing.
    @raise Not_found on an ID no vertex has, Invalid_argument in KT-0. *)

val coins : t -> Bcclb_util.Rng.t
(** Public-coin stream: every vertex of a run gets an identical copy. *)
