(** Bit-level encoding helpers shared by the BCC(1) algorithms: integers
    are broadcast big-endian over consecutive rounds, one bit per round. *)

val bit_of_int : width:int -> pos:int -> int -> bool
(** Bit [pos] (0 = most significant) of a [width]-bit integer.
    @raise Invalid_argument out of range. *)

val msg_of_bit : bool -> Bcclb_bcc.Msg.t

type history
(** The broadcasts a vertex has heard, indexed by round and port and
    decoded in place. *)

val history : Bcclb_bcc.Msg.t array list -> history
(** [history inboxes] from inboxes newest first, the oldest of which
    carries the round-1 broadcasts: algorithms skip the all-silent inbox
    they consume in round 1, and [finish] adds the final inbox. Linear
    in the number of rounds, independent of the number of ports. *)

val decode : history -> port:int -> first:int -> width:int -> int * bool
(** [decode h ~port ~first ~width]: the integer broadcast big-endian in
    rounds [first..first+width−1] by the sender behind [port]. Returns
    [(value, complete)]; missing or silent rounds decode as 0 bits with
    [complete = false], so truncated algorithms can fall back to
    guessing. *)

val id_width : n:int -> int
(** Bits needed for IDs under the repository's default ID space 1..n. *)
