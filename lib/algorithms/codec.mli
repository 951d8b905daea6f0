(** Bit-level encoding helpers shared by the BCC(1) algorithms: integers
    are broadcast big-endian over consecutive rounds, one bit per round. *)

val bit_of_int : width:int -> pos:int -> int -> bool
(** Bit [pos] (0 = most significant) of a [width]-bit integer.
    @raise Invalid_argument out of range. *)

val msg_of_bit : bool -> Bcclb_bcc.Msg.t
(** {!Bcclb_bcc.Msg.of_bit}: the shared 1-bit messages, no allocation. *)

val decode : Bcclb_bcc.Inbox.t -> port:int -> first:int -> width:int -> int * bool
(** [decode inbox ~port ~first ~width]: the integer broadcast big-endian
    in rounds [first..first+width−1] by the sender behind [port] —
    {!Bcclb_bcc.Inbox.bits}, read in place on the run's board (no
    per-port copy, no private history). Returns [(value, complete)];
    rounds not heard and silent rounds decode as 0 bits with
    [complete = false], so truncated algorithms can fall back to
    guessing. *)

val decode_ports : Bcclb_bcc.Inbox.t -> int array -> first:int -> width:int -> int array
(** [decode_ports inbox ports ~first ~width]: the values {!decode} reads
    completely behind each of [ports], ascending; incomplete ones are
    dropped. How the discovery family reads its neighbours' broadcasts
    off the port row {!Bcclb_bcc.View.input_ports}. *)

val id_width : n:int -> int
(** Bits needed for IDs under the repository's default ID space 1..n. *)
