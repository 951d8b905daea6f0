(** Chunked bit-payload broadcasting: the shared BCC(b) plumbing of the
    sketch families. A vertex's per-phase payload is a '0'/'1' string; it
    is broadcast b bits per round, MSB-first (the final chunk may be
    narrower), and receivers re-accumulate each port's bits in a buffer.
    At b = 1 this degenerates to exactly the bit-at-a-time protocol the
    BCC(1) algorithms always spoke. *)

val check_bandwidth : string -> int -> unit
(** @raise Invalid_argument (prefixed with the algorithm name) unless
    1 ≤ b ≤ {!Bcclb_util.Bits.max_width}. *)

val rounds : bits:int -> bandwidth:int -> int
(** ⌈bits / bandwidth⌉. *)

val emit : bits:string -> bandwidth:int -> chunk:int -> Bcclb_bcc.Msg.t
(** The [chunk]-th (0-based) b-bit slice of the payload as a word. *)

val absorb : into:Buffer.t array -> Bcclb_bcc.Inbox.t -> unit
(** Append each port's word of the latest round heard to its buffer, bit
    by bit (silent ports contribute nothing). *)
