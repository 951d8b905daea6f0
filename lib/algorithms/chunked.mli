(** Chunked bit-payload broadcasting: the shared BCC(b) plumbing of the
    sketch families. A vertex's per-phase payload is a '0'/'1' string; it
    is broadcast b bits per round, MSB-first (the final chunk may be
    narrower). Receivers read a port's bits back off the run's board
    ({!payload}); MT, whose phases decode as they go, re-accumulates them
    in per-port buffers ({!absorb}). At b = 1 this degenerates to exactly
    the bit-at-a-time protocol the BCC(1) algorithms always spoke. *)

val check_bandwidth : string -> int -> unit
(** @raise Invalid_argument (prefixed with the algorithm name) unless
    1 ≤ b ≤ {!Bcclb_util.Bits.max_width}. *)

val rounds : bits:int -> bandwidth:int -> int
(** ⌈bits / bandwidth⌉. *)

val emit : bits:string -> bandwidth:int -> chunk:int -> Bcclb_bcc.Msg.t
(** The [chunk]-th (0-based) b-bit slice of the payload as a word. *)

val absorb : into:Buffer.t array -> Bcclb_bcc.Inbox.t -> unit
(** Append each port's word of the latest round heard to its buffer, bit
    by bit (silent ports contribute nothing). Used by MT only. *)

val payload : Bcclb_bcc.Inbox.t -> port:int -> string
(** Every bit heard through [port], rounds 1..[Inbox.rounds] in order
    (silent rounds contribute nothing): what {!absorb} would have
    accumulated over the whole run, read off the board once. *)
