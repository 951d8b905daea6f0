(** Length-prefixed, checksummed binary framing.

    Every byte that crosses a dist socket travels inside a frame:

    {v
      offset  size  field
      0       4     magic   "BCLB"
      4       1     protocol version (currently 2)
      5       4     payload length, big-endian
      9       4     CRC-32 (IEEE) of the payload, big-endian
      13      len   payload bytes
    v}

    The CRC is verified {e before} the payload reaches any decoder, so a
    torn write, a truncated stream or a flipped bit is rejected here and
    never fed to [Marshal] (see {!Msg}). A version byte other than
    {!version} is refused outright — two builds speaking different
    protocols fail fast instead of exchanging garbage. Decode errors are
    sticky on a stream: once a frame is bad, byte boundaries are gone
    and the connection is useless. *)

type error =
  | Closed  (** Clean EOF on a frame boundary. *)
  | Truncated  (** EOF or end-of-string mid-frame. *)
  | Bad_magic
  | Bad_version of int  (** The version byte that was seen. *)
  | Bad_crc
  | Oversized of int  (** Declared payload length beyond 1 GiB. *)
  | Trailing of int  (** [decode] only: bytes left over after the frame. *)

val error_to_string : error -> string

val version : int
val header_size : int
(** 13 bytes. *)

val crc32 : string -> int
(** IEEE CRC-32 (the zlib/PNG polynomial), as an unsigned 32-bit value
    in an OCaml [int]. *)

val encode : string -> string
(** Frame a payload. @raise Invalid_argument beyond 1 GiB. *)

val decode : string -> (string, error) result
(** Decode exactly one frame: the whole string must be the frame —
    shorter is [Truncated], longer is [Trailing]. The property-test
    surface; streams use {!Reader} or {!read_frame}. *)

(** Incremental decoder for a nonblocking stream: feed whatever bytes
    arrived, pop zero or more complete frames. Errors are sticky. *)
module Reader : sig
  type t

  val create : unit -> t

  val feed : t -> bytes -> pos:int -> len:int -> unit

  val next : t -> (string option, error) result
  (** [Ok None] — no complete frame buffered yet; [Ok (Some payload)] —
      one frame consumed; [Error _] — the stream is poisoned (every
      subsequent call returns the same error). *)
end

val write_frame : Unix.file_descr -> string -> unit
(** Blocking framed write (handles short writes and [EINTR]).
    @raise Unix.Unix_error as [write] does — [EPIPE] means the peer died. *)

val read_frame : Unix.file_descr -> (string, error) result
(** Blocking read of one frame. [Error Closed] on EOF at a frame
    boundary, [Error Truncated] on EOF inside one. *)
