(** Framed I/O over a worker's socketpair.

    Every connection the dist runtime uses is one end of the socketpair
    {!Backend.spawn_argv} makes when it spawns a worker: the coordinator
    keeps one end, the worker serves the other as its stdin. This layer
    owns {!Wire} framing over such an fd. *)

val now : unit -> float
(** Monotonic seconds ({!Bcclb_obs.Mclock}) — the clock every deadline
    in the dist runtime is measured on. *)

module Conn : sig
  type t

  val of_fd : Unix.file_descr -> t
  (** A connection over a connected stream socket; {!close} closes the
      fd. *)

  val fd : t -> Unix.file_descr
  val is_closed : t -> bool
  val close : t -> unit

  val send : t -> string -> unit
  (** One {!Wire} frame out, blocking. Raises [Unix.Unix_error] as
      [Wire.write_frame] does; callers that must survive a dead peer
      wrap it. *)

  val recv : t -> (string, Wire.error) result
  (** One frame in, blocking — the worker side. *)

  val pump :
    ?on_bytes:(int -> unit) ->
    t ->
    buf:Bytes.t ->
    on_frame:(string -> unit) ->
    [ `Ok | `Eof | `Closed | `Error of string ]
  (** Nonblocking drain — the coordinator side. Reads what the kernel
      has into [buf], feeds the incremental reader, calls [on_frame]
      per complete frame ([on_frame] may {!close} the conn; pumping
      stops there). [`Eof] on orderly close, [`Error] on a framing or
      I/O error (sticky — the conn should be destroyed). *)
end
