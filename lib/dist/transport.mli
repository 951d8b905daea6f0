(** Poll-driven endpoints over unix-domain and TCP sockets.

    Every socket the dist runtime opens goes through this layer: the
    coordinator's listener and its dial-outs to roster workers, the
    worker's dial-back and its [--listen] endpoint, and the metrics
    endpoint's listener. It owns accept/connect setup, {!Wire} framing
    over a connected fd, and activity clocks for heartbeat deadlines —
    plus the SIGINT/SIGTERM stop flag of the drain-and-unlink shutdown. *)

val now : unit -> float
(** Monotonic seconds ({!Bcclb_obs.Mclock}) — the clock every deadline
    in the dist runtime is measured on. *)

(** {2 Listeners} *)

type listener

val listen : ?backlog:int -> Addr.t -> (listener, string) result
(** Bind and listen on [addr] ([backlog] defaults to 64). TCP listeners
    set [SO_REUSEADDR]; a TCP port of [0] is resolved to the
    kernel-chosen port in {!listener_addr}. [Error] explains a
    bind/listen failure (e.g. a unix socket path that already
    exists). *)

val listen_local : [ `Unix_socket | `Tcp ] -> listener
(** A fresh local endpoint for self-populated rosters: a unique socket
    path under [$TMPDIR] ([bcclb-dist-<pid>-<n>.sock]) or an ephemeral
    loopback TCP port. @raise Failure if the kernel refuses. *)

val listener_fd : listener -> Unix.file_descr
val listener_addr : listener -> Addr.t

val close_listener : listener -> unit
(** Close the fd and unlink a unix-domain socket path. Idempotent. *)

(** {2 Connections} *)

module Conn : sig
  type t

  val of_fd : Unix.file_descr -> t
  (** Wrap an accepted fd; the activity clock starts now. *)

  val dial : ?tries:int -> Addr.t -> (t, string) result
  (** Connect to [addr], retrying refused/absent endpoints [tries]
      times (default 20) 50 ms apart (covers the race between a process
      listening and its peer dialing). A fresh socket per attempt — a
      failed connect poisons its fd. *)

  val fd : t -> Unix.file_descr
  val is_closed : t -> bool
  val close : t -> unit

  val idle_for : now:float -> t -> float
  (** Heartbeat-deadline support: seconds since the last byte
      arrived. *)

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

val accept_all : listener -> on_conn:(Conn.t -> unit) -> unit
(** Drain every pending connection (the listener fd must be in
    nonblocking mode); stops on [EAGAIN]. *)

(** {2 Drain-and-unlink shutdown} *)

val install_stop_signals : unit -> bool Atomic.t
(** Install SIGINT/SIGTERM handlers that set (and only set) the
    returned flag — the first half of the drain protocol shared by the
    listen-mode worker and [stats --follow]. Also registers
    (once per process) an [at_exit] hook calling
    {!Bcclb_obs.Trace.stop}, so a SIGTERM'd daemon that traces via
    [$BCCLB_TRACE] flushes a complete file on every exit path instead
    of losing its span buffer. *)

val stop_requested : bool Atomic.t -> bool
