(* The endpoint layer under the dist runtime: socket setup and framed
   I/O for the coordinator's listener, the worker's dial-back and
   listen endpoint, and the metrics endpoint. A [listener] owns
   bind/listen/accept and the unlink of a unix-domain socket path; a
   [Conn.t] owns one connected fd, its incremental {!Wire} reader and a
   last-activity clock for heartbeat deadlines. The SIGINT/SIGTERM stop
   flag of the drain-and-unlink shutdown lives here too
   ({!install_stop_signals}). *)

module Obs = Bcclb_obs

let now () = Obs.Mclock.ns_to_s (Obs.Mclock.now_ns ())

type listener = { lfd : Unix.file_descr; laddr : Addr.t; mutable lclosed : bool }

let listener_fd l = l.lfd
let listener_addr l = l.laddr

let close_listener l =
  if not l.lclosed then begin
    l.lclosed <- true;
    (try Unix.close l.lfd with Unix.Unix_error _ -> ());
    match l.laddr with
    | Addr.Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Addr.Tcp _ -> ()
  end

let listen ?(backlog = 64) addr =
  match
    let fd = Unix.socket ~cloexec:true (Addr.domain addr) Unix.SOCK_STREAM 0 in
    (try
       (match addr with
       | Addr.Unix_socket _ -> ()
       | Addr.Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
       Unix.bind fd (Addr.sockaddr addr);
       Unix.listen fd backlog
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd
  with
  | exception Unix.Unix_error (err, _, _) ->
    Error
      (Printf.sprintf "cannot listen on %s: %s" (Addr.to_string addr) (Unix.error_message err))
  | exception Failure msg -> Error msg
  | fd ->
    (* An ephemeral TCP port (0) resolves here so the caller learns the
       address it can actually print. *)
    let addr =
      match (addr, Unix.getsockname fd) with
      | Addr.Tcp (host, 0), Unix.ADDR_INET (_, port) -> Addr.Tcp (host, port)
      | _ -> addr
    in
    Ok { lfd = fd; laddr = addr; lclosed = false }

let sock_counter = Atomic.make 0

(* A fresh local endpoint nobody else can be squatting on: a unique
   socket path in $TMPDIR, or a kernel-chosen loopback TCP port. *)
let listen_local transport =
  let addr =
    match transport with
    | `Unix_socket ->
      let path =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "bcclb-dist-%d-%d.sock" (Unix.getpid ())
             (Atomic.fetch_and_add sock_counter 1))
      in
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      Addr.Unix_socket path
    | `Tcp -> Addr.Tcp ("127.0.0.1", 0)
  in
  match listen addr with
  | Ok l -> l
  | Error e -> failwith ("dist: " ^ e)

module Conn = struct
  type t = {
    fd : Unix.file_descr;
    reader : Wire.Reader.t;
    mutable last_seen : float;
    mutable closed : bool;
  }

  let of_fd fd = { fd; reader = Wire.Reader.create (); last_seen = now (); closed = false }

  let fd t = t.fd
  let is_closed t = t.closed
  let idle_for ~now:t_now t = t_now -. t.last_seen

  let close t =
    if not t.closed then begin
      t.closed <- true;
      try Unix.close t.fd with Unix.Unix_error _ -> ()
    end

  (* A fresh socket per attempt: a fd whose connect failed is not
     reusable. Retries cover scheduler lag between a coordinator
     listening and its spawned workers dialing back (and the converse
     for pre-started rosters). *)
  let dial ?(tries = 20) addr =
    let rec go tries =
      match Unix.socket ~cloexec:true (Addr.domain addr) Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error (err, _, _) ->
        Error (Printf.sprintf "socket: %s" (Unix.error_message err))
      | fd -> (
        match Unix.connect fd (Addr.sockaddr addr) with
        | () -> Ok (of_fd fd)
        | exception
            Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.ETIMEDOUT), _, _)
          when tries > 0 ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Unix.sleepf 0.05;
          go (tries - 1)
        | exception Unix.Unix_error (err, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error
            (Printf.sprintf "cannot connect to %s: %s" (Addr.to_string addr)
               (Unix.error_message err))
        | exception Failure msg ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error msg)
    in
    go tries

  let send t payload = Wire.write_frame t.fd payload
  let recv t = Wire.read_frame t.fd

  (* Nonblocking drain for poll-driven loops: read what the kernel has,
     feed the incremental reader, deliver every complete frame.
     [on_frame] may [close] the conn mid-drain; pumping stops there.
     Framing errors are returned, not raised — the caller decides
     whether a poisoned peer is fatal. *)
  let pump ?on_bytes t ~buf ~on_frame =
    if t.closed then `Closed
    else
      match Unix.read t.fd buf 0 (Bytes.length buf) with
      | 0 -> `Eof
      | k ->
        (match on_bytes with Some f -> f k | None -> ());
        Wire.Reader.feed t.reader buf ~pos:0 ~len:k;
        t.last_seen <- now ();
        let rec drain () =
          if t.closed then `Closed
          else
            match Wire.Reader.next t.reader with
            | Ok None -> `Ok
            | Ok (Some payload) ->
              on_frame payload;
              drain ()
            | Error e -> `Error (Wire.error_to_string e)
        in
        drain ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> `Ok
      | exception Unix.Unix_error (err, _, _) -> `Error (Unix.error_message err)
end

(* Nonblocking accept sweep; the listener fd must be nonblocking. *)
let accept_all l ~on_conn =
  let rec go () =
    match Unix.accept ~cloexec:true l.lfd with
    | fd, _ ->
      on_conn (Conn.of_fd fd);
      go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  go ()

(* ---- the SIGINT/SIGTERM stop flag ----

   The handler only flips the flag; the caller polls it, drains its
   in-flight work, and closes its listener (which unlinks a unix socket
   path). A trace flush does file I/O and must not run in signal
   context, so the span buffer is flushed by an [at_exit] hook instead:
   whichever way the drained process leaves (normal return, [exit 0],
   even a Fatal's [exit 3]), an active file-backed trace is written out
   rather than lost. Registered once, from the first
   [install_stop_signals]. *)

let trace_flush_registered = Atomic.make false

let install_stop_signals () =
  let flag = Atomic.make false in
  let handler = Sys.Signal_handle (fun _ -> Atomic.set flag true) in
  Sys.set_signal Sys.sigint handler;
  Sys.set_signal Sys.sigterm handler;
  if not (Atomic.exchange trace_flush_registered true) then
    at_exit (fun () -> Obs.Trace.stop ());
  flag

let stop_requested flag = Atomic.get flag
