(* The endpoint layer under the dist runtime: socket setup and framed
   I/O for the coordinator's listener and the worker's dial-back. A
   [listener] owns bind/listen/accept and the unlink of its unix-domain
   socket path; a [Conn.t] owns one connected fd, its incremental
   {!Wire} reader and a last-activity clock for heartbeat deadlines. *)

module Obs = Bcclb_obs

let now () = Obs.Mclock.ns_to_s (Obs.Mclock.now_ns ())

type listener = { lfd : Unix.file_descr; path : string; mutable lclosed : bool }

let listener_fd l = l.lfd
let listener_path l = l.path

let close_listener l =
  if not l.lclosed then begin
    l.lclosed <- true;
    (try Unix.close l.lfd with Unix.Unix_error _ -> ());
    try Unix.unlink l.path with Unix.Unix_error _ -> ()
  end

let sock_counter = Atomic.make 0

(* A fresh endpoint nobody else can be squatting on: a unique socket
   path in $TMPDIR. *)
let listen_local () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "bcclb-dist-%d-%d.sock" (Unix.getpid ())
         (Atomic.fetch_and_add sock_counter 1))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fail err =
    failwith (Printf.sprintf "dist: cannot listen on %s: %s" path (Unix.error_message err))
  in
  let fd =
    try Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
    with Unix.Unix_error (err, _, _) -> fail err
  in
  (try
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd 64
   with Unix.Unix_error (err, _, _) ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     fail err);
  { lfd = fd; path; lclosed = false }

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
     listening and its spawned workers dialing back. *)
  let dial path =
    let rec go tries =
      match Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error (err, _, _) ->
        Error (Printf.sprintf "socket: %s" (Unix.error_message err))
      | fd -> (
        match Unix.connect fd (Unix.ADDR_UNIX path) with
        | () -> Ok (of_fd fd)
        | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) when tries > 0 ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Unix.sleepf 0.05;
          go (tries - 1)
        | exception Unix.Unix_error (err, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error (Printf.sprintf "cannot connect to %s: %s" path (Unix.error_message err)))
    in
    go 20

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
