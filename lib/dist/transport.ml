(* Framed I/O for the dist runtime: a [Conn.t] owns one end of a
   worker's socketpair and its incremental {!Wire} reader. *)

module Obs = Bcclb_obs

let now () = Obs.Mclock.ns_to_s (Obs.Mclock.now_ns ())

module Conn = struct
  type t = { fd : Unix.file_descr; reader : Wire.Reader.t; mutable closed : bool }

  let of_fd fd = { fd; reader = Wire.Reader.create (); closed = false }

  let fd t = t.fd
  let is_closed t = t.closed

  let close t =
    if not t.closed then begin
      t.closed <- true;
      try Unix.close t.fd with Unix.Unix_error _ -> ()
    end

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
