(* Live metrics exposition: a minimal HTTP/1.0 responder over the
   Transport listener, answering every request with the OpenMetrics
   rendering of the process-wide Metrics registry at scrape time.

   One acceptor domain, one short-lived connection per scrape — a
   Prometheus scrape (or `curl`, or `stats --follow`) connects, sends a
   request head, and reads the response to EOF. The request line is
   read only to drain it (any path answers the same body); malformed or
   silent clients are cut off by a receive timeout so a stuck scraper
   cannot wedge the acceptor. Stopping flips the flag, wakes the
   blocked acceptor with a throwaway connection, joins it, then closes
   and unlinks the listener. *)

module Obs = Bcclb_obs

let scrapes_metric = Obs.Metrics.Counter.v "obs.scrapes"

type t = {
  listener : Transport.listener;
  stopping : bool Atomic.t;
  stopped : bool Atomic.t;
  mutable acceptor : unit Domain.t option;
}

let address t = Transport.listener_addr t.listener

let content_type = "application/openmetrics-text; version=1.0.0; charset=utf-8"

let response_of body =
  Printf.sprintf "HTTP/1.0 200 OK\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n%s"
    content_type (String.length body) body

(* Read until the blank line ending the request head, EOF, the receive
   timeout, or a 4 KiB bound — whichever first. The head itself is
   discarded. *)
let drain_request fd =
  let buf = Bytes.create 512 in
  let seen = Buffer.create 128 in
  let rec go () =
    if Buffer.length seen < 4096 then
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> ()
      | k ->
        Buffer.add_subbytes seen buf 0 k;
        let s = Buffer.contents seen in
        let module S = String in
        let rec has_blank i =
          if i + 3 >= S.length s then false
          else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n' then
            true
          else has_blank (i + 1)
        in
        if not (has_blank 0) then go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error _ -> ()
  in
  go ()

let write_all fd s =
  let n = String.length s in
  let b = Bytes.of_string s in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let serve_one t fd =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.0 with Unix.Unix_error _ -> ());
  (try
     drain_request fd;
     if not (Atomic.get t.stopping) then begin
       Obs.Metrics.Counter.incr scrapes_metric;
       write_all fd (response_of (Obs.Expo.render (Obs.Metrics.snapshot ())))
     end
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let acceptor_loop t =
  let lfd = Transport.listener_fd t.listener in
  let rec loop () =
    if not (Atomic.get t.stopping) then begin
      match Unix.accept ~cloexec:true lfd with
      | fd, _ ->
        serve_one t fd;
        loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception Unix.Unix_error _ -> ()  (* listener closed under us *)
    end
  in
  loop ()

let start ~address () =
  match Transport.listen ~backlog:16 address with
  | Error e -> Error ("metrics: " ^ e)
  | Ok listener ->
    let t =
      { listener; stopping = Atomic.make false; stopped = Atomic.make false; acceptor = None }
    in
    t.acceptor <- Some (Domain.spawn (fun () -> acceptor_loop t));
    Ok t

let stop t =
  if not (Atomic.exchange t.stopped true) then begin
    Atomic.set t.stopping true;
    let addr = Transport.listener_addr t.listener in
    (match Unix.socket ~cloexec:true (Addr.domain addr) Unix.SOCK_STREAM 0 with
    | exception Unix.Unix_error _ -> ()
    | fd ->
      (try Unix.connect fd (Addr.sockaddr addr) with Unix.Unix_error _ | Failure _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ()));
    Option.iter Domain.join t.acceptor;
    Transport.close_listener t.listener
  end

let with_endpoint ~address f =
  Result.map
    (fun t -> Fun.protect ~finally:(fun () -> stop t) (fun () -> f t))
    (start ~address ())

(* ---- the scrape client ---- *)

let read_all fd =
  let buf = Bytes.create 8192 in
  let out = Buffer.create 8192 in
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> ()
    | k ->
      Buffer.add_subbytes out buf 0 k;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents out

let split_head raw =
  let rec find i =
    if i + 3 >= String.length raw then None
    else if raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r' && raw.[i + 3] = '\n'
    then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> Error "scrape: no header/body separator in response"
  | Some i ->
    let head = String.sub raw 0 i in
    let body = String.sub raw (i + 4) (String.length raw - i - 4) in
    let status_line =
      match String.index_opt head '\r' with Some j -> String.sub head 0 j | None -> head
    in
    (match String.split_on_char ' ' status_line with
    | _ :: "200" :: _ -> Ok body
    | _ -> Error ("scrape: non-200 response: " ^ status_line))

let scrape address =
  let timeout = 5.0 in
  match Unix.socket ~cloexec:true (Addr.domain address) Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) -> Error ("scrape: " ^ Unix.error_message e)
  | fd -> (
    let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
    Fun.protect ~finally @@ fun () ->
    try
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout;
      Unix.connect fd (Addr.sockaddr address);
      write_all fd "GET /metrics HTTP/1.0\r\nHost: bcclb\r\n\r\n";
      split_head (read_all fd)
    with
    | Unix.Unix_error (e, _, _) -> Error ("scrape: " ^ Unix.error_message e)
    | Failure e -> Error ("scrape: " ^ e))
