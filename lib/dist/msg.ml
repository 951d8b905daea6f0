(* See the .mli for the Marshal audit. The direction tag is one leading
   byte: 'C' on coordinator->worker payloads, 'W' on worker->coordinator
   ones. *)

type assignment = {
  cell : int;
  attempt : int;
  exp_id : string;
  params : Bcclb_harness.Params.t;
}

type to_worker =
  | Init of { cache_root : string option; trace : Bcclb_obs.Trace.context option }
  | Lease of { cells : assignment array; trace : Bcclb_obs.Trace.context option }
  | Revoke of { cells : int list }
  | Reject of { reason : string }
  | Shutdown

type from_worker =
  | Hello of { pid : int; fingerprint : string; cache_epoch : int }
  | Heartbeat
  | Result of { cell : int; outcome : Bcclb_harness.Runner.cell_outcome; seconds : float }
  | Cell_error of { cell : int; message : string }
  | Lease_done of {
      metrics : (string * Bcclb_obs.Metrics.value) list;
      spans : Bcclb_obs.Trace.event list;
    }
  | Bye of {
      metrics : (string * Bcclb_obs.Metrics.value) list;
      spans : Bcclb_obs.Trace.event list;
    }
  | Fatal of { message : string }

(* ---- the join handshake ----

   Wire.version catches a framing change; the fingerprint catches
   everything else — two binaries whose marshalled representations (or
   cell semantics) could disagree. A worker re-executes the
   coordinator's executable by path, so a rebuild landing on disk
   between the coordinator's start and a (re)spawn is the skew this
   catches: identical builds digest identically, anything else is
   refused at join time. The env override exists so tests can force a
   skew without building a second binary. *)

let fingerprint_env = "BCCLB_DIST_FINGERPRINT"

let fingerprint_lazy =
  lazy
    (match Sys.getenv_opt fingerprint_env with
    | Some s when String.trim s <> "" -> String.trim s
    | _ -> (
      try Digest.to_hex (Digest.file Sys.executable_name)
      with Sys_error _ | Unix.Unix_error _ -> "unreadable-executable"))

let fingerprint () = Lazy.force fingerprint_lazy

let handshake_error ~fingerprint:fp ~cache_epoch =
  if not (String.equal fp (fingerprint ())) then
    Some
      (Printf.sprintf
         "binary fingerprint mismatch (coordinator %s, worker %s) — worker and \
          coordinator run different builds"
         (fingerprint ()) fp)
  else if cache_epoch <> Bcclb_harness.Cache.format_epoch then
    Some
      (Printf.sprintf
         "cache format epoch mismatch (coordinator %d, worker %d) — rebuild the worker \
          before it writes into a shared cache"
         Bcclb_harness.Cache.format_epoch cache_epoch)
  else None

let hello () =
  Hello
    {
      pid = Unix.getpid ();
      fingerprint = fingerprint ();
      cache_epoch = Bcclb_harness.Cache.format_epoch;
    }

let tag_to_worker = 'C'
let tag_from_worker = 'W'

let with_tag tag marshalled = String.make 1 tag ^ marshalled

let to_worker_payload (m : to_worker) = with_tag tag_to_worker (Marshal.to_string m [])
let from_worker_payload (m : from_worker) = with_tag tag_from_worker (Marshal.to_string m [])

let decode ~expect ~what payload =
  if String.length payload < 1 then Error (what ^ ": empty payload")
  else if payload.[0] <> expect then
    Error (Printf.sprintf "%s: wrong direction tag %C" what payload.[0])
  else
    match Marshal.from_string payload 1 with
    | m -> Ok m
    | exception _ -> Error (what ^ ": undecodable payload")

let of_payload_to_worker payload : (to_worker, string) result =
  decode ~expect:tag_to_worker ~what:"to_worker" payload

let of_payload_from_worker payload : (from_worker, string) result =
  decode ~expect:tag_from_worker ~what:"from_worker" payload
