(** The coordinator/worker message vocabulary, and its (de)serializer.

    {b This is the repository's audited [Marshal] boundary for the
    wire.} The safety argument, in full: (1) payloads only reach
    {!of_payload_*} after {!Wire} has verified magic, protocol version
    and CRC, so random corruption is rejected before unmarshalling; (2)
    both ends are the {e same build} — a spawned worker re-executes the
    coordinator's own executable, and the fingerprint handshake below
    refuses one rebuilt on disk in between — so the marshalled
    representations agree; (3) a direction tag byte
    leads every payload, so a coordinator frame misrouted to
    coordinator code (or vice versa) is refused before
    [Marshal.from_string] can misinterpret it; (4) none of the carried
    types contain closures or custom blocks — they are ints, floats,
    strings, lists, arrays and records thereof. Do not add a message
    that violates (4). *)

type assignment = {
  cell : int;
  attempt : int;
  exp_id : string;
  params : Bcclb_harness.Params.t;
}
(** One cell of a lease: its index within the session, its experiment
    (resolved by the worker per assignment, so one session can serve a
    sweep over many experiments) and its parameters. [attempt] counts
    prior grants of this cell — fault injection only fires on
    [attempt = 0], which is what makes injected crashes recoverable and
    keeps a stolen-then-re-leased cell from re-firing. *)

type to_worker =
  | Init of { cache_root : string option; trace : Bcclb_obs.Trace.context option }
      (** First message after an accepted [Hello]: where the shared
          result cache lives ([None] = [--no-cache]) and — when the
          coordinator is tracing — the trace context the worker should
          buffer spans under ([Some] switches the worker to
          {!Bcclb_obs.Trace.start_collect} mode). *)
  | Lease of { cells : assignment array; trace : Bcclb_obs.Trace.context option }
      (** A batch of contiguous cells — a fair share of what remains, or
          a stolen tail — to be computed in order with one [Result]
          streamed back per cell. [trace] carries the coordinator's
          sweep span as the parent for the cells' spans. *)
  | Revoke of { cells : int list }
      (** Work stealing: stop holding these cells (they were re-leased
          to an idle worker). Cells already computed or in flight are
          simply not found in the local queue — the duplicate [Result]
          is settled by the coordinator's first-resolution rule. *)
  | Reject of { reason : string }
      (** The join handshake failed (fingerprint or cache-epoch skew);
          the worker exits. *)
  | Shutdown  (** No more work: send [Bye] and wind down. *)

type from_worker =
  | Hello of { fingerprint : string; cache_epoch : int }
      (** First frame on a fresh connection, carrying the join
          handshake: the worker binary's digest and its cache-entry
          format epoch, both checked against the coordinator's own
          before any work is leased. *)
  | Result of {
      cell : int;
      outcome : Bcclb_harness.Runner.cell_outcome;
      seconds : float;  (** Compute+probe seconds on the worker's clock. *)
    }
  | Cell_error of { cell : int; message : string }
      (** The cell function raised — a deterministic failure, reported
          and not retried (matching the in-process pool's contract). *)
  | Lease_done of {
      metrics : (string * Bcclb_obs.Metrics.value) list;
      spans : Bcclb_obs.Trace.event list;
    }
      (** The local queue drained; carries the {!Bcclb_obs.Metrics.delta}
          since the worker's previous shipment, absorbed live by the
          coordinator — which is why a crashed worker loses only the
          tail since its last completed lease. [spans] is the worker's
          drained trace buffer (empty when the coordinator is not
          tracing), ingested into the merged timeline the same way. *)
  | Bye of {
      metrics : (string * Bcclb_obs.Metrics.value) list;
      spans : Bcclb_obs.Trace.event list;
    }
      (** Goodbye, carrying the {e final} delta (everything since the
          last [Lease_done]), not a full snapshot — absorbing it cannot
          double-count what already streamed home. Same for [spans]. *)
  | Fatal of { message : string }
      (** The worker cannot serve at all (an assignment's unknown
          experiment id, bad fault spec); the coordinator aborts the
          sweep. *)

(** {2 Join handshake} *)

val fingerprint_env : string
(** ["BCCLB_DIST_FINGERPRINT"]. *)

val handshake_error : fingerprint:string -> cache_epoch:int -> string option
(** Check a [Hello]'s claims against this process: [Some reason] names
    the skew (binary fingerprint, then cache epoch) in the words the
    [Reject] should carry; [None] means the worker may join. *)

val hello : unit -> from_worker
(** The [Hello] this process sends: own fingerprint, own
    {!Bcclb_harness.Cache.format_epoch}. *)

(** {2 Payload codec} *)

val to_worker_payload : to_worker -> string
val from_worker_payload : from_worker -> string

val of_payload_to_worker : string -> (to_worker, string) result
val of_payload_from_worker : string -> (from_worker, string) result
(** [Error] on a wrong direction tag or an unmarshallable payload. *)
