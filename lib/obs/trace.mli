(** Lightweight span tracing with monotonic timestamps.

    A span wraps a function call: [span "arena.build" ~attrs f] records
    when [f] started, how long it ran, on which domain, and at what
    nesting depth. When no trace is active (the default) a span is one
    branch and a call to [f] — cheap enough to leave in production
    paths. When active, completed spans buffer in memory and
    {!stop} writes two files:

    - the Chrome [trace_event] file at the path given to {!start}
      (a JSON object with a ["traceEvents"] array of ["ph": "X"]
      complete events, microsecond timestamps relative to trace start) —
      loadable in Perfetto / [about:tracing];
    - a JSONL event log next to it ({!jsonl_path}): one JSON object per
      line, sorted by start time, with [name], [start_ns], [dur_ns],
      [pid], [tid] (domain id), [id], [parent], [depth] and [attrs].

    Spans form a tree that extends across processes: every span has a
    process-unique {!field-event.id} and records its parent's id, a
    {!context} (trace id + parent span id) travels over the dist wire,
    remote processes buffer spans in {!start_collect} mode and ship
    them home via {!drain}, and the originating process {!ingest}s them
    after mapping timestamps with {!offset_of_handshake}. Ingested
    events keep their own [pid], so the merged Perfetto timeline shows
    one lane per worker.

    [start]/[stop] must be called from quiescent points (before and
    after the traced workload) — the span hot path itself is safe from
    any domain. *)

type event = {
  name : string;
  attrs : (string * string) list;
  pid : int;  (** 0 while buffered locally; stamped by {!drain}/export *)
  tid : int;  (** domain id *)
  id : int;  (** process-unique span id (pid in the high bits) *)
  parent : int;  (** id of the enclosing span, 0 for roots *)
  start_ns : int;  (** relative to trace start (collect mode: raw monotonic) *)
  dur_ns : int;
  depth : int;  (** per-domain nesting depth at entry *)
}
(** Plain ints and strings only: events cross the dist wire inside
    [Marshal]ed messages (see [Dist.Msg]'s payload audit rule). *)

type context = { trace_id : string; parent_span : int }
(** Cross-process trace context: which trace, and which span the remote
    side should parent under. Marshal-safe. *)

val start : ?trace_id:string -> file:string -> unit -> unit
(** Begin collecting spans; {!stop} will write [file]. Replaces any
    trace already active (its events are dropped). A fresh trace id is
    generated unless one is supplied. *)

val start_collect : trace_id:string -> unit -> unit
(** Begin buffering spans without a file, timestamped with the raw
    monotonic clock (no [t0] subtraction) so the receiving side can
    apply a clock offset. {!stop} discards; use {!drain} to ship. *)

val start_from_env : ?var:string -> unit -> unit
(** [start_from_env ()] calls {!start} with the value of [$BCCLB_TRACE]
    (or [var]) when set and nonempty; otherwise does nothing. *)

val enabled : unit -> bool

val trace_id : unit -> string option
(** Id of the active trace, if any. *)

val context : unit -> context option
(** The active trace id plus the innermost span currently open on the
    calling domain (0 when at top level) — the value to embed in an
    outgoing lease or query so remote spans parent correctly. [None]
    when tracing is off. *)

val stop : unit -> unit
(** Write the Chrome trace and JSONL files and deactivate tracing. A
    no-op when no trace is active; in {!start_collect} mode the buffer
    is discarded. *)

val span :
  ?parent:context -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()], recording it as a complete span when
    tracing is active. The span's parent is the innermost span open on
    this domain, or [parent] when given (a remote context: the span
    additionally records a ["trace_id"] attr). Exceptions propagate;
    the span is recorded either way. *)

val drain : unit -> event list
(** Remove and return all buffered events, stamping this process's pid
    on each. Used by workers to ship span buffers home alongside
    metric deltas; safe from any domain. [[]] when tracing is off. *)

val ingest : offset_ns:int -> event list -> unit
(** Append foreign (drained) events to the active trace, mapping each
    [start_ns] from the remote clock onto this trace's timeline:
    [start_ns + offset_ns - t0], clamped at 0. A no-op when tracing is
    off. *)

val offset_of_handshake : sent_ns:int -> recv_ns:int -> remote_ns:int -> int
(** Midpoint clock-offset estimate from one handshake round-trip:
    [remote_ns] (remote raw clock, e.g. shipped in [Hello]) was read
    between [sent_ns] and [recv_ns] (local raw clock at connection
    initiation and at receipt), so assume the midpoint:
    [local ≈ remote + offset]. Guarantees remote events recorded at or
    after the handshake map to local times at or after [sent_ns] —
    children never start before the span that dialed them. *)

val jsonl_path : string -> string
(** The JSONL twin of a Chrome trace path: [x.json -> x.jsonl],
    otherwise [x -> x.jsonl]. *)

val event_count : unit -> int
(** Spans recorded by the active trace so far (0 when inactive). *)
