(** Composable result outputs.

    A sink consumes two streams: rendered human text (the tables the CLI
    prints) and structured rows (what the JSONL writer records). Sinks
    compose with {!tee}; each constructor implements one output and
    ignores the stream it does not care about. The run manifest is a
    one-shot JSON document written through the same module. *)

type t = {
  text : string -> unit;  (** A rendered chunk (may span many lines). *)
  row : exp_id:string -> params:Params.t -> Experiment.row -> unit;
  close : unit -> unit;
}

val null : t
val tee : t list -> t

val console : unit -> t
(** [text] to stdout (flushed per chunk); rows ignored. *)

val to_buffer : Buffer.t -> t
(** [text] accumulated in a buffer; rows ignored — how tests and the
    byte-identity checks capture a run's report. *)

val jsonl : dir:string -> t
(** One [<dir>/<exp-id>.jsonl] file per experiment, truncated at first
    row, one JSON object per row:
    [{"experiment":..,"table":..,"params":{..},"fields":{..}}].
    [close] flushes and closes every open file. *)

(** {1 Run manifest} *)

type cell_report = {
  params : Params.t;
  hit : bool;
  seconds : float;
  executions : int;
      (** Engine round-loop runs of this cell: the
          {!Bcclb_engine.Engine.domain_run_count} delta on the domain
          that computed it — exact at any domain count, since a cell
          runs on one domain; 0 on a cache hit. *)
  peak_words : int;
      (** GC top-heap high-water mark (words) when the cell finished —
          the shared-heap peak observed so far, not a per-cell delta. *)
}

type report = {
  id : string;
  version : int;
  cells : int;
  hits : int;
  misses : int;
  seconds : float;  (** Sum of per-cell compute/lookup time. *)
  cell_reports : cell_report list;  (** In grid order. *)
}

val write_manifest :
  path:string -> cache_root:string option -> num_domains:int -> report list -> unit
(** Pretty-printed JSON ([bcclb-run-manifest-v2]) with per-experiment
    and aggregate hit/miss/timing counts ([cells_total], [hits_total],
    [misses_total], ...) — what the CI warm-run assertion greps — plus
    the [provenance], [metrics] and [process] blocks. *)
