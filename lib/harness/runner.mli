(** The sweep engine: grid → cells → backend → checkpointed results.

    [run] splits an experiment's grid into independent cells and hands
    them to an execution backend. The default [`Domains] backend probes
    the cache for each cell and dispatches the misses through
    {!Bcclb_engine.Pool.map_batch_timed}; the [`Procs] backend ships
    cells to worker {e processes} over a socket (see [Bcclb_dist], which
    installs itself through {!set_procs_runner}). Either way every
    computed cell is stored the moment it finishes — from the worker
    that ran it — so a killed sweep has checkpointed all completed cells
    and a rerun resumes from where it died, recomputing only what is
    missing. Rows are assembled in grid order whatever the scheduling,
    so the rendered report is byte-identical across backends, domain or
    worker counts, cache states, and interrupted-then-resumed runs. *)

exception
  Cell_failed of {
    exp_id : string;
    params : string;  (** The canonical {!Params} encoding of the cell. *)
    message : string;  (** [Printexc.to_string] of the original exception. *)
  }
(** What a raising cell propagates as: the original exception text wrapped
    with the identity of the cell that died, so a failure deep in a sweep
    names its experiment and parameter point. Registered with
    [Printexc.register_printer] as
    ["cell <exp_id>[<params>] failed: <message>"]. *)

type cell_outcome = {
  rows : Experiment.row list;
  hit : bool;  (** The rows came from the cache. *)
  executions : int;  (** Engine runs of the cell itself: the delta of the
                         running domain's own count around it. *)
  peak_words : int;  (** GC top-heap high-water mark after the cell. *)
}

val run_cell : ?cache:Cache.t -> Experiment.t -> Params.t -> cell_outcome
(** One cell, exactly as every backend executes it: probe the cache,
    compute on a miss, checkpoint the result immediately. This is the
    single definition of cell semantics — the [`Domains] pool tasks and
    the [`Procs] worker processes both call it, which is what makes
    reports and cache contents backend-independent. A raising cell
    propagates {!Cell_failed}. *)

type roster = [ `Local of int | `Remote of string list ]
(** How the procs runner populates its worker roster: [`Local w] — it
    spawns [w] processes itself and they dial back in; [`Remote addrs] —
    it dials out to pre-started workers at the given addresses
    (["tcp:host:port"] / ["unix:path"] strings; the harness stays below
    the dist layer, so addresses travel as strings here and are parsed
    by the installed runner). *)

type backend = [ `Domains | `Procs of int | `Roster of string list ]
(** [`Domains] — shared-memory domains in this process (the default);
    [`Procs w] — [w] self-spawned worker processes driven by the
    registered procs runner; [`Roster addrs] — the same runner over
    pre-started workers listening at [addrs]. *)

type procs_runner =
  roster:roster ->
  cache:Cache.t option ->
  exp:Experiment.t ->
  cells:Params.t array ->
  (cell_outcome * float) array
(** Contract: outcomes in cell (grid) order with per-cell seconds, every
    cell either computed (and checkpointed into [cache]) or its
    {!Cell_failed} raised after the rest of the sweep has drained —
    the lowest cell index first, matching
    {!Bcclb_engine.Pool.map_batch_timed}. *)

val set_procs_runner : procs_runner -> unit
(** Install the [`Procs] backend implementation. [Bcclb_dist.Backend]
    calls this; it lives behind a hook only to keep the harness free of
    a dependency cycle on the dist layer. Running with [`Procs] before
    any installation raises [Failure]. *)

val run :
  ?backend:backend ->
  ?cache:Cache.t ->
  ?num_domains:int ->
  ?grid:Params.t list ->
  sink:Sink.t ->
  Experiment.t ->
  Sink.report
(** Omitting [cache] disables lookups {e and} stores (the [--no-cache]
    path: every cell recomputes, nothing is written). [num_domains]
    defaults to the [BCCLB_NUM_DOMAINS] convention of {!Bcclb_engine.Pool}
    and only affects the [`Domains] backend; [grid] defaults to the
    experiment's [default_grid]. The rendered tables go to [sink.text],
    each row to [sink.row]. A raising cell propagates {!Cell_failed} —
    after the rest of the batch has drained and checkpointed. *)
