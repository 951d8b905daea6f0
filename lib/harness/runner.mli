(** The sweep engine: grids → cells → one backend batch → checkpointed
    results.

    [run] takes every (experiment, grid) pair a command selected, splits
    them into independent cells and hands {e all} of them to an execution
    backend as one batch, in list order and then grid order. The
    default [`Domains] backend probes the cache for each cell and
    dispatches the misses through one
    {!Bcclb_engine.Pool.map_batch_timed}; the [`Procs] backend ships
    them to worker {e processes} in one coordinator session (see
    [Bcclb_dist], which installs itself through {!set_procs_runner}).
    Either way every computed cell is stored the moment it finishes —
    from the worker that ran it — so a killed sweep has checkpointed all
    completed cells and a rerun resumes from where it died, recomputing
    only what is missing. Once the batch returns, each experiment is
    rendered in order, its rows in grid order whatever the scheduling,
    so the rendered reports are byte-identical across backends, domain
    or worker counts, cache states, and interrupted-then-resumed runs. *)

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

type backend = [ `Domains | `Procs of int ]
(** [`Domains] — shared-memory domains in this process (the default);
    [`Procs w] — [w] worker processes spawned and driven by the
    registered procs runner. *)

type procs_runner =
  workers:int ->
  cache:Cache.t option ->
  cells:(Experiment.t * Params.t) array ->
  (cell_outcome * float, exn) result array
(** Contract: one result per cell, in cell order, after the whole batch
    has drained — [Ok] with the per-cell seconds for a computed (and
    checkpointed into [cache]) cell, [Error (Cell_failed _)] naming the
    cell's own experiment for a raising one. Infrastructure exhaustion
    raises instead. *)

val set_procs_runner : procs_runner -> unit
(** Install the [`Procs] backend implementation. [Bcclb_dist.Backend]
    calls this; it lives behind a hook only to keep the harness free of
    a dependency cycle on the dist layer. Running with [`Procs] before
    any installation raises [Failure]. *)

val run :
  ?backend:backend ->
  ?cache:Cache.t ->
  ?num_domains:int ->
  sink:Sink.t ->
  (Experiment.t * Params.t list) list ->
  Sink.report list
(** Run every cell of every (experiment, grid) pair as one batch, then
    render the experiments in list order: tables to [sink.text], each
    row to [sink.row], one {!Sink.report} each. A one-element list is
    the single-experiment run.

    Omitting [cache] disables lookups {e and} stores (the [--no-cache]
    path: every cell recomputes, nothing is written). [num_domains]
    defaults to the [BCCLB_NUM_DOMAINS] convention of
    {!Bcclb_engine.Pool} and only affects the [`Domains] backend.

    The batch is one ["runner.experiment"] span and one
    [runner.experiment_seconds] sample (its wall time, rendering
    excluded), whatever the number of experiments.

    Failures: the batch drains first, so every healthy cell — of every
    experiment — is computed and checkpointed. Then the experiments
    before the first one holding a failed cell are rendered, and that
    cell's exception is raised ({!Cell_failed} for a raising cell; the
    lowest failing index wins). Nothing from the failed experiment on
    is rendered, but a rerun finds the later experiments' cells in the
    cache. *)
