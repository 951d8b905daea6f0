(** Domain-parallel batch runner for independent simulations.

    Determinism contract: [map_batch f items] returns exactly
    [Array.map f items] — results ordered by input index, the
    lowest-index exception re-raised — for every [num_domains], provided
    each task is pure up to per-task state (seed each task's Rng from its
    input, never share one across tasks). Scheduling order is the only
    thing that varies with the domain count.

    Observability: every batch increments [pool.batches]; every
    outermost task increments [pool.tasks] and lands its latency in the
    [pool.cell_seconds] histogram, while a task of a batch nested inside
    another task only increments [pool.inner_tasks] (its time is already
    inside the enclosing sample, so busy time is counted once). Workers
    record the gap between their consecutive tasks in
    [pool.queue_wait_seconds] and spawned domains count into
    [pool.domains_spawned] (all {!Bcclb_obs.Metrics}, shard-local
    writes). With tracing active, each batch is a ["pool.batch"] span
    and each spawned worker a ["pool.worker"] span. *)

val default_domains_env : string
(** ["BCCLB_NUM_DOMAINS"] — the environment variable consulted when
    [num_domains] is not passed; unset or invalid means 1 (sequential). *)

val default_num_domains : unit -> int

val map_batch : ?num_domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** Run [f] over the batch on [num_domains] domains (the calling domain
    included). [num_domains <= 1] is a strict sequential [Array.map].
    Nested calls from inside a pool task run sequentially — no domains
    are spawned from worker domains. *)

val map_batch_timed : ?num_domains:int -> ('a -> 'b) -> 'a array -> ('b * float) array
(** [map_batch] plus per-task elapsed seconds (monotonic clock,
    {!Bcclb_obs.Mclock}), measured on the worker that ran each task —
    the hook the experiment harness uses for per-cell timing. Unlike
    exceptions in [map_batch], a failing task does not prevent the
    remaining tasks from running: the lowest-index failure is re-raised
    only after the whole batch has drained, so independent tasks still
    complete (and can be checkpointed) when an earlier one dies. *)

val tabulate : ?num_domains:int -> int -> (int -> 'b) -> 'b array
(** [tabulate n f] = [map_batch f [|0; ...; n-1|]]. *)

val shared : 'a array Type.Id.t -> key:string -> int -> (int -> 'a) -> 'a array * bool
(** [shared id ~key n f] is [(Array.init n f, created)], computed once
    per [key] for the life of the process: a single-flight batch. The
    first caller creates it ([created = true]); a concurrent caller with
    the same key claims unclaimed items off the same cursor, then waits
    for the items others still run; a later caller gets the stored
    result at once. So each item runs exactly once at any domain count,
    and every caller gets the same array. Failures follow [map_batch]:
    every item settles, then the lowest-index exception is re-raised to
    every caller, now and later. Outside a pool task the creator fans
    the items out over {!default_num_domains} domains, as [map_batch]
    does; inside one, each caller claims on its own domain. The key
    names one batch: [f] must be the same computation for every caller
    (and must not call [shared] on its own key).
    @raise Invalid_argument if [key] is held by a batch of another type
    ([id]) or another length. *)

