(** The coordinator: spawned workers, batched leases, stealing,
    deadlines, recovery.

    [run] drives a sweep over worker processes it spawns itself: it
    opens a fresh unix-domain listener ({!Transport.listen_local}),
    starts [workers] processes via the caller-supplied [spawn], and
    they dial back. A worker joins by [Hello], which carries the binary
    fingerprint and cache format epoch — a skewed build (the executable
    changed on disk mid-sweep) is {!Msg.Reject}ed at join time, before
    it can compute a cell or write a cache entry.

    Scheduling is by {b batched cell leases}: an idle worker receives a
    contiguous batch off the pending queue — sized to a fair share of
    the remaining grid, shrunk toward 1 s of work once per-cell latency
    is observed — and streams one [Result] back per cell. When the
    queue drains, an idle worker {b steals}: the coordinator revokes
    the tail half of the largest outstanding lease and re-leases it, so
    one slow or stalled worker cannot strand the sweep's last cells.

    The failure model, concretely:
    {ul
    {- {b Crash} (SIGKILL, injected exit, OOM): the worker's socket hits
       EOF (or its pid is reaped). Its outstanding lease is requeued and
       a replacement is spawned.}
    {- {b Stall} (hung cell, livelocked worker): a leased worker must
       produce a result every [cell_timeout] (the clock resets per
       [Result]); silence beyond that is treated as a crash. Stealing
       usually rescues the lease tail earlier — only the in-flight head
       waits for the deadline.}
    {- {b Silence} (wedged before/between leases): an idle worker that
       has not heartbeat within 30 s is destroyed.}
    {- {b Bounded retries}: two worker {e deaths} per cell are
       tolerated, not counting lease grants — stealing re-grants
       freely. A third (or an exhausted spawn budget) aborts the
       sweep.}
    {- {b Deterministic cell failure} (the cell function raised): not
       retried; the sweep drains and the cell's result is
       {!Bcclb_harness.Runner.Cell_failed}, which the runner raises.}}

    Byte-identity survives all of it: a cell is held by at most one
    live worker, steal races settle by first resolution, cells are
    deterministic, and results are returned in cell order — so the
    report matches the [`Domains] backend byte for byte regardless of
    worker count, batching, stealing or faults.

    Worker metrics stream home as {!Bcclb_obs.Metrics.delta}s with each
    [Lease_done] (and a final delta in [Bye]), absorbed live, so a
    crashed worker loses only the tail since its last completed
    lease. *)

type config = {
  workers : int;  (** Target live worker processes. *)
  cell_timeout : float;  (** Leased-worker limit per {e result}, not per lease. *)
  spawn : socket:string -> int;
      (** Start one worker process pointed at the coordinator's [socket]
          path; return its pid.
          See {!Backend.spawn_argv}. *)
}

val run :
  config ->
  cache:Bcclb_harness.Cache.t option ->
  cells:(Bcclb_harness.Experiment.t * Bcclb_harness.Params.t) array ->
  (Bcclb_harness.Runner.cell_outcome * float, exn) result array
(** The [`Procs] implementation of {!Bcclb_harness.Runner.procs_runner}
    (modulo argument shape); {!Backend.install} adapts it. One session
    — one ["dist.sweep"] span, one set of workers — serves every cell,
    whatever experiments they come from; each leased cell names its
    experiment. A deterministic cell failure is that cell's
    [Error (Cell_failed _)], naming the cell's own experiment, once the
    session has drained. Raises [Invalid_argument] when [workers < 1],
    and [Failure] on infrastructure exhaustion (retry cap, spawn
    budget, handshake rejection). Always tears down: sockets closed,
    socket file unlinked, every spawned pid killed or reaped before
    returning or raising. *)
