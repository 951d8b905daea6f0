(** The coordinator: rosters, batched leases, stealing, deadlines,
    recovery.

    [run] drives a sweep over a {!roster} of workers. A [Local_spawn]
    roster is self-populated: the coordinator opens a local listener
    ({!Transport.listen_local}), spawns worker processes via the
    caller-supplied [spawn] and they dial back. A [Remote] roster is
    pre-started: the coordinator dials each [--workers] address, and the
    listed processes ([experiments worker --listen]) serve the sweep.
    Either way a worker joins by [Hello], which now carries the binary
    fingerprint and cache format epoch — skewed builds are {!Msg.Reject}ed
    at join time, before they can compute a cell or write a cache entry.

    Scheduling is by {b batched cell leases}: an idle worker receives a
    contiguous batch off the pending queue — sized to a fair share of
    the remaining grid, shrunk toward [lease_target_seconds] of work
    once per-cell latency is observed — and streams one [Result] back
    per cell. When the queue drains, an idle worker {b steals}: the
    coordinator revokes the tail half of the largest outstanding lease
    and re-leases it, so one slow or stalled worker cannot strand the
    sweep's last cells.

    The failure model, concretely:
    {ul
    {- {b Crash} (SIGKILL, injected exit, OOM): the worker's socket hits
       EOF (or its pid is reaped). Its outstanding lease is requeued and
       — on a local roster — a replacement is spawned. A remote roster
       never re-dials: the active set shrinks, and losing {e every}
       remote worker with cells unresolved fails the sweep.}
    {- {b Stall} (hung cell, livelocked worker): a leased worker must
       produce a result every [cell_timeout] (the clock resets per
       [Result]); silence beyond that is treated as a crash. Stealing
       usually rescues the lease tail earlier — only the in-flight head
       waits for the deadline.}
    {- {b Silence} (wedged before/between leases): an idle worker that
       has not heartbeat within [heartbeat_timeout] is destroyed.}
    {- {b Bounded retries}: [max_retries] caps worker {e deaths} per
       cell, not lease grants — stealing re-grants freely. Exceeding it
       (or the local spawn budget) aborts the sweep.}
    {- {b Deterministic cell failure} (the cell function raised): not
       retried; the sweep drains and the cell's result is
       {!Bcclb_harness.Runner.Cell_failed}, which the runner raises.}}

    Byte-identity survives all of it: a cell is held by at most one
    live worker, steal races settle by first resolution, cells are
    deterministic, and results are returned in cell order — so the
    report matches the [`Domains] backend byte for byte regardless of
    roster, batching, stealing or faults.

    Worker metrics stream home as {!Bcclb_obs.Metrics.delta}s with each
    [Lease_done] (and a final delta in [Bye]), absorbed live — [stats]
    reflects an in-flight sweep, and a crashed worker loses only the
    tail since its last completed lease. *)

type roster =
  | Local_spawn of int  (** Target live worker processes, self-spawned. *)
  | Remote of Addr.t list  (** Pre-started [--listen] workers to dial. *)

type config = {
  roster : roster;
  transport : [ `Unix_socket | `Tcp ];  (** Listener flavour (local rosters). *)
  heartbeat_interval : float;  (** Told to workers in [Init]. *)
  heartbeat_timeout : float;  (** Idle-worker silence limit. *)
  cell_timeout : float;  (** Leased-worker limit per {e result}, not per lease. *)
  max_retries : int;  (** Worker deaths tolerated per cell. *)
  lease_target_seconds : float;  (** Adaptive lease sizing aims here. *)
  spawn : address:string -> int;
      (** Start one worker process pointed at [address]; return its pid.
          See {!Backend.spawn_argv}. Unused by [Remote] rosters. *)
}

val config :
  ?transport:[ `Unix_socket | `Tcp ] ->
  ?heartbeat_interval:float ->
  ?heartbeat_timeout:float ->
  ?cell_timeout:float ->
  ?max_retries:int ->
  ?lease_target_seconds:float ->
  ?remotes:Addr.t list ->
  spawn:(address:string -> int) ->
  workers:int ->
  unit ->
  config
(** Defaults: Unix socket, 0.25s heartbeats, 30s heartbeat deadline,
    600s cell deadline, 2 retries, 1s lease target. A non-empty
    [remotes] selects a [Remote] roster (and [workers] is ignored);
    otherwise [Local_spawn workers]. *)

val run :
  config ->
  cache:Bcclb_harness.Cache.t option ->
  cells:(Bcclb_harness.Experiment.t * Bcclb_harness.Params.t) array ->
  (Bcclb_harness.Runner.cell_outcome * float, exn) result array
(** The [`Procs]/[`Roster] implementation of
    {!Bcclb_harness.Runner.procs_runner} (modulo argument shape);
    {!Backend.install} adapts it. One session — one ["dist.sweep"] span,
    one roster — serves every cell, whatever experiments they come
    from; each leased cell names its experiment. A deterministic cell
    failure is that cell's [Error (Cell_failed _)], naming the cell's
    own experiment, once the session has drained. Raises [Failure] on
    infrastructure exhaustion (retry cap, spawn budget, handshake
    rejection of a local worker, unreachable or fully-lost remote
    roster). Always tears down: sockets closed, socket file unlinked,
    every spawned pid killed or reaped before returning or raising.
    Remote workers are {e not} killed — they return to accepting. *)
