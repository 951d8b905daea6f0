(** Glue: make [`Procs] a {!Bcclb_harness.Runner} backend.

    The harness cannot depend on this library (it sits below it), so the
    implementation is injected: call {!install} once at program start —
    [bin/experiments.ml] does, with a spawn that re-execs itself as
    [experiments worker]; tests install their own spawn that re-execs
    the test binary. A [`Procs w] backend becomes a {!Coordinator.run}
    over [w] spawned workers. *)

val spawn_argv : string array -> unit -> int * Unix.file_descr
(** [spawn_argv argv] is a {!Coordinator.config.spawn}: each call makes
    a close-on-exec socketpair and starts [argv] with its end as stdin,
    returning the pid and the coordinator's end. The child's stdout and
    stderr are the parent's {e stderr} — worker chatter must never leak
    into the coordinator's report stream. The spawner keeps no copy of
    the child's end and no later child inherits the coordinator's, so
    either side dying is an EOF on the other. *)

val install :
  ?cell_timeout:float ->
  spawn:(unit -> int * Unix.file_descr) ->
  unit ->
  (unit, string) result
(** Register the coordinator as the {!Bcclb_harness.Runner.procs_runner}.
    [cell_timeout] (default 600 s) is overridden by
    [$BCCLB_DIST_CELL_TIMEOUT] when that is set and not blank; a value
    that is not a positive, finite number of seconds is an [Error] that
    names the variable, and nothing is installed. Calling again
    replaces the previous installation (tests use this to tighten the
    deadline per case). *)
