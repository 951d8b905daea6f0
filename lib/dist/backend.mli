(** Glue: make [`Procs] a {!Bcclb_harness.Runner} backend.

    The harness cannot depend on this library (it sits below it), so the
    implementation is injected: call {!install} once at program start —
    [bin/experiments.ml] does, with a spawn that re-execs itself as
    [experiments worker]; tests install their own spawn that re-execs
    the test binary. A [`Procs w] backend becomes a {!Coordinator.run}
    over [w] spawned workers. *)

val spawn_argv : (string -> string array) -> socket:string -> int
(** Build a {!Coordinator.config.spawn} from an argv function:
    [spawn_argv (fun path -> [| Sys.executable_name; "worker"; "--socket"; path |])].
    The child gets [/dev/null] as stdin and the parent's {e stderr} as
    both stdout and stderr — worker chatter must never leak into the
    coordinator's report stream. *)

val install :
  ?cell_timeout:float -> spawn:(socket:string -> int) -> unit -> (unit, string) result
(** Register the coordinator as the {!Bcclb_harness.Runner.procs_runner}.
    [cell_timeout] (default 600 s) is overridden by
    [$BCCLB_DIST_CELL_TIMEOUT] when that is set and not blank; a value
    that is not a positive, finite number of seconds is an [Error] that
    names the variable, and nothing is installed. Calling again
    replaces the previous installation (tests use this to tighten the
    deadline per case). *)
