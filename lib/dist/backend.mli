(** Glue: make [`Procs] and [`Roster] {!Bcclb_harness.Runner} backends.

    The harness cannot depend on this library (it sits below it), so the
    implementation is injected: call {!install} once at program start —
    [bin/experiments.ml] does, with a spawn that re-execs itself as
    [experiments worker]; tests install their own spawn that re-execs
    the test binary. A [`Procs w] backend becomes a self-spawned
    [Local_spawn] roster of [w] workers; a [`Roster addrs] backend dials
    the pre-started workers listed in [addrs]. *)

val spawn_argv : (string -> string array) -> address:string -> int
(** Build a {!Coordinator.config.spawn} from an argv function:
    [spawn_argv (fun addr -> [| Sys.executable_name; "worker"; "--socket"; addr |])].
    The child gets [/dev/null] as stdin and the parent's {e stderr} as
    both stdout and stderr — worker chatter must never leak into the
    coordinator's report stream. *)

val install :
  ?transport:[ `Unix_socket | `Tcp ] ->
  ?heartbeat_interval:float ->
  ?heartbeat_timeout:float ->
  ?cell_timeout:float ->
  ?max_retries:int ->
  ?lease_target_seconds:float ->
  spawn:(address:string -> int) ->
  unit ->
  unit
(** Register the coordinator as the {!Bcclb_harness.Runner.procs_runner}
    serving both [`Procs] and [`Roster] backends. Defaults follow
    {!Coordinator.config}, with the two timeout env overrides applied.
    A roster entry that does not parse ({!Addr.of_string}) fails the
    sweep with [Failure]. Calling again replaces the previous
    installation (tests use this to tighten deadlines per case). *)
