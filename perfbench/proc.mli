(** One measured child process. *)

type outcome = {
  status : int;  (** Exit code, or the negated signal that killed it. *)
  wall_s : float;  (** Fork to reap, on {!Bcclb_obs.Mclock}. *)
  cpu_s : float;  (** User + system time of the child and every descendant. *)
  peak_rss_kib : int;  (** Largest resident set among them. *)
}

val init : unit -> unit
(** Make this process the reaper of orphaned descendants (Linux), so
    {!run} can wait for the workers of a coordinator it had to kill, and
    make SIGINT, SIGTERM and SIGHUP kill and reap the running child's
    process group before exiting with code 2. Call once, before the
    first {!run}. *)

val run :
  cwd:string ->
  env:string array ->
  timeout_s:int ->
  stdout:string ->
  stderr:string ->
  string ->
  string list ->
  outcome
(** [run ~cwd ~env ~timeout_s ~stdout ~stderr prog args] executes [prog]
    (an absolute path) with [args] in [cwd], its output redirected to the
    two files, in a fresh process group. After [timeout_s] seconds the
    child is killed by SIGALRM. When the child has been reaped, anything
    left in its process group is killed and reaped too, so nothing it
    started outlives the call. Must be called while this process runs a
    single domain. *)
