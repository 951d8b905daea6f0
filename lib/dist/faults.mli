(** Deterministic fault injection, so crash recovery is testable in CI.

    [BCCLB_DIST_FAULTS=crash:2,stall:5] makes the worker that receives
    cell 2 exit abruptly before computing it, and the worker that
    receives cell 5 hang forever in the cell — {e on the first
    assignment only}. Cell indices count within the coordinator session,
    which serves a command's whole sweep: experiments in registry order,
    each in grid order, so for a single experiment they are its grid
    indices. The coordinator detects the crash via EOF and the
    stall via the per-cell deadline, SIGKILLs as needed, and reassigns;
    the reassignment arrives with [attempt = 1], where no fault fires,
    so an injected sweep must complete with a byte-identical report.
    Workers read the spec from their (inherited) environment. *)

type action = Crash | Stall

type t

val env_var : string
(** ["BCCLB_DIST_FAULTS"]. *)

val is_empty : t -> bool

val parse : string -> (t, string) result
(** Comma-separated [kind:cell] entries; [""] is the empty plan. *)

val of_env : unit -> (t, string) result
(** {!parse} of [$BCCLB_DIST_FAULTS]; unset means the empty plan. A malformed
    spec is an [Error] the worker reports as fatal — a typo'd fault
    test should fail loudly, not silently run faultless. *)

val action : t -> cell:int -> attempt:int -> action option
(** [None] for every [attempt > 0]: faults are one-shot per cell. *)
