(** Monotonic clock, the one time source of the observability layer.

    Every span timestamp and every timer in the repository reads this
    clock, so durations are immune to wall-clock steps (NTP, DST) and
    all layers agree on what "elapsed" means. *)

val now_ns : unit -> int
(** Nanoseconds on [CLOCK_MONOTONIC]. The absolute value is meaningful
    only relative to other [now_ns] readings on the same host: the clock
    is system-wide, so a process and the children it spawns share it
    (which is what lets a dist coordinator merge its workers' spans
    without a clock offset). *)

val ns_to_s : int -> float
(** Nanoseconds to seconds. *)

val counter : unit -> unit -> float
(** [counter ()] starts a stopwatch; the returned thunk reads elapsed
    monotonic {e seconds} since the start. *)

val peak_rss_bytes : unit -> int
(** Peak resident set size of the process in bytes (0 if unavailable). *)
