(** Where a traced run's time went: span self time, rolled up by name.

    Reads the JSONL span log that [experiments ... --trace FILE] writes
    next to FILE (one span per line, with its id and its parent's id; see
    {!Bcclb_obs.Trace}). *)

type span = { name : string; start_ns : int; dur_ns : int; id : int; parent : int }

val of_jsonl : string -> span list
(** Parse the contents of a span log. @raise Failure on a malformed line. *)

val self_seconds : span list -> (string * float) list
(** Per span name, the sum over its spans of the duration minus the part
    of the span's interval its children cover, sorted by name. Children
    may run on other domains or processes: their intervals are clamped to
    the parent's (a child that outlives its parent counts only up to the
    parent's end) and overlapping children are counted once. *)
