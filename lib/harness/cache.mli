(** Content-addressed on-disk result cache.

    One file per experiment cell under [root/<exp-id>/<hash>.entry],
    where the hash digests the cell's identity: experiment id, cache
    epoch ({!Experiment.t.version}) and the canonical parameter encoding
    (which subsumes the cell's seeds — cells derive their seeds from
    their parameters). The key deliberately excludes everything about
    {e how} the sweep ran — domain count, scheduling, wall-clock — so a
    parallel run and a sequential run address the same entries.

    Entries are checksummed; {!find} treats a truncated, corrupted or
    mismatched entry exactly like a miss (and deletes it), so the worst
    failure mode of a killed run is recomputation of one cell. Writes go
    through a temp-file rename and are safe against concurrent writers.

    Observability: every probe lands in [cache.hits] / [cache.misses]
    (with [cache.corrupt_recomputes] counting validation failures that
    will force a recompute), every write in [cache.stores], and
    load/store latencies in the [cache.load_seconds] /
    [cache.store_seconds] histograms of {!Bcclb_obs.Metrics}. *)

type t

val format_epoch : int
(** Version of the on-disk entry layout, embedded in every entry's magic
    line. Bump it when the layout changes: existing entries then fail
    the magic check (a clean miss), and distributed workers built
    against a different epoch are refused at handshake time before they
    can write incompatible entries into a shared cache root. *)

val create : root:string -> t
(** Creates [root] (and parents) if missing. *)

val root : t -> string

type key

val key : exp_id:string -> version:int -> params:Params.t -> key

val key_hash : key -> string
(** Hex digest — the entry's file stem. *)

val find : t -> key -> Experiment.row list option
(** [None] on miss, bad magic, checksum mismatch, undecodable payload or
    a hash collision (the stored canonical key must match verbatim);
    every non-miss failure also removes the entry. *)

val store : t -> key -> Experiment.row list -> unit

val remove : t -> key -> unit
(** Best-effort deletion (used by tests and [--no-cache] hygiene). *)
