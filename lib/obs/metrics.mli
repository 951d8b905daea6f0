(** Process-wide metrics registry: counters and fixed-bucket
    histograms, {e per-domain sharded}.

    Every writer (a {!Bcclb_engine.Pool} worker, the main domain) owns a
    private shard — an ordinary unsynchronised array it alone mutates —
    so the hot path of an increment is one domain-local array write: no
    locks, no atomics, no allocation. Shards are merged only when a
    snapshot is taken, and the merge is deterministic for the
    order-independent aggregates (counter totals, histogram bucket
    counts and observation counts are integer sums), which is what makes
    metric totals identical under [BCCLB_NUM_DOMAINS=1] and [=4].

    Registration is idempotent by name: [Counter.v "engine.runs"]
    returns the same metric wherever it is called, so independent layers
    can share a series without threading handles. Registering the same
    name with a different kind (or different histogram buckets) is a
    programming error and raises [Invalid_argument]. *)

module Counter : sig
  type t

  val v : string -> t
  (** Register (or look up) the counter named [name]. *)

  val incr : t -> unit
  val add : t -> int -> unit
  (** Shard-local, lock-free, alloc-free. [add] with a negative value
      raises [Invalid_argument]: counters only go up. *)

  val total : t -> int
  (** Sum over all shards. Reads concurrent with writers may miss
      in-flight increments (same weak consistency as any statistical
      counter); reads after workers have joined are exact. *)

  val local : t -> int
  (** The calling domain's own shard: everything this domain has added,
      exact at any time and blind to every other domain. *)
end

module Histogram : sig
  type t

  val v : ?buckets:float array -> string -> t
  (** [buckets] are strictly increasing finite upper bounds; an implicit
      overflow bucket catches everything above the last. Defaults to
      1 µs … 100 s in decades, for latencies in seconds. *)

  val observe : t -> float -> unit
  (** Record one observation: bump the first bucket whose upper bound is
      [>=] the value (the overflow bucket if none) and add the value to
      the shard's sum. Lock-free, alloc-free after the shard's first
      observation. *)
end

(** {2 Snapshots} *)

type hist = {
  le : float array;  (** The finite upper bounds, as registered. *)
  counts : int array;  (** [Array.length le + 1] entries; last = overflow. *)
  sum : float;
  count : int;  (** Total observations = sum of [counts]. *)
}

type value = Counter of int | Histogram of hist

val quantile : hist -> float -> float
(** [quantile h q] estimates the [q]-quantile ([0 <= q <= 1]) by linear
    interpolation inside the bucket containing the target rank, with 0
    as the lower edge of the first bucket. Observations in the overflow
    bucket clamp to the last finite bound. Total on degenerate input:
    returns 0 for an empty histogram or one with no finite bucket
    bounds — never NaN, never an index error. *)

val hist_mean : hist -> float
(** [sum /. count], 0 for an empty histogram. *)

val snapshot : unit -> (string * value) list
(** Merged view of every registered metric, sorted by name. *)

val absorb : (string * value) list -> unit
(** Merge a snapshot taken elsewhere (typically in a worker {e process},
    serialised home over a socket) into this process's registry:
    counters add their totals, histograms add bucket counts and sums —
    the same integer-sum merge {!snapshot} applies to domain shards, so
    totals after an absorb are what they would have been had the work
    run locally. Metrics are registered by name on first sight;
    absorbing a name already registered with a different kind (or
    different histogram buckets) raises [Invalid_argument], as
    {!Counter.v} would. *)

val delta : baseline:(string * value) list -> (string * value) list -> (string * value) list
(** [delta ~baseline current] is what happened between two snapshots of
    the same registry: counters and histogram buckets/sums subtract,
    and series that did not move are dropped. The defining property —
    what makes streamed deltas safe to {!absorb} mid-run — is that
    absorbing every delta of a partitioned timeline
    [s0 -> s1 -> ... -> sk] accumulates exactly [delta ~baseline:s0 sk]:
    nothing is counted twice, so a worker can ship a delta per batch
    instead of one [Bye] snapshot, and a crash loses only the tail since
    its last shipment. Raises [Invalid_argument] if a counter or bucket
    decreased between the snapshots (the registry never resets
    mid-timeline). *)

val reset : unit -> unit
(** Zero every shard of every metric (registrations survive). Only
    meaningful while no worker domain is writing — tests call it between
    cases; production code never needs it. *)
