(** OpenMetrics / Prometheus text exposition of the {!Metrics}
    registry.

    {!render} serialises a {!Metrics.snapshot}: every metric name is
    prefixed with [bcclb_] and sanitised to the exposition charset
    (dots become underscores). Counters emit a [_total] sample, gauges
    a bare sample; histograms emit cumulative [_bucket{le="..."}]
    samples ending in [le="+Inf"], then [_sum] and [_count], then a
    [<name>_quantiles{quantile="..."}] gauge family carrying the
    p50/p90/p99 interpolated by {!Metrics.quantile}. The body ends with
    the OpenMetrics [# EOF] terminator. Degenerate values (empty
    histograms, non-finite floats) render as [0] — a scrape is always
    parseable.

    {!parse} is the strict inverse, in the spirit of [Harness.Json]:
    it accepts exactly the shapes the renderer emits and fails with a
    positioned error on anything else — undeclared metric families,
    malformed label sets, non-finite or unparsable values, non-monotone
    histogram buckets, a [_count] that disagrees with the [+Inf]
    bucket, or a missing [# EOF]. *)

type sample = { name : string; labels : (string * string) list; value : float }

val render : (string * Metrics.value) list -> string
(** Render a snapshot (as returned by {!Metrics.snapshot}) to
    OpenMetrics text, terminated by [# EOF]. *)

val parse : string -> (sample list, string) result
(** Strictly parse an exposition body back into its samples, in
    document order. [Error] carries a ["line N: ..."] message. *)

val lint : string -> (unit, string) result
(** {!parse}, keeping only the verdict. *)
