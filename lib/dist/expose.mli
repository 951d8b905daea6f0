(** Live metrics endpoint: OpenMetrics over minimal HTTP/1.0.

    [start] binds a {!Transport} listener (unix or TCP — the
    [--metrics-addr] flag on [experiments run] and [all]) and answers
    every connection with {!Bcclb_obs.Expo.render} of the registry
    snapshot taken at scrape time, so a sweep's live counters
    (including deltas absorbed from workers mid-flight) are visible to
    Prometheus, [curl], or [stats --follow] without waiting for the
    manifest.

    The endpoint is deliberately dumb: any request head gets the same
    [200] with [Content-Type: application/openmetrics-text]; a client
    that never finishes its request is cut off by a 1 s receive
    timeout. One acceptor domain serves scrapes sequentially —
    exposition is diagnostic, not a throughput surface. *)

type t

val start : address:Addr.t -> unit -> (t, string) result
(** Bind and start the acceptor domain. [Error] names the bind
    failure. *)

val address : t -> Addr.t
(** The bound address (useful with TCP port 0). *)

val stop : t -> unit
(** Drain, join the acceptor, close and unlink the endpoint.
    Idempotent. *)

val with_endpoint : address:Addr.t -> (t -> 'a) -> ('a, string) result
(** {!start} an endpoint, run [f] on it, then {!stop} it whether [f]
    returns or raises — the wrapper behind every [--metrics-addr].
    [Error] is {!start}'s bind failure, and [f] does not run. A process
    that [exit]s inside [f] skips the stop and leaves a unix socket
    path behind. *)

val scrape : Addr.t -> (string, string) result
(** One-shot client: connect, send a [GET /metrics] request, return the
    response body (the OpenMetrics text). A 5 s timeout bounds both
    connect-side sends and reads. *)
