(** The worker process entry points.

    A worker is the same build as the coordinator — enforced at join
    time by the fingerprint handshake in [Hello] — reached one of two
    ways: {!main} is the dial-back mode used by self-populated rosters
    (the hidden [experiments worker --socket ADDR] subcommand, or the
    test binary under an environment flag); {!main_listen} is the
    pre-started mode ([experiments worker --listen ADDR]) that serves
    one coordinator session per accepted connection until
    SIGINT/SIGTERM, then drains and unlinks its endpoint.

    Within a session the worker says [Hello], learns the cache root and
    heartbeat interval from [Init], then works {!Msg.Lease} batches by
    resolving each assignment's experiment id and running
    {!Bcclb_harness.Runner.run_cell} — cache probe, compute,
    checkpoint — streaming each {!Msg.Result} back as it lands. One
    session serves a whole sweep, whatever experiments its cells come
    from; an id the worker cannot resolve is a [Fatal]. Control
    frames are drained between cells, so a [Revoke] (work stealing)
    takes effect before the next revoked cell would start. Each drained
    lease ships a {!Bcclb_obs.Metrics.delta} in [Lease_done]; [Bye]
    carries the final delta — never a full snapshot, so the coordinator
    can absorb every shipment without double-counting. While idle it
    heartbeats every [heartbeat_interval]; while computing it is silent
    and the coordinator's progress deadline stands guard.

    Fault injection ({!Faults}, [$BCCLB_DIST_FAULTS]) is honoured here:
    an injected crash exits the process without a farewell, an injected
    stall sleeps in the cell forever — both only on [attempt = 0], and
    a stolen cell is re-leased at [attempt >= 1], so a fault fires at
    most once per cell ever. *)

val main :
  ?resolve:(string -> Bcclb_harness.Experiment.t option) ->
  address:string ->
  unit ->
  unit
(** Dial-back mode. Never returns normally: exits 0 on shutdown or
    coordinator disappearance, 3 on a fatal protocol/setup error or
    handshake rejection (after attempting to report), 66 on an injected
    crash. [resolve] defaults to {!Bcclb_harness.Registry.find}; tests
    pass their own registry. *)

val main_listen :
  ?resolve:(string -> Bcclb_harness.Experiment.t option) ->
  address:string ->
  unit ->
  unit
(** Listen mode. Binds [address] (e.g. [tcp:127.0.0.1:7801]), serves
    coordinator sessions until SIGINT/SIGTERM, removes the endpoint and
    returns. A handshake rejection ends the session but not the
    process. Exits 3 if the address cannot be bound or a session hits a
    fatal protocol error, 66 on an injected crash. *)
