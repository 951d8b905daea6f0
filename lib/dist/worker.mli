(** The worker process entry point.

    A worker is a process the coordinator spawned from its own
    executable — the hidden [experiments worker --socket PATH]
    subcommand, or the test binary under an environment flag — and the
    fingerprint handshake in [Hello] checks that it is the same build.
    It dials back, serves one session and exits.

    Within its session the worker says [Hello], learns the cache root
    (and the trace context, when the coordinator traces) from [Init],
    then works {!Msg.Lease} batches by resolving each assignment's
    experiment id and running {!Bcclb_harness.Runner.run_cell} — cache probe, compute,
    checkpoint — streaming each {!Msg.Result} back as it lands. One
    session serves a whole sweep, whatever experiments its cells come
    from; an id the worker cannot resolve is a [Fatal]. Control
    frames are drained between cells, so a [Revoke] (work stealing)
    takes effect before the next revoked cell would start. Each drained
    lease ships a {!Bcclb_obs.Metrics.delta} in [Lease_done]; [Bye]
    carries the final delta — never a full snapshot, so the coordinator
    can absorb every shipment without double-counting. While idle it
    heartbeats every 0.25 s; while computing it is silent and the
    coordinator's progress deadline stands guard.

    Fault injection ({!Faults}, [$BCCLB_DIST_FAULTS]) is honoured here:
    an injected crash exits the process without a farewell, an injected
    stall sleeps in the cell forever — both only on [attempt = 0], and
    a stolen cell is re-leased at [attempt >= 1], so a fault fires at
    most once per cell ever. *)

val main :
  ?resolve:(string -> Bcclb_harness.Experiment.t option) ->
  socket:string ->
  unit ->
  unit
(** Dial the coordinator's unix-domain [socket] path and serve. Never
    returns normally: exits 0 on shutdown or coordinator disappearance, 3 on a
    fatal protocol/setup error or handshake rejection (after attempting
    to report), 66 on an injected crash. [resolve] defaults to {!Bcclb_harness.Registry.find}; tests
    pass their own registry. *)
