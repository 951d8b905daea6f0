(* The one true synchronous round loop. Every simulated model in this
   repository — BCC broadcast, RCC per-port unicast, the §4.3 two-party
   reduction — is this loop with a different topology and observer set.
   Keeping a single copy is what lets instrumentation (bit counters,
   validation, transcripts, timing) compose instead of being re-inlined
   per simulator. *)

type ('state, 'emit, 'inbox) spec = {
  n : int;
  rounds : int;
  step : 'state -> round:int -> vertex:int -> inbox:'inbox -> 'state * 'emit;
  exchange : ('emit, 'inbox) Topology.t;
}

type ('state, 'inbox) outcome = {
  states : 'state array;
  final_inbox : 'inbox array;
  rounds_used : int;
}

(* Process-wide execution metrics: every simulated run in the repository
   funnels through this loop, so the [engine.*] counters are the
   source of truth for how much simulation a workload performed.
   [run_count] is the sharded obs counter's total (pool workers each
   increment their own shard lock-free; the total merges them), and
   [domain_run_count] the calling domain's own shard — the per-cell
   execution count of the experiment manifest. *)
module Metrics = Bcclb_obs.Metrics

let runs_metric = Metrics.Counter.v "engine.runs"
let rounds_metric = Metrics.Counter.v "engine.rounds"
let emissions_metric = Metrics.Counter.v "engine.emissions"

let domain_run_count () = Metrics.Counter.local runs_metric

let run ?(observers = []) spec ~init_state ~init_inbox =
  if spec.rounds < 0 then invalid_arg "Engine.run: negative round bound";
  if spec.n < 0 then invalid_arg "Engine.run: negative number of vertices";
  Metrics.Counter.incr runs_metric;
  let obs = Observer.combine observers in
  let n = spec.n in
  let states = Array.init n init_state in
  let inbox = ref (Array.init n init_inbox) in
  obs.Observer.on_start ~n ~rounds:spec.rounds;
  for round = 1 to spec.rounds do
    obs.Observer.on_round_start ~round;
    (* Step vertices in increasing index order — validators rely on it —
       and seed the emissions array from vertex 0 to stay allocation-free
       of dummies. *)
    let step_vertex v =
      let box = !inbox.(v) in
      let state', emit = spec.step states.(v) ~round ~vertex:v ~inbox:box in
      obs.Observer.on_emit ~round ~vertex:v ~inbox:box ~emit;
      states.(v) <- state';
      emit
    in
    let emits =
      if n = 0 then [||]
      else begin
        let a = Array.make n (step_vertex 0) in
        for v = 1 to n - 1 do
          a.(v) <- step_vertex v
        done;
        a
      end
    in
    inbox := spec.exchange ~round ~prev:!inbox emits;
    obs.Observer.on_round_end ~round ~inboxes:!inbox
  done;
  (* One shard write per series per run, not per round: the loop emits
     exactly [n] messages each of [rounds] rounds, so the aggregate is
     exact and the round loop itself stays metric-free. *)
  Metrics.Counter.add rounds_metric spec.rounds;
  Metrics.Counter.add emissions_metric (n * spec.rounds);
  { states; final_inbox = !inbox; rounds_used = spec.rounds }
