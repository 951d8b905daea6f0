(* The one true synchronous round loop. Every simulated model in this
   repository — BCC broadcast, RCC per-port unicast, the §4.3 two-party
   reduction — is this loop with a different topology and step. A
   model's checks and counters run in its own step wrapper, so the loop
   itself stays one copy with nothing to configure. *)

type ('state, 'emit, 'inbox) spec = {
  n : int;
  rounds : int;
  step : 'state -> round:int -> vertex:int -> inbox:'inbox -> 'state * 'emit;
  exchange : ('emit, 'inbox) Topology.t;
}

type ('state, 'inbox) outcome = {
  states : 'state array;
  final_inbox : 'inbox array;
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

let run spec ~init_state ~init_inbox =
  if spec.rounds < 0 then invalid_arg "Engine.run: negative round bound";
  if spec.n < 0 then invalid_arg "Engine.run: negative number of vertices";
  Metrics.Counter.incr runs_metric;
  let n = spec.n in
  let states = Array.init n init_state in
  let inbox = ref (Array.init n init_inbox) in
  for round = 1 to spec.rounds do
    (* Step vertices in increasing index order — step wrappers that
       validate or read every vertex rely on it — and seed the emissions
       array from vertex 0 to stay allocation-free of dummies. *)
    let step_vertex v =
      let state', emit = spec.step states.(v) ~round ~vertex:v ~inbox:!inbox.(v) in
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
    inbox := spec.exchange ~round ~prev:!inbox emits
  done;
  (* One shard write per series per run, not per round: the loop emits
     exactly [n] messages each of [rounds] rounds, so the aggregate is
     exact and the round loop itself stays metric-free. *)
  Metrics.Counter.add rounds_metric spec.rounds;
  Metrics.Counter.add emissions_metric (n * spec.rounds);
  { states; final_inbox = !inbox }
