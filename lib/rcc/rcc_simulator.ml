open Bcclb_bcc
module Engine = Bcclb_engine.Engine
module Topology = Bcclb_engine.Topology

type 'o result = { outputs : 'o array; rounds_used : int; max_distinct : int }

let run ?(seed = 0) (Rcc_algo.Packed a) inst =
  let n = Instance.n inst in
  let b = a.Rcc_algo.bandwidth ~n in
  let r = a.Rcc_algo.range ~n in
  let total_rounds = a.Rcc_algo.rounds ~n in
  let max_distinct = ref 0 in
  (* Every emission is checked as it leaves [step], before the exchange:
     one message per port, each within the bandwidth, and at most [r]
     distinct among them. *)
  let step state ~round ~vertex ~inbox =
    let ((_, msgs) as stepped) = a.Rcc_algo.step state ~round ~inbox in
    if Array.length msgs <> n - 1 then invalid_arg "Rcc_simulator.run: one message per port required";
    Array.iter
      (fun m -> if Msg.width m > b then invalid_arg "Rcc_simulator.run: bandwidth violation")
      msgs;
    let distinct = Rcc_algo.distinct_messages msgs in
    if distinct > r then
      invalid_arg
        (Printf.sprintf
           "Rcc_simulator.run: vertex %d sent %d distinct messages (range %d) in round %d" vertex
           distinct r round);
    max_distinct := max !max_distinct distinct;
    stepped
  in
  let outcome =
    Engine.run
      { Engine.n;
        rounds = total_rounds;
        step;
        exchange = Topology.unicast ~n ~peer:(Instance.peer inst) ~port_to:(Instance.port_to inst) }
      ~init_state:(fun v -> a.Rcc_algo.init (Instance.view ~coins_seed:seed inst v))
      ~init_inbox:(fun _ -> Array.make (n - 1) Msg.silent)
  in
  let outputs =
    Array.init n (fun v ->
        a.Rcc_algo.finish outcome.Engine.states.(v) ~inbox:outcome.Engine.final_inbox.(v))
  in
  { outputs; rounds_used = total_rounds; max_distinct = !max_distinct }
