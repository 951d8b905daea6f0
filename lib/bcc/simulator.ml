module Engine = Bcclb_engine.Engine
module Observer = Bcclb_engine.Observer
module Topology = Bcclb_engine.Topology

type 'o result = { outputs : 'o array; transcripts : Transcript.t array; rounds_used : int }

(* Every simulator entry accounts every accepted emission's width into
   the process-wide broadcast-volume series — the "bits each player
   communicates" that the paper's counting arguments are about. *)
let bits_broadcast_metric = Bcclb_obs.Metrics.Counter.v "engine.bits_broadcast"

(* Values that [finish] computed once on the run's board ([Inbox.once])
   and the lookups that reused them. *)
let shared_misses_metric = Bcclb_obs.Metrics.Counter.v "bcc.shared_misses"
let shared_hits_metric = Bcclb_obs.Metrics.Counter.v "bcc.shared_hits"

let check_width ~b ~round ~vertex msg =
  if Msg.width msg > b then
    invalid_arg
      (Printf.sprintf "Simulator: vertex %d broadcast %d bits in round %d (bandwidth %d)" vertex
         (Msg.width msg) round b)

(* The one engine setup behind the three entries; they differ only in
   their recorder. [record ~n ~rounds] is called once the run is
   validated and sized, and returns what the entry keeps plus the
   observers that fill it. Every emission is checked against the
   bandwidth and counted as it leaves [step], before any observer sees
   it, so no entry lets an algorithm cheat the model. The run has one
   board: each round's emissions array is posted as the engine built it,
   and vertex v's inbox is a view of it through v's port row, built once
   per run. The returned thunk runs [finish]: only entries that return
   outputs call it, and it lands the board's shared-value counts in
   their series once. *)
let execute ~entry ~seed ~record (Algo.Packed a) inst =
  let n = Instance.n inst in
  let b = a.Algo.bandwidth ~n in
  let rounds = a.Algo.rounds ~n in
  if rounds < 0 then invalid_arg (entry ^ ": negative round bound");
  let kept, observers = record ~n ~rounds in
  (* Widths accumulate in a plain local and land in the shard once per
     run: the emit path stays free of domain-local lookups. *)
  let bits = ref 0 in
  let step state ~round ~vertex ~inbox =
    let ((_, emit) as stepped) = a.Algo.step state ~round ~inbox in
    check_width ~b ~round ~vertex emit;
    bits := !bits + Msg.width emit;
    stepped
  in
  let board = Topology.Board.create () in
  let outcome =
    Engine.run ~observers
      { Engine.n; rounds; step; exchange = Topology.board board }
      ~init_state:(fun v -> a.Algo.init (Instance.view ~coins_seed:seed inst v))
      ~init_inbox:(fun v -> Inbox.view board ~row:(Instance.peer_row inst v))
  in
  Bcclb_obs.Metrics.Counter.add bits_broadcast_metric !bits;
  let outputs () =
    let out =
      Array.init n (fun v -> a.Algo.finish outcome.Engine.states.(v) ~inbox:outcome.Engine.final_inbox.(v))
    in
    let misses, hits = Topology.Board.shared board in
    Bcclb_obs.Metrics.Counter.add shared_misses_metric misses;
    Bcclb_obs.Metrics.Counter.add shared_hits_metric hits;
    out
  in
  (kept, outputs)

(* Transcripts: every emission and every inbox, per vertex and round,
   next to each vertex's coin-free initial knowledge. The only entry
   that copies inboxes: it materialises each view as it is stepped. *)
let run ?(seed = 0) packed inst =
  let record ~n ~rounds =
    let sent = Array.init n (fun _ -> Array.make rounds Msg.silent) in
    let received = Array.init n (fun _ -> Array.make rounds [||]) in
    let keep ~round ~vertex ~inbox ~emit =
      received.(vertex).(round - 1) <- Inbox.to_array inbox;
      sent.(vertex).(round - 1) <- emit
    in
    ((rounds, sent, received), [ Observer.make ~on_emit:keep () ])
  in
  let (rounds, sent, received), outputs = execute ~entry:"Simulator.run" ~seed ~record packed inst in
  let outputs = outputs () in
  let transcripts =
    Array.init (Instance.n inst) (fun v ->
        let fingerprint = View.fingerprint (Instance.view inst v) in
        Transcript.make ~fingerprint ~sent:sent.(v) ~received:received.(v))
  in
  { outputs; transcripts; rounds_used = rounds }

(* Nothing but the outputs: what Monte Carlo and decision cells read. *)
let run_outputs ?(seed = 0) packed inst =
  let record ~n:_ ~rounds:_ = ((), []) in
  let (), outputs = execute ~entry:"Simulator.run_outputs" ~seed ~record packed inst in
  outputs ()

(* Packed codes for the §3 label machinery: each vertex's broadcast
   sequence as one machine word (2 bits per round), so labels compare as
   ints — no received-traffic capture, no transcripts, no outputs. *)
let run_sent_codes ?(seed = 0) packed inst =
  let record ~n ~rounds =
    if 2 * rounds > Bcclb_util.Bits.max_width then
      invalid_arg "Simulator.run_sent_codes: more than 31 rounds do not pack into a word";
    let codes = Array.make n 0 in
    let keep ~round ~vertex ~inbox:_ ~emit =
      codes.(vertex) <- codes.(vertex) lor (Msg.code1 emit lsl (2 * (round - 1)))
    in
    (codes, [ Observer.make ~on_emit:keep () ])
  in
  let codes, _ = execute ~entry:"Simulator.run_sent_codes" ~seed ~record packed inst in
  codes

let indistinguishable_from result i2 =
  let n = Array.length result.transcripts in
  if Instance.n i2 <> n then invalid_arg "Simulator.indistinguishable_from: sizes differ";
  fun r2 ->
    let rec loop v =
      v >= n || (Transcript.equal result.transcripts.(v) r2.transcripts.(v) && loop (v + 1))
    in
    loop 0

let indistinguishable ?(seed = 0) packed i1 i2 =
  if Instance.n i1 <> Instance.n i2 then invalid_arg "Simulator.indistinguishable: sizes differ";
  let r1 = run ~seed packed i1 and r2 = run ~seed packed i2 in
  indistinguishable_from r1 i2 r2

let total_bits_broadcast result =
  Array.fold_left (fun acc t -> acc + Transcript.bits_broadcast t) 0 result.transcripts
