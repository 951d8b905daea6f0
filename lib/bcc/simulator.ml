module Engine = Bcclb_engine.Engine
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

(* The one execution behind every entry. Every emission is checked
   against the bandwidth and counted as it leaves [step], so no entry
   lets an algorithm cheat the model. The run has one board: each
   round's emissions array is posted as the engine built it, and vertex
   v's inbox is a view of it through v's wiring, built once per run.
   The board is the run's whole record, and it is returned; the entries
   read transcripts and codes off it. [reads] are the round counts at
   which every vertex's [finish] runs on its live state and view; the
   result holds one outputs array per read. A read at the run's own
   round count runs after the loop on the final states; only a read
   before it mirrors each vertex's state as it is stepped, so the other
   entries keep the bare step. Entries that read land the board's
   shared-value counts in their series once. *)
let execute ~entry ~seed ~reads (Algo.Packed a) inst =
  let n = Instance.n inst in
  let b = a.Algo.bandwidth ~n in
  let rounds = a.Algo.rounds ~n in
  if rounds < 0 then invalid_arg (entry ^ ": negative round bound");
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
  let view v = Inbox.view board ~row:(Instance.port_row inst v) in
  let init v = a.Algo.init (Instance.view ~coins_seed:seed inst v) in
  let outputs = Array.make (Array.length reads) [||] in
  (* Every read of [r] gets one array: a finish runs once per vertex and
     round count. *)
  let read r states views =
    if Array.exists (Int.equal r) reads then begin
      let o = Array.init n (fun v -> a.Algo.finish states.(v) ~inbox:views.(v)) in
      Array.iteri (fun i r' -> if r' = r then outputs.(i) <- o) reads
    end
  in
  let step, init, view =
    if not (Array.exists (fun r -> r < rounds) reads) then (step, init, view)
    else begin
      let live = Array.init n init and views = Array.init n view in
      (* Vertex 0 steps first in every round, so just before it steps in
         round r + 1 every state and the board are at round r. *)
      let mirrored state ~round ~vertex ~inbox =
        if vertex = 0 then read (round - 1) live views;
        let ((state', _) as stepped) = step state ~round ~vertex ~inbox in
        live.(vertex) <- state';
        stepped
      in
      (mirrored, Array.get live, Array.get views)
    end
  in
  let outcome =
    Engine.run
      { Engine.n; rounds; step; exchange = Topology.board board }
      ~init_state:init ~init_inbox:view
  in
  Bcclb_obs.Metrics.Counter.add bits_broadcast_metric !bits;
  if Array.length reads > 0 then begin
    read rounds outcome.Engine.states outcome.Engine.final_inbox;
    let misses, hits = Topology.Board.shared board in
    Bcclb_obs.Metrics.Counter.add shared_misses_metric misses;
    Bcclb_obs.Metrics.Counter.add shared_hits_metric hits
  end;
  (board, outputs)

(* Transcripts are views of the board, next to the outputs after the
   last round. *)
let run ?(seed = 0) packed inst =
  let n = Instance.n inst in
  let rounds = Algo.rounds packed ~n in
  let board, outputs = execute ~entry:"Simulator.run" ~seed ~reads:[| rounds |] packed inst in
  { outputs = outputs.(0); transcripts = Array.init n (Transcript.of_board board inst); rounds_used = rounds }

(* Outputs only, at each requested round count: what Monte Carlo,
   decision and exact-error cells read. A count other than the
   algorithm's own names a shallower member of its truncation family,
   which runs the same steps on the same board up to that round, so its
   outputs are [finish] on the live states and views at that round. *)
let run_members ?(seed = 0) packed inst ~rounds:reads =
  let n = Instance.n inst in
  let own = Algo.rounds packed ~n in
  Array.iter
    (fun r ->
      if r <> own then begin
        if r < 0 || r > own then
          invalid_arg
            (Printf.sprintf "Simulator.run_members: %s runs %d rounds, cannot read round %d"
               (Algo.name packed) own r);
        if Option.is_none (Algo.deepen ~rounds:r packed) then
          invalid_arg
            (Printf.sprintf
               "Simulator.run_members: %s is not a truncation, so it has no %d-round member"
               (Algo.name packed) r)
      end)
    reads;
  snd (execute ~entry:"Simulator.run_members" ~seed ~reads packed inst)

let run_outputs ?seed packed inst =
  (run_members ?seed packed inst ~rounds:[| Algo.rounds packed ~n:(Instance.n inst) |]).(0)

(* Packed codes for the §3 label machinery: each vertex's broadcast
   sequence as one machine word (2 bits per round), read off the board
   after the loop, so labels compare as ints — no transcripts, no
   outputs. *)
let run_sent_codes ?(seed = 0) packed inst =
  let n = Instance.n inst in
  if 2 * Algo.rounds packed ~n > Bcclb_util.Bits.max_width then
    invalid_arg "Simulator.run_sent_codes: more than 31 rounds do not pack into a word";
  let board, _ = execute ~entry:"Simulator.run_sent_codes" ~seed ~reads:[||] packed inst in
  let posts = board.Topology.Board.posts in
  Array.init n (fun v ->
      let code = ref 0 in
      for i = board.Topology.Board.rounds - 1 downto 0 do
        code := (!code lsl 2) lor Msg.code1 posts.(i).(v)
      done;
      !code)

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
