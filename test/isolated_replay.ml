(* The isolated-replay oracle for shared steps and finishes. A run
   computes what every vertex can work out alike once per board
   (Inbox.once); here each vertex v instead runs alone on a board of its
   own, indexed by port and fed round by round with what its ports
   carried in a Simulator.run (port p carries sent.(peer v p)). Nothing
   is shared with any other vertex, so v's steps and finish are computed
   by v from its own state and ports. Every step's emission is checked
   against the one the run recorded, so the replay is the run as v saw
   it. *)

open Bcclb_bcc
module Board = Bcclb_engine.Topology.Board

(* Each vertex's [finish], called [calls] times on its final state and
   inbox. *)
let finishes ?(seed = 0) ~calls (Algo.Packed a as algo) inst =
  let n = Instance.n inst in
  let rounds = a.Algo.rounds ~n in
  let transcripts = (Simulator.run ~seed algo inst).Simulator.transcripts in
  let sent v round = Transcript.sent transcripts.(v) round in
  Array.init n (fun v ->
      let board = Board.create () in
      let inbox = Inbox.of_ports board ~ports:(n - 1) in
      let state = ref (a.Algo.init (Instance.view ~coins_seed:seed inst v)) in
      for round = 1 to rounds do
        let next, emit = a.Algo.step !state ~round ~inbox in
        if not (Msg.equal emit (sent v round)) then
          failwith
            (Printf.sprintf "%s: vertex %d emitted %s in round %d, the run recorded %s" a.Algo.name v
               (Msg.to_string emit) round
               (Msg.to_string (sent v round)));
        state := next;
        Board.post board (Array.init (n - 1) (fun p -> sent (Instance.peer inst v p) round))
      done;
      List.init calls (fun _ -> a.Algo.finish !state ~inbox))

let outputs ?seed algo inst = Array.map List.hd (finishes ?seed ~calls:1 algo inst)

(* The vertices whose [Simulator.run_outputs] entry differs from their
   isolated finish. *)
let disagreements ?(seed = 0) algo inst =
  let shared = Simulator.run_outputs ~seed algo inst and alone = outputs ~seed algo inst in
  List.filter (fun v -> shared.(v) <> alone.(v)) (List.init (Instance.n inst) Fun.id)
