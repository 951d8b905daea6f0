open Bcclb_bcc

(* The range-parameterised congested clique of Becker et al. [Bec+16],
   described in the paper's §1.3: in each round a vertex may send at most
   [range] DISTINCT messages across its n-1 ports (silence not counted).
   range = 1 is exactly the broadcast model BCC(b); range = n-1 is the
   full congested clique CC(b). The paper cites the fact that problems
   can be provably sensitive to every increment of the range. *)

type ('s, 'o) t = {
  name : string;
  bandwidth : n:int -> int;
  range : n:int -> int;
  rounds : n:int -> int;
  init : View.t -> 's;
  step : 's -> round:int -> inbox:Msg.t array -> 's * Msg.t array;
      (* One message per port; at most [range ~n] distinct non-silent
         values among them. *)
  finish : 's -> inbox:Msg.t array -> 'o;
}

type 'o packed = Packed : ('s, 'o) t -> 'o packed

let pack a = Packed a

let name (Packed a) = a.name
let rounds (Packed a) ~n = a.rounds ~n
let range (Packed a) ~n = a.range ~n

let distinct_messages msgs =
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun m ->
      match m with
      | Msg.Silent -> ()
      | Msg.Word w -> Hashtbl.replace seen (Bcclb_util.Bits.width w, Bcclb_util.Bits.value w) ())
    msgs;
  Hashtbl.length seen

(* Every broadcast algorithm is a range-1 algorithm. The RCC inboxes
   are already indexed by port: the embedding posts each one to the
   vertex's own board and hands the broadcast algorithm that board
   through the identity row. The all-silent round-1 inbox carries no
   round and is not posted. *)
type 's embedded = { inner : 's; heard : Inbox.board; inbox : Inbox.t; last_round : int }

let of_broadcast (Algo.Packed a) =
  let module Board = Bcclb_engine.Topology.Board in
  Packed
    { name = a.Algo.name;
      bandwidth = a.Algo.bandwidth;
      range = (fun ~n:_ -> 1);
      rounds = a.Algo.rounds;
      init =
        (fun view ->
          let heard = Board.create () in
          { inner = a.Algo.init view;
            heard;
            inbox = Inbox.of_ports heard ~ports:(View.num_ports view);
            last_round = 0 });
      step =
        (fun s ~round ~inbox ->
          if round > 1 then Board.post s.heard inbox;
          let inner, msg = a.Algo.step s.inner ~round ~inbox:s.inbox in
          ({ s with inner; last_round = round }, Array.make (Array.length inbox) msg));
      finish =
        (fun s ~inbox ->
          if s.last_round > 0 then Board.post s.heard inbox;
          a.Algo.finish s.inner ~inbox:s.inbox) }
