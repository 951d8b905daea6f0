module Board = Bcclb_engine.Topology.Board

(* A window onto a board: port p reads column [row.(p)] of every round
   posted after the first [first]. The engine's boards are indexed by
   sender and read through the vertex's port→peer row; code-built ones
   (Split's inner rounds, replays, embeddings) are indexed by port and
   read through the identity. *)
type board = Msg.t Board.t

type t = { board : board; row : int array; first : int }

let view board ~row = { board; row; first = 0 }

let of_ports board ~ports = view board ~row:(Array.init ports Fun.id)

let ports t = Array.length t.row

let rounds t = t.board.Board.rounds - t.first

let heard t ~round p =
  if round < 1 || round > rounds t then invalid_arg "Inbox.heard: round not heard yet";
  t.board.Board.posts.(t.first + round - 1).(t.row.(p))

let latest t p =
  let r = rounds t in
  if r = 0 then Msg.silent else heard t ~round:r p

(* One call per window, not per round: the loop reads the board's
   arrays directly. *)
let bits t ~port ~first ~width =
  let heard = rounds t and sender = t.row.(port) and posts = t.board.Board.posts in
  let complete = ref true in
  let v = ref 0 in
  for r = first to first + width - 1 do
    let bit =
      if r < 1 || r > heard then begin
        complete := false;
        0
      end
      else begin
        match posts.(t.first + r - 1).(sender) with
        | Msg.Silent ->
          complete := false;
          0
        | Msg.Word b -> if Bcclb_util.Bits.to_bool b then 1 else 0
      end
    in
    v := (!v lsl 1) lor bit
  done;
  (!v, !complete)

let to_array t = Array.init (ports t) (latest t)

(* The key includes the shift, so a compiled algorithm's inner views
   (shifted past its own rounds) never meet its outer ones. *)
let once t key f = Board.once t.board key ~shift:t.first f

let shift t ~rounds:k =
  if k < 0 || k > rounds t then invalid_arg "Inbox.shift: more rounds than heard";
  { t with first = t.first + k }
