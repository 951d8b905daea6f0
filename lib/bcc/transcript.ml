module Board = Bcclb_engine.Topology.Board

(* A window onto the run's board: the vertex's own column of every round
   posted, and round r − 1's columns through its wiring as what it
   received into round r. Initial knowledge stays on the instance. *)
type t = { board : Inbox.board; inst : Instance.t; vertex : int; row : Port_row.t; rounds : int }

let of_board board inst v =
  { board; inst; vertex = v; row = Instance.port_row inst v; rounds = board.Board.rounds }

let rounds t = t.rounds

let sent t r =
  if r < 1 || r > t.rounds then invalid_arg "Transcript.sent: round out of range";
  t.board.Board.posts.(r - 1).(t.vertex)

let received t r p =
  if r < 1 || r > t.rounds then invalid_arg "Transcript.received: round out of range";
  if p < 0 || p >= Port_row.ports t.row then invalid_arg "Transcript.received: port out of range";
  if r = 1 then Msg.silent else t.board.Board.posts.(r - 2).(Port_row.get t.row p)

let knowledge t = Instance.view t.inst t.vertex

let sent_string t = String.init t.rounds (fun i -> Msg.to_char1 (sent t (i + 1)))

(* Width and value: a 0-bit word carries no more than silence does. *)
let same_msg a b =
  match (a, b) with
  | Msg.Word x, Msg.Word y -> Bcclb_util.Bits.equal x y
  | _ -> Msg.width a = 0 && Msg.width b = 0

let equal a b =
  let pa = a.board.Board.posts and pb = b.board.Board.posts in
  let ports = Port_row.ports a.row in
  (* Round i + 1's broadcasts through every port from [p] on: what each
     vertex received into round i + 2. *)
  let rec heard i p =
    p >= ports
    || (same_msg pa.(i).(Port_row.get a.row p) pb.(i).(Port_row.get b.row p) && heard i (p + 1))
  in
  let rec from i =
    i >= a.rounds
    || same_msg pa.(i).(a.vertex) pb.(i).(b.vertex)
       && (i + 1 >= a.rounds || heard i 0)
       && from (i + 1)
  in
  a.rounds = b.rounds
  && ports = Port_row.ports b.row
  && Instance.same_knowledge a.inst a.vertex b.inst b.vertex
  && from 0

let bits_broadcast t =
  let bits = ref 0 in
  for i = 0 to t.rounds - 1 do
    bits := !bits + Msg.width t.board.Board.posts.(i).(t.vertex)
  done;
  !bits
