(* Message-exchange topologies: how one round's emissions become the next
   round's inboxes. The engine is agnostic; each simulated model plugs in
   the exchange it needs. *)

type ('emit, 'inbox) t = round:int -> prev:'inbox array -> 'emit array -> 'inbox array

module Board = struct
  (* Arrays are kept as posted, never copied. Slots past [rounds] are
     unused; growth doubles. *)
  type 'msg t = { mutable posts : 'msg array array; mutable rounds : int }

  let create () = { posts = [||]; rounds = 0 }

  let post t msgs =
    if t.rounds = Array.length t.posts then begin
      let grown = Array.make (max 4 (2 * t.rounds)) [||] in
      Array.blit t.posts 0 grown 0 t.rounds;
      t.posts <- grown
    end;
    t.posts.(t.rounds) <- msgs;
    t.rounds <- t.rounds + 1
end

let board b ~round:_ ~prev emits =
  Board.post b emits;
  prev

let broadcast ~n ~peer ~round:_ ~prev:_ emits =
  Array.init n (fun v -> Array.init (n - 1) (fun p -> emits.(peer v p)))

let unicast ~n ~peer ~port_to ~round:_ ~prev:_ emits =
  (* Vertex u hears, on its port q, what the peer v sent through v's port
     toward u. *)
  Array.init n (fun u ->
      Array.init (n - 1) (fun q ->
          let v = peer u q in
          emits.(v).(port_to v u)))

let two_party ~round:_ ~prev emits =
  if Array.length emits <> 2 then invalid_arg "Topology.two_party: exactly two parties required";
  [| emits.(1) :: prev.(0); emits.(0) :: prev.(1) |]
