(* Message-exchange topologies: how one round's emissions become the next
   round's inboxes. The engine is agnostic; each simulated model plugs in
   the exchange it needs. *)

type ('emit, 'inbox) t = round:int -> prev:'inbox array -> 'emit array -> 'inbox array

module Board = struct
  (* Arrays are kept as posted, never copied. Slots past [rounds] are
     unused; growth doubles. The memo holds a handful of entries per run
     (one per algorithm layer that asks), so a list is searched. *)
  type entry = Entry : { key : 'a Type.Id.t; rounds : int; shift : int; value : 'a } -> entry

  type memo = { mutable entries : entry list; mutable misses : int; mutable hits : int }

  type 'msg t = { mutable posts : 'msg array array; mutable rounds : int; memo : memo }

  let create () = { posts = [||]; rounds = 0; memo = { entries = []; misses = 0; hits = 0 } }

  let post t msgs =
    if t.rounds = Array.length t.posts then begin
      let grown = Array.make (max 4 (2 * t.rounds)) [||] in
      Array.blit t.posts 0 grown 0 t.rounds;
      t.posts <- grown
    end;
    t.posts.(t.rounds) <- msgs;
    t.rounds <- t.rounds + 1

  let once (type a) t (key : a Type.Id.t) ~shift f : a =
    let rec find : entry list -> a option = function
      | [] -> None
      | Entry e :: rest ->
        if e.rounds <> t.rounds || e.shift <> shift then find rest
        else begin
          match Type.Id.provably_equal e.key key with
          | Some Type.Equal -> Some e.value
          | None -> find rest
        end
    in
    let m = t.memo in
    match find m.entries with
    | Some v ->
      m.hits <- m.hits + 1;
      v
    | None ->
      let v = f () in
      m.entries <- Entry { key; rounds = t.rounds; shift; value = v } :: m.entries;
      m.misses <- m.misses + 1;
      v

  let shared t = (t.memo.misses, t.memo.hits)
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
