open Bcclb_bcc
open Bcclb_graph

(* The anonymous sibling of {!Adjacency_matrix}: vertex v broadcasts in
   round r whether its port r−1 carries an input edge — one bit, no IDs,
   KT-0. On the circulant wirings of §3 (port q of v leads to the
   (q+1)-st clockwise successor) that single bit stream determines the
   whole input graph in coordinates relative to the listener: the bit
   heard on port p in round r says whether edge (p+1, p+r+1) — offsets
   from self, mod n — is present. Connectivity is label-independent, so
   after n−1 rounds every vertex decides exactly, without ever having
   consulted its ID. Θ(n) rounds at any density: the anonymous yardstick
   that the ID-broadcasting Θ(log n) {!Discovery} family beats, and the
   vehicle for the orbit-reduced census (its transcripts are exactly
   rotation-equivariant, see {!Bcclb_bcc.Algo.anonymous}).

   Truncated to t rounds, the common knowledge is exactly the slice of
   potential edges at clockwise offset ≤ t from their lower endpoint —
   identical (up to rotation) for every listener, so all vertices reach
   the same verdict. The decision uses only that common slice, not the
   listener's own full row, to keep outputs unanimous. *)

(* The bit heard on port p in round s+1: whether port s of the sender
   behind port p carries an input edge. *)
let heard inbox p s =
  match Inbox.heard inbox ~round:(s + 1) p with
  | Msg.Word b -> Bcclb_util.Bits.to_bool b
  | Msg.Silent -> false

let relative_edges view inbox ~known_ports =
  let n = View.n view in
  let edges = ref [] in
  (* Sender behind port p sits at relative offset p+1; its port s leads a
     further s+1 steps clockwise. *)
  for p = 0 to n - 2 do
    for s = 0 to known_ports - 1 do
      if heard inbox p s then edges := (p + 1, (p + s + 2) mod n) :: !edges
    done
  done;
  (* Own broadcasts, heard by everyone including (conceptually) self:
     the same slice of our own row, offsets from self = 0. *)
  for s = 0 to known_ports - 1 do
    if View.is_input_port view s then edges := (0, s + 1) :: !edges
  done;
  (* An edge at offset s is also the edge at offset n−s from the other
     endpoint, so the slice can name it twice. *)
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (u, v) ->
      let key = (min u v, max u v) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    !edges

(* Decide from the known slice alone. A cycle closing on fewer than n
   known edges certifies a cycle shorter than n — under the 2-regular
   promise, a NO instance. A known subgraph that already connects all n
   relative positions certifies YES. Otherwise guess. *)
let infer ~n ~optimist edges =
  let uf = Conn.create n in
  let known = List.length edges in
  let short_cycle = ref false in
  List.iter
    (fun (u, v) -> if (not (Conn.union uf u v)) && known < n then short_cycle := true)
    edges;
  if !short_cycle then false else if Conn.components uf = 1 then true else optimist

(* The state is the view: everything heard is read off the inbox. *)
let make ~name ~optimist =
  let rounds ~n = n - 1 in
  let init view = view in
  let step view ~round ~inbox:_ = (view, Msg.of_bit (View.is_input_port view (round - 1))) in
  let finish view ~inbox =
    let n = View.n view in
    let t = Inbox.rounds inbox in
    let edges = relative_edges view inbox ~known_ports:t in
    if t >= n - 1 then Graph.is_connected (Graph.of_edges ~n edges)
    else infer ~n ~optimist edges
  in
  Algo.declare_anonymous (Algo.bcc1 ~name ~rounds ~init ~step ~finish)

let connectivity () = Algo.pack (make ~name:"adjacency-broadcast" ~optimist:true)

let connectivity_truncated ~rounds ~optimist =
  let name =
    Printf.sprintf "adjacency-broadcast[%s]" (if optimist then "yes-bias" else "no-bias")
  in
  Algo.pack (Algo.truncate ~rounds (make ~name ~optimist))
