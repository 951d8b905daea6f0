open Bcclb_bcc
open Bcclb_graph

(* Borůvka MST in BCC(2L) with KT-1 knowledge, O(log n) rounds: the MST
   side of the paper's CC-vs-BCC contrast (§1 cites O(1)-round MST in
   CC(log n) [JN18] vs the Ω(log n) connectivity bound here).

   Weights are the canonical injective function of the endpoint IDs
   (Mst.weight_of_ids), so every vertex can evaluate the weight of any
   edge it hears about and no weight bits ever travel: a message is
   (component label, best outgoing neighbour id), 2L bits, as in
   Boruvka. Each round every vertex announces its minimum-weight edge
   leaving its component; the global merge (per-component minimum,
   union, relabel by minimum id, record the chosen edges) comes out the
   same at every vertex, so it runs once per round for the whole run
   (Inbox.once). Distinct weights make the result the unique minimum
   spanning forest, checked against Kruskal in the tests. *)

(* What every vertex knows after a round's merge. *)
type public = {
  labels : int array;  (* by vertex index: the smallest ID of its component *)
  forest : (int * int) list;  (* chosen MST edges, by IDs, sorted *)
}

type state = {
  view : View.t;
  me : int;  (* my index in the sorted IDs *)
  weight : int -> int -> int;
  known : public;
}

(* Our minimum-weight incident edge leaving our component, as the
   neighbour id (0 = none). *)
let best_outgoing st =
  let me = View.id st.view and mine = st.known.labels.(st.me) in
  let best = ref 0 in
  Array.iter
    (fun p ->
      let nbr = View.neighbor_id st.view p in
      if st.known.labels.(View.index_of_id st.view nbr) <> mine then
        if !best = 0 || st.weight me nbr < st.weight me !best then best := nbr)
    (View.input_ports st.view);
  !best

let encode st =
  let l = Codec.id_width ~n:(View.n st.view) in
  Msg.of_int ~width:(2 * l) ((st.known.labels.(st.me) lsl l) lor best_outgoing st)

(* One global merge from everyone's (label, best-outgoing-nbr) pairs:
   ours from our state, every other one off the board. The candidate
   edge of a pair announced by sender s is (s, nbr); its weight is
   computable by everyone. For each component keep the minimum-weight
   candidate, add those edges to the forest, merge along them, and
   relabel classes by their minimum ID. *)
let merge st inbox =
  let n = View.n st.view in
  let l = Codec.id_width ~n in
  let index = View.index_of_id st.view in
  (* By the index of the component's label. *)
  let best = Array.make n None in
  let propose sender lbl out =
    if out <> 0 then begin
      let c = index lbl and w = st.weight sender out in
      match best.(c) with
      | Some (w', _, _) when w' <= w -> ()
      | _ -> best.(c) <- Some (w, sender, out)
    end
  in
  propose (View.id st.view) st.known.labels.(st.me) (best_outgoing st);
  for p = 0 to View.num_ports st.view - 1 do
    match Inbox.latest inbox p with
    | Msg.Word w ->
      let v = Bcclb_util.Bits.value w in
      propose (View.neighbor_id st.view p) (v lsr l) (v land ((1 lsl l) - 1))
    | Msg.Silent -> ()
  done;
  let uf = Conn.create n in
  Array.iteri (fun v lbl -> ignore (Conn.union uf v (index lbl))) st.known.labels;
  (* Two components may choose the same edge (from both sides):
     deduplicate. *)
  let chosen = ref st.known.forest in
  Array.iter
    (function
      | Some (_, sender, out) ->
        ignore (Conn.union uf (index sender) (index out));
        chosen := (min sender out, max sender out) :: !chosen
      | None -> ())
    best;
  let ids = View.all_ids st.view in
  { labels = Array.map (fun c -> ids.(c)) (Conn.labels uf); forest = List.sort_uniq compare !chosen }

let make ~name ~answer =
  let rounds ~n = Bcclb_util.Mathx.ceil_log2 (max 2 n) + 2 in
  let bandwidth ~n = 2 * Codec.id_width ~n in
  let merged = Type.Id.make () in
  let init view =
    match View.kt1 view with
    | None -> invalid_arg (name ^ ": needs a KT-1 instance")
    | Some _ ->
      { view;
        me = View.index_of_id view (View.id view);
        weight = Mst.weight_of_ids ~max_id:(View.n view);
        known = { labels = View.all_ids view; forest = [] } }
  in
  (* The state with every round heard so far merged in: the same at
     every vertex, so one vertex merges for the run. *)
  let current st inbox =
    if Inbox.rounds inbox = 0 then st
    else { st with known = Inbox.once inbox merged (fun () -> merge st inbox) }
  in
  let step st ~round:_ ~inbox =
    let st = current st inbox in
    (st, encode st)
  in
  let finish st ~inbox = answer (current st inbox) in
  { Algo.name; anonymous = false; bandwidth; rounds; init; step; finish; truncates = None }

let forest () = Algo.pack (make ~name:"mst-boruvka" ~answer:(fun st -> st.known.forest))

let total_weight () =
  Algo.pack
    (make ~name:"mst-boruvka-weight" ~answer:(fun st ->
         List.fold_left (fun acc (u, v) -> acc + st.weight u v) 0 st.known.forest))
