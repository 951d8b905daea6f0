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
   leaving its component; everyone applies the same global merge
   (per-component minimum, union, relabel by minimum id) and records the
   chosen edges. Distinct weights make the result the unique minimum
   spanning forest, checked against Kruskal in the tests. *)

type state = {
  view : View.t;
  l : int;
  weight : int -> int -> int;
  labels : (int, int) Hashtbl.t;  (* id -> component label *)
  forest : (int * int) list;  (* chosen MST edges, by IDs *)
}

let own_label st = Hashtbl.find st.labels (View.id st.view)

(* Our minimum-weight incident edge leaving our component, as the
   neighbour id (0 = none). *)
let best_outgoing st =
  let me = View.id st.view in
  let mine = own_label st in
  let best = ref 0 in
  List.iter
    (fun p ->
      let nbr = View.neighbor_id st.view p in
      if Hashtbl.find st.labels nbr <> mine then
        if !best = 0 || st.weight me nbr < st.weight me !best then best := nbr)
    (View.input_ports st.view);
  !best

let encode st =
  let lbl = own_label st and out = best_outgoing st in
  Msg.of_int ~width:(2 * st.l) ((lbl lsl st.l) lor out)

let decode st msg =
  match msg with
  | Msg.Silent -> None
  | Msg.Word w ->
    let v = Bcclb_util.Bits.value w in
    Some (v lsr st.l, v land ((1 lsl st.l) - 1))

(* One global merge from everyone's (label, best-outgoing-nbr) pairs.
   The candidate edge of a pair announced by sender s is (s, nbr); its
   weight is computable by everyone. For each component keep the
   minimum-weight candidate, add those edges to the forest, merge, and
   relabel classes by their minimum label. *)
let merge st pairs =
  (* pairs: (sender_id, label, out_nbr). *)
  let best_of_label = Hashtbl.create 16 in
  List.iter
    (fun (sender, lbl, out) ->
      if out <> 0 then begin
        let w = st.weight sender out in
        match Hashtbl.find_opt best_of_label lbl with
        | Some (w', _, _) when w' <= w -> ()
        | _ -> Hashtbl.replace best_of_label lbl (w, sender, out)
      end)
    pairs;
  if Hashtbl.length best_of_label = 0 then st
  else begin
    (* Union labels along the chosen edges. *)
    let all_labels = Hashtbl.create 16 in
    Hashtbl.iter (fun _ lbl -> Hashtbl.replace all_labels lbl ()) st.labels;
    let index = Hashtbl.create 16 in
    let order = ref [] in
    Hashtbl.iter (fun lbl () -> order := lbl :: !order) all_labels;
    let order = Array.of_list (List.sort Int.compare !order) in
    Array.iteri (fun i lbl -> Hashtbl.add index lbl i) order;
    let links = ref [] in
    let new_edges = ref [] in
    Hashtbl.iter
      (fun lbl (_w, sender, out) ->
        let other = Hashtbl.find st.labels out in
        (match (Hashtbl.find_opt index lbl, Hashtbl.find_opt index other) with
        | Some a, Some b when a <> b -> links := (a, b) :: !links
        | _ -> ());
        new_edges := (min sender out, max sender out) :: !new_edges)
      best_of_label;
    (* Bulk component labels over label indices. [order] is sorted, so a
       class's canonical smallest-index label is its minimum old label. *)
    let cls = Graph.components_of_edges ~n:(Array.length order) (Array.of_list !links) in
    let relabel lbl = order.(cls.(Hashtbl.find index lbl)) in
    let updated = Hashtbl.create (Hashtbl.length st.labels) in
    Hashtbl.iter (fun id lbl -> Hashtbl.add updated id (relabel lbl)) st.labels;
    (* Two components may choose the same edge (from both sides):
       deduplicate. *)
    let forest =
      List.sort_uniq compare (!new_edges @ st.forest)
    in
    { st with labels = updated; forest }
  end

let absorb st ~inbox =
  let pairs = ref [] in
  let missing = ref false in
  for p = 0 to View.num_ports st.view - 1 do
    match decode st (Inbox.latest inbox p) with
    | Some (lbl, out) -> pairs := (View.neighbor_id st.view p, lbl, out) :: !pairs
    | None -> missing := true
  done;
  if !missing then st
  else begin
    let own_pair = (View.id st.view, own_label st, best_outgoing st) in
    merge st (own_pair :: !pairs)
  end

let make ~name ~finish =
  let rounds ~n = Bcclb_util.Mathx.ceil_log2 (max 2 n) + 2 in
  let bandwidth ~n = 2 * Codec.id_width ~n in
  let init view =
    match View.kt1 view with
    | None -> invalid_arg (name ^ ": needs a KT-1 instance")
    | Some _ ->
      let labels = Hashtbl.create 16 in
      Array.iter (fun id -> Hashtbl.add labels id id) (View.all_ids view);
      { view;
        l = Codec.id_width ~n:(View.n view);
        weight = Mst.weight_of_ids ~max_id:(View.n view);
        labels;
        forest = [] }
  in
  let step st ~round:_ ~inbox =
    let st = absorb st ~inbox in
    (st, encode st)
  in
  { Algo.name; anonymous = false; bandwidth; rounds; init; step; finish; truncates = None }

let forest () =
  Algo.pack
    (make ~name:"mst-boruvka" ~finish:(fun st ~inbox ->
         let st = absorb st ~inbox in
         List.sort compare st.forest))

let total_weight () =
  Algo.pack
    (make ~name:"mst-boruvka-weight" ~finish:(fun st ~inbox ->
         let st = absorb st ~inbox in
         List.fold_left (fun acc (u, v) -> acc + st.weight u v) 0 st.forest))
