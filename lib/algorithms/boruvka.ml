open Bcclb_bcc
open Bcclb_graph

(* Borůvka-style components in BCC(2L) with KT-1 knowledge: the classic
   contrast point (§1) — with b = Θ(log n) bandwidth, Connectivity drops
   to O(log n) rounds on ARBITRARY graphs, whereas BCC(1) needs Ω(log n)
   even on 2-regular ones.

   Every round each vertex broadcasts (own component label, minimum
   foreign neighbour label), each L bits (0 = "no foreign neighbour").
   Everyone hears all n pairs and can therefore apply the same global
   merge rule: union every announced (label, foreign-label) pair and
   relabel each class by its minimum. Each round at least halves the
   number of mergeable components, so ⌈log₂ n⌉ + 1 rounds converge. *)

type state = {
  view : View.t;
  l : int;
  labels : (int, int) Hashtbl.t;  (* id -> current label, for all ids *)
}

let own_label st = Hashtbl.find st.labels (View.id st.view)

let min_foreign st =
  let mine = own_label st in
  let best = ref 0 in
  Array.iter
    (fun p ->
      let nbr = View.neighbor_id st.view p in
      let lbl = Hashtbl.find st.labels nbr in
      if lbl <> mine && (!best = 0 || lbl < !best) then best := lbl)
    (View.input_ports st.view);
  !best

let encode st =
  let lbl = own_label st and mf = min_foreign st in
  Msg.of_int ~width:(2 * st.l) ((lbl lsl st.l) lor mf)

let decode st msg =
  match msg with
  | Msg.Silent -> None
  | Msg.Word b ->
    let v = Bcclb_util.Bits.value b in
    Some (v lsr st.l, v land ((1 lsl st.l) - 1))

(* Apply one global merge from the (label, min-foreign) pairs everyone
   announced. All vertices run this identically, so label maps never
   diverge. *)
let merge st pairs =
  let module Sp = Map.Make (Int) in
  (* Collect participating labels. *)
  let all_labels = Hashtbl.fold (fun _ lbl acc -> Sp.add lbl () acc) st.labels Sp.empty in
  let index = Array.of_seq (Seq.map fst (Sp.to_seq all_labels)) in
  let pos = Hashtbl.create 16 in
  Array.iteri (fun i lbl -> Hashtbl.add pos lbl i) index;
  let links = ref [] in
  List.iter
    (fun (lbl, mf) ->
      if mf <> 0 then begin
        match (Hashtbl.find_opt pos lbl, Hashtbl.find_opt pos mf) with
        | Some a, Some b when a <> b -> links := (a, b) :: !links
        | _ -> ()
      end)
    pairs;
  (* Bulk component labels over label indices. [index] is sorted, so the
     canonical smallest-index label of a class is also its minimum old
     label — the new label of every class member. *)
  let cls = Graph.components_of_edges ~n:(Array.length index) (Array.of_list !links) in
  let relabel lbl = index.(cls.(Hashtbl.find pos lbl)) in
  let updated = Hashtbl.create (Hashtbl.length st.labels) in
  Hashtbl.iter (fun id lbl -> Hashtbl.add updated id (relabel lbl)) st.labels;
  { st with labels = updated }

let absorb st ~inbox =
  (* Pairs announced in the previous round, one per port, plus our own. *)
  let pairs = ref [] in
  let missing = ref false in
  for p = 0 to View.num_ports st.view - 1 do
    match decode st (Inbox.latest inbox p) with
    | Some pair -> pairs := pair :: !pairs
    | None -> missing := true
  done;
  if !missing then st
  else begin
    let own_pair = (own_label st, min_foreign st) in
    merge st (own_pair :: !pairs)
  end

let make_state view =
  let labels = Hashtbl.create 16 in
  Array.iter (fun id -> Hashtbl.add labels id id) (View.all_ids view);
  { view; l = Codec.id_width ~n:(View.n view); labels }

let make ~name ~finish =
  let rounds ~n = Bcclb_util.Mathx.ceil_log2 (max 2 n) + 2 in
  let bandwidth ~n = 2 * Codec.id_width ~n in
  let init view =
    match View.kt1 view with
    | None -> invalid_arg (name ^ ": needs a KT-1 instance")
    | Some _ -> make_state view
  in
  let step st ~round:_ ~inbox =
    let st = absorb st ~inbox in
    (st, encode st)
  in
  { Algo.name; anonymous = false; bandwidth; rounds; init; step; finish; truncates = None }

let components () =
  Algo.pack
    (make ~name:"boruvka-components" ~finish:(fun st ~inbox ->
         let st = absorb st ~inbox in
         own_label st))

let connectivity () =
  Algo.pack
    (make ~name:"boruvka-connectivity" ~finish:(fun st ~inbox ->
         let st = absorb st ~inbox in
         let first = own_label st in
         Hashtbl.fold (fun _ lbl acc -> acc && lbl = first) st.labels true))
