open Bcclb_bcc
open Bcclb_graph

(* Borůvka-style components in BCC(2L) with KT-1 knowledge: the classic
   contrast point (§1) — with b = Θ(log n) bandwidth, Connectivity drops
   to O(log n) rounds on ARBITRARY graphs, whereas BCC(1) needs Ω(log n)
   even on 2-regular ones.

   Every round each vertex broadcasts (own component label, minimum
   foreign neighbour label), each L bits (0 = "no foreign neighbour").
   Everyone hears all n pairs, so the global merge — union every
   announced (label, foreign-label) pair and relabel each class by its
   minimum — comes out the same at every vertex: it runs once per round
   for the whole run (Inbox.once), and a vertex keeps its view and the
   shared labels. Each round at least halves the number of mergeable
   components, so ⌈log₂ n⌉ + 1 rounds converge. *)

type state = {
  view : View.t;
  me : int;  (* my index in the sorted IDs *)
  labels : int array;  (* by vertex index: the smallest ID of its component so far *)
}

let min_foreign st =
  let mine = st.labels.(st.me) in
  let best = ref 0 in
  Array.iter
    (fun p ->
      let lbl = st.labels.(View.index_of_id st.view (View.neighbor_id st.view p)) in
      if lbl <> mine && (!best = 0 || lbl < !best) then best := lbl)
    (View.input_ports st.view);
  !best

let encode st =
  let l = Codec.id_width ~n:(View.n st.view) in
  Msg.of_int ~width:(2 * l) ((st.labels.(st.me) lsl l) lor min_foreign st)

(* The labels once the latest round's pairs are merged: ours from our
   state, every other one off the board. *)
let merge st inbox =
  let n = View.n st.view in
  let l = Codec.id_width ~n in
  let index = View.index_of_id st.view in
  let uf = Conn.create n in
  Array.iteri (fun v lbl -> ignore (Conn.union uf v (index lbl))) st.labels;
  let link lbl foreign = if foreign <> 0 then ignore (Conn.union uf (index lbl) (index foreign)) in
  link st.labels.(st.me) (min_foreign st);
  for p = 0 to View.num_ports st.view - 1 do
    match Inbox.latest inbox p with
    | Msg.Word w ->
      let v = Bcclb_util.Bits.value w in
      link (v lsr l) (v land ((1 lsl l) - 1))
    | Msg.Silent -> ()
  done;
  (* IDs ascend with the index, so a class's smallest index is its
     smallest ID. *)
  let ids = View.all_ids st.view in
  Array.map (fun c -> ids.(c)) (Conn.labels uf)

let make ~name ~answer =
  let rounds ~n = Bcclb_util.Mathx.ceil_log2 (max 2 n) + 2 in
  let bandwidth ~n = 2 * Codec.id_width ~n in
  let merged = Type.Id.make () in
  let init view =
    match View.kt1 view with
    | None -> invalid_arg (name ^ ": needs a KT-1 instance")
    | Some _ -> { view; me = View.index_of_id view (View.id view); labels = View.all_ids view }
  in
  (* The state with every round heard so far merged in: the labels are
     the same at every vertex, so one vertex merges for the run. *)
  let current st inbox =
    if Inbox.rounds inbox = 0 then st
    else { st with labels = Inbox.once inbox merged (fun () -> merge st inbox) }
  in
  let step st ~round:_ ~inbox =
    let st = current st inbox in
    (st, encode st)
  in
  let finish st ~inbox = answer (current st inbox) in
  { Algo.name; anonymous = false; bandwidth; rounds; init; step; finish; truncates = None }

let components () = Algo.pack (make ~name:"boruvka-components" ~answer:(fun st -> st.labels.(st.me)))

let connectivity () =
  Algo.pack
    (make ~name:"boruvka-connectivity" ~answer:(fun st ->
         Array.for_all (Int.equal st.labels.(st.me)) st.labels))
