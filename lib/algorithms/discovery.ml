open Bcclb_bcc
open Bcclb_graph

(* Full-graph discovery for bounded-degree inputs: the tightness witness
   of §1.1 ("our lower bounds are tight for uniformly sparse graphs",
   cf. [MT16]). Every vertex broadcasts its ID (KT-0 only, L rounds) and
   then its input-neighbour ID list (d blocks of L rounds, 0-padded).
   Broadcasts are heard by everyone, so after L + dL rounds (KT-0) or dL
   rounds (KT-1) each vertex knows the entire input graph and answers
   locally. Total rounds are O(d log n): Θ(log n) for the 2-regular
   promise problems, matching the Ω(log n) lower bounds. *)

type output = { connected : bool; component : int }

type state = {
  view : View.t;
  l : int;
  d : int;
  nbrs : int array;
      (* own input-neighbour IDs, ascending: initial knowledge in KT-1;
         in KT-0 decoded once, when the last bit of phase 1 arrives *)
}

let phase1_rounds st = match View.kt1 st.view with Some _ -> 0 | None -> st.l

(* KT-0: the IDs heard on input ports in rounds 1..L. *)
let decode_neighbors st inbox =
  Codec.decode_ports inbox (View.input_ports st.view) ~first:1 ~width:st.l

let step st ~round ~inbox =
  let p1 = phase1_rounds st in
  if round <= p1 then
    (* Broadcast own ID, big-endian. *)
    let bit = Codec.bit_of_int ~width:st.l ~pos:(round - 1) (View.id st.view) in
    (st, Codec.msg_of_bit bit)
  else begin
    let st =
      if round = p1 + 1 && p1 > 0 then { st with nbrs = decode_neighbors st inbox } else st
    in
    let r = round - p1 - 1 in
    let block = r / st.l and pos = r mod st.l in
    let value = if block < Array.length st.nbrs then st.nbrs.(block) else 0 in
    (st, Codec.msg_of_bit (Codec.bit_of_int ~width:st.l ~pos value))
  end

(* Own adjacency, last neighbour first: in KT-0 it is only known once
   phase 1 decoded. *)
let own_edges st =
  let own = View.id st.view in
  Array.fold_left (fun acc nbr -> (own, nbr) :: acc) [] st.nbrs

(* Decode everything heard (tolerating truncation) into a graph over IDs.
   Returns the edge list over IDs and whether decoding was complete. *)
let decode_graph st inbox =
  let p1 = phase1_rounds st in
  let complete = ref true in
  let edges = ref (own_edges st) in
  if Array.length st.nbrs < View.degree st.view then complete := false;
  for p = 0 to View.num_ports st.view - 1 do
    let sender_id =
      match View.kt1 st.view with
      | Some _ -> Some (View.neighbor_id st.view p)
      | None ->
        let v, ok = Codec.decode inbox ~port:p ~first:1 ~width:st.l in
        if ok then Some v else None
    in
    match sender_id with
    | None -> complete := false
    | Some sid ->
      for block = 0 to st.d - 1 do
        let v, ok = Codec.decode inbox ~port:p ~first:(p1 + (block * st.l) + 1) ~width:st.l in
        if not ok then complete := false
        else if v <> 0 then edges := (sid, v) :: !edges
      done
  done;
  (!edges, !complete)

let components_of_id_edges ~ids edges =
  (* Graph over the ID space; unknown IDs are ignored defensively. *)
  let index = Hashtbl.create 16 in
  Array.iteri (fun i id -> Hashtbl.add index id i) ids;
  let ok (u, v) = Hashtbl.mem index u && Hashtbl.mem index v && u <> v in
  let g =
    Graph.of_edges ~n:(Array.length ids)
      (List.map (fun (u, v) -> (Hashtbl.find index u, Hashtbl.find index v)) (List.filter ok edges))
  in
  let labels = Graph.components g in
  (* Back to ID labels: component label = smallest ID in the component. *)
  let comp_min = Hashtbl.create 16 in
  Array.iteri
    (fun i id ->
      let c = labels.(i) in
      match Hashtbl.find_opt comp_min c with
      | None -> Hashtbl.add comp_min c id
      | Some m -> if id < m then Hashtbl.replace comp_min c id)
    ids;
  (Graph.num_components g, fun id -> Hashtbl.find comp_min labels.(Hashtbl.find index id))

(* [on_incomplete] decides behaviour under truncation: what to output when
   the transcript does not determine the graph, given the edges it does
   determine (decoded on demand). *)
let make ~knowledge ~max_degree ~name ~on_incomplete () =
  let rounds ~n =
    let l = Codec.id_width ~n in
    (match knowledge with Instance.KT0 -> l | Instance.KT1 -> 0) + (max_degree * l)
  in
  let init view =
    if View.degree view > max_degree then
      invalid_arg (Printf.sprintf "%s: vertex degree exceeds declared bound %d" name max_degree);
    (match (knowledge, View.kt1 view) with
    | Instance.KT1, None -> invalid_arg (name ^ ": needs a KT-1 instance")
    | _ -> ());
    let nbrs =
      match View.kt1 view with
      | Some _ ->
        let ids = Array.map (View.neighbor_id view) (View.input_ports view) in
        Array.sort Int.compare ids;
        ids
      | None -> [||]
    in
    { view; l = Codec.id_width ~n:(View.n view); d = max_degree; nbrs }
  in
  (* All IDs are known: 1..n by repository convention in KT-0; exact
     list in KT-1. *)
  let components st edges =
    let ids =
      match View.kt1 st.view with
      | Some k -> k.View.all_ids
      | None -> Array.init (View.n st.view) (fun i -> i + 1)
    in
    components_of_id_edges ~ids edges
  in
  let answer st (num_components, label_of) =
    { connected = num_components = 1; component = label_of (View.id st.view) }
  in
  (* Before the last round every port's last block is still unheard (an
     instance has n >= 2, so a port), and no graph is complete: the
     decider gets the edges heard so far only if it reads them. Before
     the first neighbour block ends, no block decodes, and those edges
     are the vertex's own. *)
  let decide st inbox =
    let heard = Inbox.rounds inbox in
    if heard >= rounds ~n:(View.n st.view) then begin
      let edges, complete = decode_graph st inbox in
      if complete then answer st (components st edges) else on_incomplete st (Lazy.from_val edges)
    end
    else if heard < phase1_rounds st + st.l then on_incomplete st (lazy (own_edges st))
    else on_incomplete st (lazy (fst (decode_graph st inbox)))
  in
  let graph = Type.Id.make () in
  (* Once a vertex has heard the whole schedule and knows its own list,
     the ID graph is common knowledge: one vertex computes its components
     and label map for the run, and each vertex reads its own label.
     Earlier (truncated runs), each vertex decides alone. *)
  let finish st ~inbox =
    let heard_schedule =
      Inbox.rounds inbox >= rounds ~n:(View.n st.view) && Array.length st.nbrs = View.degree st.view
    in
    let complete_graph () =
      let edges, complete = decode_graph st inbox in
      if complete then Some (components st edges) else None
    in
    match if heard_schedule then Inbox.once inbox graph complete_graph else None with
    | Some c -> answer st c
    | None -> decide st inbox
  in
  Algo.bcc1 ~name ~rounds ~init ~step ~finish

let connectivity ~knowledge ~max_degree =
  let name =
    Printf.sprintf "discovery-connectivity[%s,d<=%d]"
      (match knowledge with Instance.KT0 -> "KT-0" | Instance.KT1 -> "KT-1")
      max_degree
  in
  let algo =
    make ~knowledge ~max_degree ~name
      ~on_incomplete:(fun st _edges -> { connected = true; component = View.id st.view })
      ()
  in
  Algo.pack (Algo.map_output (fun o -> o.connected) algo)

let components ~knowledge ~max_degree =
  let name =
    Printf.sprintf "discovery-components[%s,d<=%d]"
      (match knowledge with Instance.KT0 -> "KT-0" | Instance.KT1 -> "KT-1")
      max_degree
  in
  let algo =
    make ~knowledge ~max_degree ~name
      ~on_incomplete:(fun st _edges -> { connected = true; component = View.id st.view })
      ()
  in
  Algo.pack (Algo.map_output (fun o -> o.component) algo)

let connectivity_truncated ~knowledge ~max_degree ~rounds ~optimist =
  let name =
    Printf.sprintf "discovery[%s,d<=%d,%s]"
      (match knowledge with Instance.KT0 -> "KT-0" | Instance.KT1 -> "KT-1")
      max_degree
      (if optimist then "yes-bias" else "no-bias")
  in
  let guess st _edges = { connected = optimist; component = View.id st.view } in
  let algo = make ~knowledge ~max_degree ~name ~on_incomplete:guess () in
  Algo.pack (Algo.truncate ~rounds (Algo.map_output (fun o -> o.connected) algo))

(* Known edges are over IDs 1..n (KT-0 convention). *)
let valid_edge ~n (u, v) = u >= 1 && u <= n && v >= 1 && v <= n && u <> v

(* [three_distinct ~n (-1) (-1) edges]: whether [edges] holds three
   distinct valid edges, the fewest that can close a cycle; [a] and [b]
   carry the int keys of the distinct ones seen so far. Most truncated
   reads hear fewer, and this scan allocates nothing. *)
let rec three_distinct ~n a b = function
  | [] -> false
  | ((u, v) as e) :: rest ->
    if not (valid_edge ~n e) then three_distinct ~n a b rest
    else
      let k = (min u v * (n + 1)) + max u v in
      if k = a || k = b then three_distinct ~n a b rest
      else if a < 0 then three_distinct ~n k b rest
      else if b < 0 then three_distinct ~n a k rest
      else true

(* Whether the known edges close a cycle while fewer than n are known:
   some cycle shorter than n exists, a NO-certificate for TwoCycle. *)
let closes_short_cycle ~n edges =
  (* Each edge can be reported by both endpoints, so deduplicate before
     cycle-testing. *)
  let seen = Hashtbl.create 16 in
  let distinct = ref [] in
  List.iter
    (fun ((u, v) as e) ->
      if valid_edge ~n e then begin
        let key = (min u v, max u v) in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          distinct := key :: !distinct
        end
      end)
    edges;
  let uf = Bcclb_graph.Conn.create (n + 1) in
  let short_cycle = ref false in
  let known = List.length !distinct in
  List.iter
    (fun (u, v) ->
      if (not (Bcclb_graph.Conn.union uf u v)) && known < n then short_cycle := true)
    !distinct;
  !short_cycle

(* A smarter truncation: use whatever part of the graph the transcript
   already determines. If the known edges close a cycle shorter than n,
   the input must be a two-cycle instance (answer NO with certainty);
   otherwise fall back to the optimist/pessimist guess. This gives the
   error-vs-rounds sweep of E3 a gradient between "knows nothing" and
   "knows everything". *)
let connectivity_partial ~knowledge ~max_degree ~rounds ~optimist =
  let name =
    Printf.sprintf "discovery-partial[%s,d<=%d,%s]"
      (match knowledge with Instance.KT0 -> "KT-0" | Instance.KT1 -> "KT-1")
      max_degree
      (if optimist then "yes-bias" else "no-bias")
  in
  let infer st edges =
    let n = View.n st.view in
    let edges = Lazy.force edges in
    if three_distinct ~n (-1) (-1) edges && closes_short_cycle ~n edges then
      { connected = false; component = View.id st.view }
    else { connected = optimist; component = View.id st.view }
  in
  let algo = make ~knowledge ~max_degree ~name ~on_incomplete:infer () in
  Algo.pack (Algo.truncate ~rounds (Algo.map_output (fun o -> o.connected) algo))
