open Bcclb_bcc
open Bcclb_graph

(* The dense-graph baseline: in KT-1 BCC(b), vertex v broadcasts its
   adjacency row — bit p says whether port p carries an input edge — b
   bits per round ({!Chunked}; at the default b = 1, bit p goes out in
   round p+1 exactly as before). After ⌈(n−1)/b⌉ rounds everyone holds
   the full adjacency matrix (sender identity is known per port, and the
   sender's port ordering is the shared ID order), so any graph problem
   is solved locally — once per run, since the board is common. Θ(n/b)
   rounds regardless of density — the generic upper bound that the
   O(log n) sparse algorithms beat. *)

type state = { view : View.t; own_bits : string }

let make ~name ?(bandwidth = 1) ~answer () =
  Chunked.check_bandwidth name bandwidth;
  let rounds ~n = Chunked.rounds ~bits:(n - 1) ~bandwidth in
  let components = Type.Id.make () in
  let init view =
    match View.kt1 view with
    | None -> invalid_arg (name ^ ": needs a KT-1 instance")
    | Some _ ->
      let bit p = if View.is_input_port view p then '1' else '0' in
      { view; own_bits = String.init (View.num_ports view) bit }
  in
  let step st ~round ~inbox:_ = (st, Chunked.emit ~bits:st.own_bits ~bandwidth ~chunk:(round - 1)) in
  let reconstruct st ~inbox =
    let n = View.n st.view in
    (* Sender behind port p has some ID; its port q leads to the vertex
       with the (q+1)-th smallest ID among the others. Build the graph on
       the shared ID order. *)
    let index = View.index_of_id st.view in
    let edges = ref [] in
    (* Own row first. *)
    let own = index (View.id st.view) in
    for p = 0 to n - 2 do
      if View.is_input_port st.view p then begin
        let nbr = index (View.neighbor_id st.view p) in
        edges := (own, nbr) :: !edges
      end
    done;
    for p = 0 to n - 2 do
      let sender = index (View.neighbor_id st.view p) in
      let row = Chunked.payload inbox ~port:p in
      (* The sender's port q skips itself in the sorted ID order. *)
      for q = 0 to n - 2 do
        if row.[q] = '1' then begin
          let other = if q >= sender then q + 1 else q in
          edges := (sender, other) :: !edges
        end
      done
    done;
    Graph.of_edges ~n !edges
  in
  let decode st inbox =
    let g = reconstruct st ~inbox in
    let ids = View.all_ids st.view in
    (Graph.is_connected g, Array.map (fun c -> ids.(c)) (Graph.components g))
  in
  (* Once every row has been heard the matrix is common knowledge: one
     vertex builds it for the run. A truncated view decodes alone. *)
  let finish st ~inbox =
    let solved =
      if Inbox.rounds inbox >= rounds ~n:(View.n st.view) then
        Inbox.once inbox components (fun () -> decode st inbox)
      else decode st inbox
    in
    answer st solved
  in
  { Algo.name;
    anonymous = false;
    bandwidth = (fun ~n:_ -> bandwidth);
    rounds;
    init;
    step;
    finish;
    truncates = None }

let connectivity ?bandwidth () =
  Algo.pack
    (make ~name:"adjacency-matrix-connectivity" ?bandwidth
       ~answer:(fun _st (connected, _) -> connected)
       ())

let components ?bandwidth () =
  Algo.pack
    (make ~name:"adjacency-matrix-components" ?bandwidth
       ~answer:(fun st (_, labels) -> labels.(View.index_of_id st.view (View.id st.view)))
       ())
