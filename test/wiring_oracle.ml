(* The reference wirings: the port maps as n × (n − 1) tables built
   straight from their definitions — the circulant tabulated, KT-1 by
   sorting the other vertices by ID for every vertex, random ports as a
   permuted circulant, and a crossing as swaps on copied tables. The
   computed wirings of [Instance] are checked against it, and so are the
   views and the knowledge compare read off them. *)
open Bcclb_bcc
module G = Bcclb_graph.Graph
module Rng = Bcclb_util.Rng

type t = {
  kt1 : bool;
  ids : int array;
  peer : int array array;
  port_to : int array array;
  input : int array array;
}

let make_port_to peer =
  Array.map
    (fun row ->
      let inv = Array.make (Array.length peer) (-1) in
      Array.iteri (fun p u -> inv.(u) <- p) row;
      inv)
    peer

let on_graph ~kt1 ~ids peer g =
  let port_to = make_port_to peer in
  let input =
    Array.init (G.n g) (fun v ->
        let row = Array.map (fun u -> port_to.(v).(u)) (G.neighbors g v) in
        Array.sort Int.compare row;
        row)
  in
  { kt1; ids; peer; port_to; input }

let ids_or g = function Some ids -> ids | None -> Array.init (G.n g) succ

let circulant_peer n = Array.init n (fun v -> Array.init (n - 1) (fun p -> (v + p + 1) mod n))

let circulant ?ids g = on_graph ~kt1:false ~ids:(ids_or g ids) (circulant_peer (G.n g)) g

(* Draws from [rng] exactly as [Instance.kt0_random] does. *)
let random ?ids rng g =
  let n = G.n g and ids = ids_or g ids in
  let base = circulant_peer n in
  let perms = Array.init n (fun _ -> Rng.permutation rng (n - 1)) in
  on_graph ~kt1:false ~ids (Array.init n (fun v -> Array.map (fun q -> base.(v).(q)) perms.(v))) g

let kt1 ?ids g =
  let n = G.n g and ids = ids_or g ids in
  let peer =
    Array.init n (fun v ->
        let others = Array.of_list (List.filter (fun u -> u <> v) (List.init n Fun.id)) in
        Array.sort (fun a b -> Int.compare ids.(a) ids.(b)) others;
        others)
  in
  on_graph ~kt1:true ~ids peer g

let cross t (v1, u1) (v2, u2) =
  let peer = Array.map Array.copy t.peer and port_to = Array.map Array.copy t.port_to in
  let swap v a b =
    let x = peer.(v).(a) and y = peer.(v).(b) in
    peer.(v).(a) <- y;
    peer.(v).(b) <- x;
    port_to.(v).(x) <- b;
    port_to.(v).(y) <- a
  in
  swap v1 t.port_to.(v1).(u1) t.port_to.(v1).(u2);
  swap v2 t.port_to.(v2).(u2) t.port_to.(v2).(u1);
  swap u1 t.port_to.(u1).(v1) t.port_to.(u1).(v2);
  swap u2 t.port_to.(u2).(v2) t.port_to.(u2).(v1);
  { t with peer; port_to }

(* The KT-1 knowledge of a view: all IDs sorted, and the ID behind each
   port. *)
let sorted_ids t =
  let a = Array.copy t.ids in
  Array.sort Int.compare a;
  a

let neighbor_ids t v = Array.map (fun u -> t.ids.(u)) t.peer.(v)

let same_knowledge a v b u =
  a.kt1 = b.kt1
  && Array.length a.ids = Array.length b.ids
  && a.ids.(v) = b.ids.(u)
  && a.input.(v) = b.input.(u)
  && ((not a.kt1) || neighbor_ids a v = neighbor_ids b u)

(* Every wiring reader of [inst] against the tables: [peer], [port_to],
   the port row inboxes and transcripts read, the input marking, and the
   view's KT-1 knowledge — the ID behind every port, all IDs, and each
   ID's index. *)
let agrees t inst =
  let n = Array.length t.ids in
  let ok = ref (Instance.n inst = n && Instance.ids inst = t.ids) in
  for v = 0 to n - 1 do
    let row = Instance.port_row inst v and view = Instance.view inst v in
    ok := !ok && Port_row.ports row = n - 1 && View.input_ports view = t.input.(v);
    for p = 0 to n - 2 do
      ok := !ok && Instance.peer inst v p = t.peer.(v).(p) && Port_row.get row p = t.peer.(v).(p)
    done;
    for u = 0 to n - 1 do
      if u <> v then ok := !ok && Instance.port_to inst v u = t.port_to.(v).(u)
    done;
    match View.kt1 view with
    | None -> ok := !ok && not t.kt1
    | Some _ ->
      let all = sorted_ids t in
      ok :=
        !ok && t.kt1
        && Array.init (n - 1) (View.neighbor_id view) = neighbor_ids t v
        && View.all_ids view = all
        && Array.for_all (fun i -> View.index_of_id view all.(i) = i) (Array.init n Fun.id)
  done;
  !ok
