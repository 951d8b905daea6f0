open Bcclb_util
open Bcclb_graph

type knowledge = KT0 | KT1

(* The port map, in the form its constructor chose: the paper's two
   wirings are formulas and are computed, and only a wiring that is data
   (random ports, a crossing's rewiring) is tabulated. *)
type wiring =
  | Circulant of int array
      (* §3.1: port p of v leads to v + p + 1 (mod n), the ring
         [i ↦ i mod n] of 2n − 1 entries read at v + 1 + p. Under it a
         view is a function of the input graph alone, which is what the
         census-level indistinguishability graph needs (see DESIGN.md). *)
  | Ranked of { order : int array; rank : int array; sorted_ids : int array }
      (* KT-1 (§1.2): the vertices in ID order, its inverse and the IDs
         in that order; port p of v reads [order] with v's rank skipped. *)
  | Tables of { peer : int array array; port_to : int array array }

type t = {
  n : int;
  ids : int array;
  wiring : wiring;
  input : int array array;  (* row v: v's input ports, ascending *)
}

let n t = t.n
let ids t = Array.copy t.ids

let peer t v p =
  if v < 0 || v >= t.n || p < 0 || p > t.n - 2 then invalid_arg "Instance.peer: no such port";
  match t.wiring with
  | Circulant ring -> ring.(v + 1 + p)
  | Ranked r -> r.order.(p + Bool.to_int (p >= r.rank.(v)))
  | Tables tb -> tb.peer.(v).(p)

let port_to t v u =
  if v < 0 || v >= t.n || u < 0 || u >= t.n || u = v then
    invalid_arg "Instance.port_to: no port between these vertices";
  match t.wiring with
  | Circulant _ -> (u - v - 1 + t.n) mod t.n
  | Ranked r ->
    let q = r.rank.(u) in
    if q < r.rank.(v) then q else q - 1
  | Tables tb -> tb.port_to.(v).(u)

let port_row t v =
  let ports = t.n - 1 in
  match t.wiring with
  | Circulant ring -> Port_row.window ring ~offset:(v + 1) ~skip:ports ~ports
  | Ranked r -> Port_row.window r.order ~offset:0 ~skip:r.rank.(v) ~ports
  | Tables tb -> Port_row.of_array tb.peer.(v)

let is_input_edge t v u = Arrayx.mem_sorted t.input.(v) (port_to t v u)

let strictly_ascending a =
  let rec from i = i >= Array.length a || (a.(i - 1) < a.(i) && from (i + 1)) in
  from 1

(* Distinct IDs: ascending ones (the default 1..n) in one pass, others
   through a sorted copy; KT-1's ID order is that copy already. *)
let check_ids t =
  let sorted =
    match t.wiring with
    | Ranked r -> r.sorted_ids
    | Circulant _ | Tables _ when strictly_ascending t.ids -> t.ids
    | Circulant _ | Tables _ -> Array.of_list (List.sort Int.compare (Array.to_list t.ids))
  in
  if not (strictly_ascending sorted) then invalid_arg "Instance.validate: duplicate ID"

(* A table wiring: each vertex sees every other vertex on exactly one
   port, and the port maps are mutually inverse and symmetric. *)
let check_tables ~n peer port_to =
  if Array.length peer <> n || Array.length port_to <> n then
    invalid_arg "Instance.validate: table size mismatch";
  for v = 0 to n - 1 do
    if Array.length peer.(v) <> n - 1 || Array.length port_to.(v) <> n then
      invalid_arg "Instance.validate: port table size mismatch";
    let seen = Array.make n false in
    Array.iter
      (fun u ->
        if u < 0 || u >= n || u = v || seen.(u) then invalid_arg "Instance.validate: wiring is not a clique";
        seen.(u) <- true)
      peer.(v);
    for p = 0 to n - 2 do
      let u = peer.(v).(p) in
      if port_to.(v).(u) <> p then invalid_arg "Instance.validate: port_to inconsistent with peer";
      if peer.(u).(port_to.(u).(v)) <> v then invalid_arg "Instance.validate: wiring not symmetric"
    done
  done

(* The input marking over a symmetric clique wiring, in O(n + m): every
   row strictly ascending in range, and every marked port's mirror
   marked. The mirror map (v, p) ↦ (u, port_to u v), u = peer v p, is an
   involution on the port slots of such a clique, so a marking closed
   under it also leaves every unmarked slot's mirror unmarked: each flag
   is equal at both ends of its edge. *)
let check_input t =
  let n = t.n and input = t.input in
  if Array.length input <> n then invalid_arg "Instance.validate: table size mismatch";
  for v = 0 to n - 1 do
    let row = input.(v) in
    for i = 0 to Array.length row - 1 do
      let p = row.(i) in
      if p < 0 || p > n - 2 || (i > 0 && p <= row.(i - 1)) then
        invalid_arg "Instance.validate: input port row not ascending in range";
      let u = peer t v p in
      if not (Arrayx.mem_sorted input.(u) (port_to t u v)) then
        invalid_arg "Instance.validate: input flags not symmetric"
    done
  done

(* The computed wirings are symmetric cliques by construction, and
   KT-1's ports follow ID order by construction; only tables are
   re-checked. *)
let validate t =
  let n = t.n in
  if n < 2 then invalid_arg "Instance.validate: need at least 2 vertices";
  if Array.length t.ids <> n then invalid_arg "Instance.validate: ids length mismatch";
  check_ids t;
  (match t.wiring with
  | Circulant _ | Ranked _ -> ()
  | Tables tb -> check_tables ~n tb.peer tb.port_to);
  check_input t;
  t

let make_port_to ~n peer =
  Array.init n (fun v ->
      let row = Array.make n (-1) in
      Array.iteri (fun p u -> row.(u) <- p) peer.(v);
      row)

(* Default IDs are 1..n. *)
let ids_of ~n = function Some a -> Array.copy a | None -> Array.init n succ

let ring n = Array.init ((2 * n) - 1) (fun i -> i mod n)

(* Sorts a degree-sized port row in place: an insertion sort allocates
   nothing, where [Array.sort] allocates ≈ 25 words of closures a call. *)
let sort_row row =
  if Array.length row > 8 then Array.sort Int.compare row
  else
    for i = 1 to Array.length row - 1 do
      let x = row.(i) and j = ref i in
      while !j > 0 && row.(!j - 1) > x do
        row.(!j) <- row.(!j - 1);
        decr j
      done;
      row.(!j) <- x
    done

(* The instance of [g] on [wiring]: row v lists the ports of v's graph
   neighbours, found through the wiring and sorted, in O(n + m log Δ);
   then validated. *)
let of_wiring ~ids wiring g =
  let t = { n = Graph.n g; ids; wiring; input = [||] } in
  let row v =
    let row = Array.map (fun u -> port_to t v u) (Graph.neighbors g v) in
    sort_row row;
    row
  in
  validate { t with input = Array.init t.n row }

let kt0_circulant ?ids g =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Instance.kt0_circulant: need at least 2 vertices";
  of_wiring ~ids:(ids_of ~n ids) (Circulant (ring n)) g

(* Census sweeps build one circulant instance per enumerated structure,
   from its cycles rather than a graph, on one ring and one ID array per
   stamp. Per instance the cycles are checked — each of length >= 3,
   together covering 0..n-1 exactly once — in O(n), and each vertex's
   row is the two ports that lead to its cycle neighbours. *)
let kt0_circulant_sweep n =
  if n < 2 then invalid_arg "Instance.kt0_circulant_sweep: need at least 2 vertices";
  let ids = ids_of ~n None and wiring = Circulant (ring n) in
  let cover () =
    invalid_arg "Instance.kt0_circulant_sweep: cycles do not cover 0..n-1 exactly once"
  in
  fun cycles ->
    let input = Array.make n [||] and covered = ref 0 in
    List.iter
      (fun cyc ->
        let k = Array.length cyc in
        if k < 3 then invalid_arg "Instance.kt0_circulant_sweep: a cycle is shorter than 3";
        for i = 0 to k - 1 do
          let v = cyc.(i) in
          if v < 0 || v >= n || Array.length input.(v) > 0 then cover ();
          let pa = (cyc.(if i = 0 then k - 1 else i - 1) - v - 1 + n) mod n
          and pb = (cyc.(if i = k - 1 then 0 else i + 1) - v - 1 + n) mod n in
          input.(v) <- (if pa < pb then [| pa; pb |] else [| pb; pa |])
        done;
        covered := !covered + k)
      cycles;
    if !covered <> n then cover ();
    { n; ids; wiring; input }

let kt0_random ?ids rng g =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Instance.kt0_random: need at least 2 vertices";
  let ids = ids_of ~n ids in
  (* The circulant wiring under a uniformly random port permutation at
     every vertex. *)
  let perms = Array.init n (fun _ -> Rng.permutation rng (n - 1)) in
  let peer = Arrayx.init_matrix n (n - 1) (fun v p -> (v + perms.(v).(p) + 1) mod n) in
  of_wiring ~ids (Tables { peer; port_to = make_port_to ~n peer }) g

(* One sort of the IDs orders the vertices; a duplicate ID is refused by
   [validate]. *)
let kt1_of_graph ?ids g =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Instance.kt1_of_graph: need at least 2 vertices";
  let ids = ids_of ~n ids in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> Int.compare ids.(a) ids.(b)) order;
  let rank = Array.make n 0 in
  Array.iteri (fun i v -> rank.(v) <- i) order;
  of_wiring ~ids (Ranked { order; rank; sorted_ids = Array.map (Array.get ids) order }) g

let input_graph t =
  let edges = ref [] in
  for v = 0 to t.n - 1 do
    Array.iter
      (fun p ->
        let u = peer t v p in
        if v < u then edges := (v, u) :: !edges)
      t.input.(v)
  done;
  Graph.of_edges ~n:t.n !edges

(* A KT-1 view shares the instance's sorted IDs; its ports read them
   with its own rank skipped. *)
let view ?(coins_seed = 0) t v =
  let kt1 =
    match t.wiring with
    | Circulant _ | Tables _ -> None
    | Ranked r ->
      Some
        { View.all_ids = r.sorted_ids;
          neighbor_ids = Port_row.window r.sorted_ids ~offset:0 ~skip:r.rank.(v) ~ports:(t.n - 1) }
  in
  { View.n = t.n;
    id = t.ids.(v);
    num_ports = t.n - 1;
    input_ports = t.input.(v);
    kt1;
    coins = Rng.create ~seed:coins_seed }

let same_row x y = x == y || (Array.length x = Array.length y && Array.for_all2 Int.equal x y)

(* Equal views but for the coins, field by field: the input ports are an
   ascending row, and in KT-1 the IDs behind the ports are all IDs but
   the vertex's own, in ID order, so with equal own IDs they agree iff
   the sorted IDs do. *)
let same_knowledge a v b u =
  a.n = b.n
  && a.ids.(v) = b.ids.(u)
  && same_row a.input.(v) b.input.(u)
  &&
  match (a.wiring, b.wiring) with
  | Ranked x, Ranked y -> same_row x.sorted_ids y.sorted_ids
  | Ranked _, _ | _, Ranked _ -> false
  | _ -> true

(* Edge independence, Definition 3.2: four distinct endpoints and neither
   "diagonal" (v1,u2), (v2,u1) is an input edge. *)
let independent t (v1, u1) (v2, u2) =
  let distinct = v1 <> u1 && v1 <> v2 && v1 <> u2 && u1 <> v2 && u1 <> u2 && v2 <> u2 in
  distinct
  && is_input_edge t v1 u1 && is_input_edge t v2 u2
  && (not (is_input_edge t v1 u2))
  && not (is_input_edge t v2 u1)

(* Port-preserving crossing, Definition 3.3, on a tabulated copy of the
   wiring: at each of the four endpoints the two relevant ports swap
   their far ends, while the input ports stay fixed — which is exactly
   why local views are preserved (Lemma 3.4). *)
let cross t (v1, u1) (v2, u2) =
  (match t.wiring with
  | Ranked _ -> invalid_arg "Instance.cross: crossings only exist in KT-0"
  | Circulant _ | Tables _ -> ());
  if not (independent t (v1, u1) (v2, u2)) then invalid_arg "Instance.cross: edges are not independent";
  let far = Arrayx.init_matrix t.n (t.n - 1) (peer t) in
  let back = make_port_to ~n:t.n far in
  let swap_ports v a b =
    (* Swap the far ends of ports a and b at vertex v. *)
    let x = far.(v).(a) and y = far.(v).(b) in
    far.(v).(a) <- y;
    far.(v).(b) <- x;
    back.(v).(x) <- b;
    back.(v).(y) <- a
  in
  swap_ports v1 (port_to t v1 u1) (port_to t v1 u2);
  swap_ports v2 (port_to t v2 u2) (port_to t v2 u1);
  swap_ports u1 (port_to t u1 v1) (port_to t u1 v2);
  swap_ports u2 (port_to t u2 v2) (port_to t u2 v1);
  { t with wiring = Tables { peer = far; port_to = back } }

(* Two computed wirings of one form are equal by construction (the
   circulant depends on n alone, KT-1's on the IDs); otherwise compare
   them tabulated. *)
let equal a b =
  let table t = Arrayx.init_matrix t.n (t.n - 1) (peer t) in
  a.n = b.n && a.ids = b.ids && a.input = b.input
  &&
  match (a.wiring, b.wiring) with
  | Circulant _, Circulant _ | Ranked _, Ranked _ -> true
  | Ranked _, _ | _, Ranked _ -> false
  | _ -> table a = table b
