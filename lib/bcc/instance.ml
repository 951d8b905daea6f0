open Bcclb_util
open Bcclb_graph

type knowledge = KT0 | KT1

type t = {
  knowledge : knowledge;
  n : int;
  ids : int array;
  peer : int array array;
  port_to : int array array;
  input : bool array array;
}

let knowledge t = t.knowledge
let n t = t.n
let ids t = Array.copy t.ids
let id_of t v = t.ids.(v)

let peer t v p = t.peer.(v).(p)

let peer_row t v = t.peer.(v)

let port_to t v u =
  let p = t.port_to.(v).(u) in
  if p < 0 then invalid_arg "Instance.port_to: no port between these vertices";
  p

let is_input_port t v p = t.input.(v).(p)

let is_input_edge t v u = t.input.(v).(port_to t v u)

let validate t =
  let n = t.n in
  if n < 2 then invalid_arg "Instance.validate: need at least 2 vertices";
  if Array.length t.ids <> n then invalid_arg "Instance.validate: ids length mismatch";
  let seen_ids = Hashtbl.create n in
  Array.iter
    (fun id ->
      if Hashtbl.mem seen_ids id then invalid_arg "Instance.validate: duplicate ID";
      Hashtbl.add seen_ids id ())
    t.ids;
  if Array.length t.peer <> n || Array.length t.input <> n || Array.length t.port_to <> n then
    invalid_arg "Instance.validate: table size mismatch";
  for v = 0 to n - 1 do
    if Array.length t.peer.(v) <> n - 1 || Array.length t.input.(v) <> n - 1 then
      invalid_arg "Instance.validate: port table size mismatch";
    (* Each vertex sees every other vertex on exactly one port. *)
    let seen = Array.make n false in
    Array.iter
      (fun u ->
        if u < 0 || u >= n || u = v || seen.(u) then invalid_arg "Instance.validate: wiring is not a clique";
        seen.(u) <- true)
      t.peer.(v);
    for p = 0 to n - 2 do
      let u = t.peer.(v).(p) in
      if t.port_to.(v).(u) <> p then invalid_arg "Instance.validate: port_to inconsistent with peer";
      (* Symmetry of the input-edge marking across the shared network edge. *)
      let q = t.port_to.(u).(v) in
      if t.peer.(u).(q) <> v then invalid_arg "Instance.validate: wiring not symmetric";
      if t.input.(v).(p) <> t.input.(u).(q) then invalid_arg "Instance.validate: input flags not symmetric"
    done
  done;
  (match t.knowledge with
  | KT0 -> ()
  | KT1 ->
    (* KT-1 ports are labelled by IDs: port p of v must lead to the vertex
       with the p-th smallest ID among the others. *)
    for v = 0 to n - 1 do
      let others = Array.of_list (List.filter (fun u -> u <> v) (Arrayx.range 0 n)) in
      Array.sort (fun a b -> Int.compare t.ids.(a) t.ids.(b)) others;
      Array.iteri
        (fun p u ->
          if t.peer.(v).(p) <> u then invalid_arg "Instance.validate: KT-1 ports must follow ID order")
        others
    done);
  t

let make_port_to ~n peer =
  Array.init n (fun v ->
      let row = Array.make n (-1) in
      Array.iteri (fun p u -> row.(u) <- p) peer.(v);
      row)

let input_of_graph ~n peer g =
  Array.init n (fun v -> Array.map (fun u -> Graph.mem_edge g v u) peer.(v))

(* Canonical circulant wiring: port p of v leads to v + p + 1 (mod n). The
   back port of (v, p) is n - 2 - p at the other end. Under this wiring a
   vertex's view is a function of the input graph alone, which is what the
   census-level indistinguishability graph needs (see DESIGN.md). *)
let circulant_peer n = Arrayx.init_matrix n (n - 1) (fun v p -> (v + p + 1) mod n)

let default_ids n = Array.init n (fun v -> v + 1)

let kt0_circulant ?ids g =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Instance.kt0_circulant: need at least 2 vertices";
  let ids = match ids with Some a -> Array.copy a | None -> default_ids n in
  let peer = circulant_peer n in
  validate
    { knowledge = KT0; n; ids; peer; port_to = make_port_to ~n peer; input = input_of_graph ~n peer g }

(* Census sweeps build one circulant instance per enumerated structure;
   the clique tables and IDs depend only on n, so build them once and
   stamp out instances from per-vertex cycle-neighbour pairs. The shared
   tables are immutable and correct by construction, so the O(n^2)
   per-instance validation of [kt0_circulant] is skipped — this is the
   difference between instance construction dominating an arena sweep
   and it being noise. *)
let kt0_circulant_sweep n =
  if n < 2 then invalid_arg "Instance.kt0_circulant_sweep: need at least 2 vertices";
  let ids = default_ids n in
  let peer = circulant_peer n in
  let port_to = make_port_to ~n peer in
  fun neighbors ->
    if Array.length neighbors <> n then
      invalid_arg "Instance.kt0_circulant_sweep: neighbour table size mismatch";
    let input =
      Array.init n (fun v ->
          let a, b = neighbors.(v) in
          Array.map (fun u -> u = a || u = b) peer.(v))
    in
    { knowledge = KT0; n; ids; peer; port_to; input }

let kt0_random ?ids rng g =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Instance.kt0_random: need at least 2 vertices";
  let ids = match ids with Some a -> Array.copy a | None -> default_ids n in
  (* Start from the circulant wiring and apply a uniformly random port
     permutation at every vertex. *)
  let base = circulant_peer n in
  let perms = Array.init n (fun _ -> Rng.permutation rng (n - 1)) in
  let peer = Arrayx.init_matrix n (n - 1) (fun v p -> base.(v).(perms.(v).(p))) in
  validate
    { knowledge = KT0; n; ids; peer; port_to = make_port_to ~n peer; input = input_of_graph ~n peer g }

let kt1_of_graph ?ids g =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Instance.kt1_of_graph: need at least 2 vertices";
  let ids = match ids with Some a -> Array.copy a | None -> default_ids n in
  let peer =
    Array.init n (fun v ->
        let others = Array.of_list (List.filter (fun u -> u <> v) (Arrayx.range 0 n)) in
        Array.sort (fun a b -> Int.compare ids.(a) ids.(b)) others;
        others)
  in
  validate
    { knowledge = KT1; n; ids; peer; port_to = make_port_to ~n peer; input = input_of_graph ~n peer g }

let input_graph t =
  let edges = ref [] in
  for v = 0 to t.n - 1 do
    for p = 0 to t.n - 2 do
      let u = t.peer.(v).(p) in
      if t.input.(v).(p) && v < u then edges := (v, u) :: !edges
    done
  done;
  Graph.of_edges ~n:t.n !edges

let view ?(coins_seed = 0) t v =
  let kt1 =
    match t.knowledge with
    | KT0 -> None
    | KT1 ->
      let all = Array.copy t.ids in
      Array.sort Int.compare all;
      Some { View.all_ids = all; neighbor_ids = Array.map (fun u -> t.ids.(u)) t.peer.(v) }
  in
  { View.n = t.n;
    id = t.ids.(v);
    num_ports = t.n - 1;
    input_ports = Array.copy t.input.(v);
    kt1;
    coins = Rng.create ~seed:coins_seed }

(* Edge independence, Definition 3.2: four distinct endpoints and neither
   "diagonal" (v1,u2), (v2,u1) is an input edge. *)
let independent t (v1, u1) (v2, u2) =
  let distinct = v1 <> u1 && v1 <> v2 && v1 <> u2 && u1 <> v2 && u1 <> u2 && v2 <> u2 in
  distinct
  && is_input_edge t v1 u1 && is_input_edge t v2 u2
  && (not (is_input_edge t v1 u2))
  && not (is_input_edge t v2 u1)

(* Port-preserving crossing, Definition 3.3. Only the [peer]/[port_to]
   tables change: at each of the four endpoints the two relevant ports
   swap their far ends, while the per-port input flags stay fixed — which
   is exactly why local views are preserved (Lemma 3.4). *)
let cross t (v1, u1) (v2, u2) =
  if t.knowledge <> KT0 then invalid_arg "Instance.cross: crossings only exist in KT-0";
  if not (independent t (v1, u1) (v2, u2)) then invalid_arg "Instance.cross: edges are not independent";
  let r = { t with peer = Arrayx.matrix_copy t.peer; port_to = Arrayx.matrix_copy t.port_to } in
  let swap_ports v a b =
    (* Swap the far ends of ports a and b at vertex v. *)
    let x = r.peer.(v).(a) and y = r.peer.(v).(b) in
    r.peer.(v).(a) <- y;
    r.peer.(v).(b) <- x;
    r.port_to.(v).(x) <- b;
    r.port_to.(v).(y) <- a
  in
  swap_ports v1 (port_to t v1 u1) (port_to t v1 u2);
  swap_ports v2 (port_to t v2 u2) (port_to t v2 u1);
  swap_ports u1 (port_to t u1 v1) (port_to t u1 v2);
  swap_ports u2 (port_to t u2 v2) (port_to t u2 v1);
  r

let copy t =
  { t with
    ids = Array.copy t.ids;
    peer = Arrayx.matrix_copy t.peer;
    port_to = Arrayx.matrix_copy t.port_to;
    input = Arrayx.matrix_copy t.input }

let equal a b =
  a.knowledge = b.knowledge && a.n = b.n && a.ids = b.ids && a.peer = b.peer && a.input = b.input

let pp fmt t =
  Format.fprintf fmt "@[<v>%s instance, n=%d@,input graph: %a@]"
    (match t.knowledge with KT0 -> "KT-0" | KT1 -> "KT-1")
    t.n Graph.pp (input_graph t)
