open Bcclb_util
open Bcclb_graph

type knowledge = KT0 | KT1

type t = {
  knowledge : knowledge;
  n : int;
  ids : int array;
  peer : int array array;
  port_to : int array array;
  input : int array array;  (* row v: v's input ports, ascending *)
}

let n t = t.n
let ids t = Array.copy t.ids

let peer t v p = t.peer.(v).(p)

let peer_row t v = t.peer.(v)

let port_to t v u =
  let p = t.port_to.(v).(u) in
  if p < 0 then invalid_arg "Instance.port_to: no port between these vertices";
  p

let is_input_edge t v u = Arrayx.mem_sorted t.input.(v) (port_to t v u)

(* The input marking over a wiring already known to be a symmetric
   clique, in O(n + m): every row strictly ascending in range, and every
   marked port's mirror marked. The mirror map (v, p) ↦ (u, port_to u v),
   u = peer v p, is an involution on the port slots of such a clique, so
   a marking closed under it also leaves every unmarked slot's mirror
   unmarked: each flag is equal at both ends of its edge. *)
let validate_input ~n ~peer ~port_to (input : int array array) =
  if Array.length input <> n then invalid_arg "Instance.validate: table size mismatch";
  for v = 0 to n - 1 do
    let row = input.(v) in
    for i = 0 to Array.length row - 1 do
      let p = row.(i) in
      if p < 0 || p > n - 2 || (i > 0 && p <= row.(i - 1)) then
        invalid_arg "Instance.validate: input port row not ascending in range";
      let u = peer.(v).(p) in
      if not (Arrayx.mem_sorted input.(u) port_to.(u).(v)) then
        invalid_arg "Instance.validate: input flags not symmetric"
    done
  done

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
  if Array.length t.peer <> n || Array.length t.port_to <> n then
    invalid_arg "Instance.validate: table size mismatch";
  for v = 0 to n - 1 do
    if Array.length t.peer.(v) <> n - 1 then invalid_arg "Instance.validate: port table size mismatch";
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
      let q = t.port_to.(u).(v) in
      if t.peer.(u).(q) <> v then invalid_arg "Instance.validate: wiring not symmetric"
    done
  done;
  (* Symmetry of the input-edge marking across each shared network edge. *)
  validate_input ~n ~peer:t.peer ~port_to:t.port_to t.input;
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

(* Row v lists the ports of v's graph neighbours, found through v's
   port map and sorted: O(n + m log Δ). *)
let input_of_graph ~n ~port_to g =
  Array.init n (fun v ->
      let to_v = port_to.(v) in
      let row = Array.map (fun u -> to_v.(u)) (Graph.neighbors g v) in
      Array.sort Int.compare row;
      row)

(* Canonical circulant wiring: port p of v leads to v + p + 1 (mod n). The
   back port of (v, p) is n - 2 - p at the other end. Under this wiring a
   vertex's view is a function of the input graph alone, which is what the
   census-level indistinguishability graph needs (see DESIGN.md). *)
let circulant_peer n = Arrayx.init_matrix n (n - 1) (fun v p -> (v + p + 1) mod n)

let default_ids n = Array.init n (fun v -> v + 1)

(* The circulant wiring and default IDs depend only on n: built and
   validated once per n and shared by every instance built on them,
   process-wide under a mutex (the pattern of [Arena.get]). Nothing
   writes them in place: [cross] copies first, and [peer_row]'s readers
   must not mutate. *)
type circulant = { c_ids : int array; c_peer : int array array; c_port_to : int array array }

let circulant_registry : (int, circulant) Hashtbl.t = Hashtbl.create 8
let circulant_lock = Mutex.create ()

let circulant n =
  Mutex.lock circulant_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock circulant_lock)
    (fun () ->
      match Hashtbl.find_opt circulant_registry n with
      | Some c -> c
      | None ->
        let ids = default_ids n and peer = circulant_peer n in
        let port_to = make_port_to ~n peer in
        (* Every structural check, once, on the empty input graph. *)
        ignore (validate { knowledge = KT0; n; ids; peer; port_to; input = Array.make n [||] });
        let c = { c_ids = ids; c_peer = peer; c_port_to = port_to } in
        Hashtbl.replace circulant_registry n c;
        c)

let kt0_circulant ?ids g =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Instance.kt0_circulant: need at least 2 vertices";
  match ids with
  | Some a ->
    let peer = circulant_peer n in
    let port_to = make_port_to ~n peer in
    validate { knowledge = KT0; n; ids = Array.copy a; peer; port_to; input = input_of_graph ~n ~port_to g }
  | None ->
    let c = circulant n in
    let input = input_of_graph ~n ~port_to:c.c_port_to g in
    (* The shared tables are validated; only the input marking is new. *)
    validate_input ~n ~peer:c.c_peer ~port_to:c.c_port_to input;
    { knowledge = KT0; n; ids = c.c_ids; peer = c.c_peer; port_to = c.c_port_to; input }

(* Census sweeps build one circulant instance per enumerated structure,
   from per-vertex cycle-neighbour pairs rather than a graph. The tables
   are the validated shared ones; per instance only the neighbour table
   is checked — in range, two distinct others, and each pair mutual,
   which makes the input marking symmetric — in O(n), and each row is
   the two ports that lead to the pair. This is the difference between
   instance construction dominating an arena sweep and it being noise. *)
(* Does vertex u's neighbour pair name v? *)
let names (neighbors : (int * int) array) u v =
  let a, b = neighbors.(u) in
  a = v || b = v

let kt0_circulant_sweep n =
  if n < 2 then invalid_arg "Instance.kt0_circulant_sweep: need at least 2 vertices";
  let c = circulant n in
  let port_to = c.c_port_to in
  fun neighbors ->
    if Array.length neighbors <> n then
      invalid_arg "Instance.kt0_circulant_sweep: neighbour table size mismatch";
    for v = 0 to n - 1 do
      let a, b = neighbors.(v) in
      if a < 0 || a >= n || b < 0 || b >= n || a = v || b = v || a = b
         || not (names neighbors a v && names neighbors b v)
      then invalid_arg "Instance.kt0_circulant_sweep: neighbour table is not 2-regular"
    done;
    let input =
      Array.init n (fun v ->
          let a, b = neighbors.(v) in
          let pa = port_to.(v).(a) and pb = port_to.(v).(b) in
          if pa < pb then [| pa; pb |] else [| pb; pa |])
    in
    { knowledge = KT0; n; ids = c.c_ids; peer = c.c_peer; port_to; input }

let kt0_random ?ids rng g =
  let n = Graph.n g in
  if n < 2 then invalid_arg "Instance.kt0_random: need at least 2 vertices";
  let ids = match ids with Some a -> Array.copy a | None -> default_ids n in
  (* Start from the circulant wiring and apply a uniformly random port
     permutation at every vertex. *)
  let base = circulant_peer n in
  let perms = Array.init n (fun _ -> Rng.permutation rng (n - 1)) in
  let peer = Arrayx.init_matrix n (n - 1) (fun v p -> base.(v).(perms.(v).(p))) in
  let port_to = make_port_to ~n peer in
  validate { knowledge = KT0; n; ids; peer; port_to; input = input_of_graph ~n ~port_to g }

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
  let port_to = make_port_to ~n peer in
  validate { knowledge = KT1; n; ids; peer; port_to; input = input_of_graph ~n ~port_to g }

let input_graph t =
  let edges = ref [] in
  for v = 0 to t.n - 1 do
    Array.iter
      (fun p ->
        let u = t.peer.(v).(p) in
        if v < u then edges := (v, u) :: !edges)
      t.input.(v)
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
    input_ports = t.input.(v);
    kt1;
    coins = Rng.create ~seed:coins_seed }

(* Equal views but for the coins, field by field: the input ports are an
   ascending row, and in KT-1 the IDs behind the ports together with the
   own ID are all n IDs, so the sorted ID list needs no compare of its
   own. *)
let same_knowledge a v b u =
  let same_row x y = Array.length x = Array.length y && Array.for_all2 Int.equal x y in
  a.knowledge = b.knowledge && a.n = b.n
  && a.ids.(v) = b.ids.(u)
  && same_row a.input.(v) b.input.(u)
  && (a.knowledge = KT0 || Array.for_all2 (fun p q -> a.ids.(p) = b.ids.(q)) a.peer.(v) b.peer.(u))

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
   swap their far ends, while the input ports stay fixed — which is
   exactly why local views are preserved (Lemma 3.4). *)
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

let equal a b =
  a.knowledge = b.knowledge && a.n = b.n && a.ids = b.ids && a.peer = b.peer && a.input = b.input
