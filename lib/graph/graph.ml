type t = { n : int; adj : int array array; m : int }

let normalize_edge (u, v) = if u <= v then (u, v) else (v, u)

let of_edges ~n edges =
  if n < 0 then invalid_arg "Graph.of_edges: negative vertex count";
  let seen = Hashtbl.create (List.length edges) in
  let lists = Array.make n [] in
  let m = ref 0 in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then invalid_arg "Graph.of_edges: endpoint out of range";
      if u = v then invalid_arg "Graph.of_edges: self-loop";
      let e = normalize_edge (u, v) in
      if not (Hashtbl.mem seen e) then begin
        Hashtbl.add seen e ();
        lists.(u) <- v :: lists.(u);
        lists.(v) <- u :: lists.(v);
        incr m
      end)
    edges;
  let adj =
    Array.map
      (fun l ->
        let a = Array.of_list l in
        Array.sort Int.compare a;
        a)
      lists
  in
  { n; adj; m = !m }

let n t = t.n
let num_edges t = t.m

let neighbors t v = t.adj.(v)

let degree t v = Array.length t.adj.(v)

let max_degree t =
  let d = ref 0 in
  for v = 0 to t.n - 1 do
    d := max !d (degree t v)
  done;
  !d

let mem_edge t u v =
  let a = t.adj.(u) in
  (* Binary search in the sorted adjacency row. *)
  let rec loop lo hi =
    if lo >= hi then false
    else begin
      let mid = (lo + hi) / 2 in
      if a.(mid) = v then true else if a.(mid) < v then loop (mid + 1) hi else loop lo mid
    end
  in
  loop 0 (Array.length a)

(* Edge iteration drives the hot connectivity loops (union-find per
   sketch round, MST candidate scans), so it walks the adjacency rows
   directly instead of materialising a list. *)
let iter_edges f t =
  for u = 0 to t.n - 1 do
    let a = t.adj.(u) in
    for i = 0 to Array.length a - 1 do
      if u < a.(i) then f u a.(i)
    done
  done

let edges_array t =
  let out = Array.make t.m (0, 0) in
  let pos = ref 0 in
  iter_edges
    (fun u v ->
      out.(!pos) <- (u, v);
      incr pos)
    t;
  out

let edges t =
  let acc = ref [] in
  for u = t.n - 1 downto 0 do
    let a = t.adj.(u) in
    for i = Array.length a - 1 downto 0 do
      if u < a.(i) then acc := (u, a.(i)) :: !acc
    done
  done;
  !acc

(* Component views run on the Conn seam, the lock-free Ufind. *)
let conn t =
  let c = Conn.create t.n in
  iter_edges (fun u v -> ignore (Conn.union c u v)) t;
  c

let components_of_edges ~n edges =
  let c = Conn.create n in
  Array.iter (fun (u, v) -> ignore (Conn.union c u v)) edges;
  Conn.labels c

let components t = Conn.labels (conn t)

let num_components t = Conn.components (conn t)

let is_connected t = t.n <= 1 || num_components t = 1

let is_regular t ~k =
  let rec loop v = v >= t.n || (degree t v = k && loop (v + 1)) in
  loop 0

let equal a b = a.n = b.n && a.adj = b.adj
