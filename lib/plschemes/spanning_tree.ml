open Bcclb_bcc
open Bcclb_graph

(* The classic O(log n)-bit connectivity scheme: the prover labels every
   vertex with (own id, root id, parent id, distance) of a BFS tree
   rooted at the minimum-ID vertex. A vertex accepts iff
     - its own label's id field is its actual ID (authenticating the id
       fields of all labels, since every vertex checks its own);
     - all labels agree on the root id r;
     - exactly one label has distance 0, with id = parent = r;
     - locally: it is that root, or some INPUT port carries a label with
       id equal to its parent field and distance exactly one less.
   Complete on connected graphs. Sound: if all vertices accept, every
   non-root vertex has a genuine input-graph neighbour one step closer
   to the unique distance-0 vertex, so a descending path connects
   everyone — impossible on a disconnected graph. Works in KT-0 and
   KT-1 alike; labels are 4L = O(log n) bits, the verification
   complexity that PP17-style lower bounds show optimal. *)

let field_width ~n = Bcclb_util.Mathx.ceil_log2 (max 2 (n + 1))

let encode_field w v = String.init w (fun i -> if (v lsr (w - 1 - i)) land 1 = 1 then '1' else '0')

let decode_field s =
  String.fold_left (fun acc c -> (acc * 2) + (if c = '1' then 1 else 0)) 0 s

type fields = { id : int; root : int; parent : int; dist : int }

let encode ~n f =
  let w = field_width ~n in
  encode_field w f.id ^ encode_field w f.root ^ encode_field w f.parent ^ encode_field w f.dist

let decode ~n s =
  let w = field_width ~n in
  if String.length s <> 4 * w then None
  else if String.exists (fun c -> c <> '0' && c <> '1') s then None
  else
    Some
      { id = decode_field (String.sub s 0 w);
        root = decode_field (String.sub s w w);
        parent = decode_field (String.sub s (2 * w) w);
        dist = decode_field (String.sub s (3 * w) w) }

(* BFS tree from the minimum-ID vertex. *)
let prove inst =
  let g = Instance.input_graph inst in
  if not (Graph.is_connected g) then None
  else begin
    let n = Graph.n g in
    let ids = Instance.ids inst in
    let root = ref 0 in
    for v = 1 to n - 1 do
      if ids.(v) < ids.(!root) then root := v
    done;
    let dist = Array.make n (-1) in
    let parent = Array.make n (-1) in
    let queue = Queue.create () in
    dist.(!root) <- 0;
    parent.(!root) <- !root;
    Queue.add !root queue;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      Array.iter
        (fun u ->
          if dist.(u) = -1 then begin
            dist.(u) <- dist.(v) + 1;
            parent.(u) <- v;
            Queue.add u queue
          end)
        (Graph.neighbors g v)
    done;
    let root_id = ids.(!root) in
    Some
      (Array.init n (fun v ->
           encode ~n { id = ids.(v); root = root_id; parent = ids.(parent.(v)); dist = dist.(v) }))
  end

let verify view ~own ~by_port =
  let n = View.n view in
  match decode ~n own with
  | None -> false
  | Some me ->
    let others = Array.map (decode ~n) by_port in
    if me.id <> View.id view then false
    else if Array.exists Option.is_none others then false
    else begin
      let others = Array.map Option.get others in
      (* Global checks from the heard labels. *)
      let all = me :: Array.to_list others in
      let same_root = List.for_all (fun f -> f.root = me.root) all in
      let zeros = List.filter (fun f -> f.dist = 0) all in
      let unique_root =
        match zeros with [ f ] -> f.id = me.root && f.parent = me.root | _ -> false
      in
      (* Local parent check over genuine input edges. *)
      let local =
        if me.id = me.root then me.dist = 0 && me.parent = me.root
        else
          me.dist >= 1
          && Array.exists
               (fun p ->
                 let f = others.(p) in
                 f.id = me.parent && f.dist = me.dist - 1)
               (View.input_ports view)
      in
      same_root && unique_root && local
    end

let scheme =
  { Scheme.name = "spanning-tree";
    label_bits = (fun ~n -> 4 * field_width ~n);
    prove;
    verify }
