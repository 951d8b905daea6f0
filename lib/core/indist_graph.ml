open Bcclb_graph

(* The bipartite indistinguishability graph G^t_{x,y} of Definition 3.6,
   materialised for small n: left vertices are all one-cycle instances,
   right vertices all two-cycle instances, and {I1, I2} is an edge iff
   I2 = I1(e1, e2) for active independent directed edges e1, e2 of I1
   (active = head broadcasts x, tail broadcasts y during the t rounds of
   the algorithm).

   Three construction paths exist. The orbit path (default wherever
   sound) computes adjacency rows only on V₁'s rotation-class
   representatives and reconstructs every other row through the arena's
   V₂ handle permutations — a factor-≈n execution and crossing saving,
   licensed exactly when transcripts are rotation-equivariant: anonymous
   algorithms ({!Bcclb_bcc.Algo.anonymous}) and any algorithm at t = 0.
   The packed path works over the interned Arena instance by instance:
   labels are machine-word codes, and each crossing successor is a hash
   lookup of a packed canonical key — no Cycles.t allocation, no string
   comparison in the inner loops. The reference path
   ([build_reference]/[build_full_reference]) is the original
   string-label implementation, kept verbatim as the parity oracle. All
   three produce byte-identical graphs where their domains overlap. *)

type t = {
  n : int;
  x : string;
  y : string;
  v1 : Cycles.t array;
  v2 : Cycles.t array;
  adj : int array array;  (* v1 index -> sorted distinct v2 indices *)
  radj : int array array;  (* v2 index -> sorted distinct v1 indices *)
}

let active_positions sent cyc ~x ~y =
  let k = Array.length cyc in
  List.filter (fun i -> sent.(cyc.(i)) = x && sent.(cyc.((i + 1) mod k)) = y) (Bcclb_util.Arrayx.range 0 k)

(* Rows arrive as unsorted int arrays that may repeat a handle (two
   crossings can reach one structure); each is deduplicated in place. The
   reverse adjacency is a counting transpose: scanning left vertices in
   ascending order leaves every radj row sorted and distinct. *)
let finish ~n ~x ~y ~v1 ~v2 rows =
  let adj =
    Array.map
      (fun row ->
        let d = Bcclb_util.Arrayx.sort_uniq_prefix row (Array.length row) in
        if d = Array.length row then row else Array.sub row 0 d)
      rows
  in
  let fill = Array.make (Array.length v2) 0 in
  Array.iter (Array.iter (fun i2 -> fill.(i2) <- fill.(i2) + 1)) adj;
  let radj = Array.map (fun d -> Array.make d 0) fill in
  Array.fill fill 0 (Array.length fill) 0;
  Array.iteri
    (fun i1 row ->
      Array.iter
        (fun i2 ->
          radj.(i2).(fill.(i2)) <- i1;
          fill.(i2) <- fill.(i2) + 1)
        row)
    adj;
  { n; x; y; v1; v2; adj; radj }

(* The crossing successors of a one-cycle over its crossable pairs
   (i < j, both arcs >= 3) that [pair] accepts, as a sorted distinct
   handle row. An n-cycle has n(n-5)/2 crossable pairs. *)
let crossing_row arena cyc pair =
  let k = Array.length cyc in
  let buf = Array.make (k * (k - 5) / 2) 0 and m = ref 0 in
  for i = 0 to k - 1 do
    for j = i + 3 to k - 1 do
      if k - (j - i) >= 3 && pair i j then begin
        buf.(!m) <- Arena.cross_handle arena cyc i j;
        incr m
      end
    done
  done;
  Array.sub buf 0 (Bcclb_util.Arrayx.sort_uniq_prefix buf !m)

(* Both directed edges (c_i, c_i+1) and (c_j, c_j+1) carry the label
   (x, y): the active pairs of Definition 3.6. *)
let active_row arena cyc (sent : int array) ~x ~y =
  let k = Array.length cyc in
  let active i = sent.(cyc.(i)) = x && sent.(cyc.((i + 1) mod k)) = y in
  crossing_row arena cyc (fun i j -> active i && active j)

(* The two directed edges carry the same label, whatever it is: the
   same-label condition of Lemma 3.4, i.e. the full graph. *)
let same_label_row arena cyc (sent : int array) =
  let k = Array.length cyc in
  crossing_row arena cyc (fun i j ->
      sent.(cyc.(i)) = sent.(cyc.(j)) && sent.(cyc.((i + 1) mod k)) = sent.(cyc.((j + 1) mod k)))

(* Most frequent (head, tail) code label across all one-cycle edges.
   Ties break on the DECODED string pair — int code order differs from
   lexicographic string order ('_' sorts after '1' in ASCII but codes as
   0), and the reference implementation fixed string order. *)
let most_frequent_code ~rounds ?(weight = fun _ -> 1) codes1 one_cyc =
  let tbl = Hashtbl.create 256 in
  Array.iteri
    (fun i1 sent ->
      let cyc = one_cyc i1 in
      let k = Array.length cyc in
      let w = weight i1 in
      for i = 0 to k - 1 do
        let lbl = (sent.(cyc.(i)), sent.(cyc.((i + 1) mod k))) in
        Hashtbl.replace tbl lbl (w + Option.value ~default:0 (Hashtbl.find_opt tbl lbl))
      done)
    codes1;
  let decode (cx, cy) = (Labels.string_of_code ~rounds cx, Labels.string_of_code ~rounds cy) in
  let best = ref None in
  Hashtbl.iter
    (fun lbl count ->
      match !best with
      | None -> best := Some (lbl, count)
      | Some (lbl', count') ->
        if count > count' || (count = count' && decode lbl < decode lbl') then best := Some (lbl, count))
    tbl;
  match !best with
  | None -> invalid_arg "Indist_graph: no edge labels"
  | Some (lbl, _) -> lbl

let build_packed ?(seed = 0) algo ~n ?xy () =
  let arena = Arena.get ~n in
  let rounds = Bcclb_bcc.Algo.rounds algo ~n in
  let codes1 = Arena.codes arena ~seed algo in
  let x, y =
    match xy with
    | Some (xs, ys) -> (Labels.code_of_string xs, Labels.code_of_string ys)
    | None -> most_frequent_code ~rounds codes1 (Arena.one_cycle arena)
  in
  (* Each left vertex's edge row is independent (the arena's key table is
     read-only here), so rows run on the pool; the reverse adjacency is
     aggregated sequentially afterwards. *)
  let adj_sets =
    Bcclb_engine.Pool.tabulate (Arena.n_one arena) (fun i1 ->
        active_row arena (Arena.one_cycle arena i1) codes1.(i1) ~x ~y)
  in
  finish ~n
    ~x:(Labels.string_of_code ~rounds x)
    ~y:(Labels.string_of_code ~rounds y)
    ~v1:(Arena.one_structures arena) ~v2:(Arena.two_structures arena) adj_sets

let build_full_packed ?(seed = 0) algo ~n () =
  let arena = Arena.get ~n in
  let codes1 = Arena.codes arena ~seed algo in
  let adj_sets =
    Bcclb_engine.Pool.tabulate (Arena.n_one arena) (fun i1 ->
        same_label_row arena (Arena.one_cycle arena i1) codes1.(i1))
  in
  finish ~n ~x:"*" ~y:"*" ~v1:(Arena.one_structures arena) ~v2:(Arena.two_structures arena) adj_sets

(* ------------------------------------------------------------------ *)
(* Orbit-reduced path. Rotations are automorphisms of the circulant
   wiring, so when transcripts are rotation-equivariant the active pairs
   of an orbit member are the rotation image of its representative's and
   crossing commutes with rotation: the member's adjacency row is the
   representative's row pushed through the V₂ handle permutation of its
   shift. Rows are therefore computed once per representative — one
   execution and one crossing sweep per rotation class — and every other
   row reconstructed by table lookup. [finish] dedup-sorts all rows, so
   the result is byte-identical to the per-instance packed path. *)

let orbit_applicable algo ~n =
  Bcclb_bcc.Algo.anonymous algo || Bcclb_bcc.Algo.rounds algo ~n = 0

(* Per-handle rows from [rep_row h], the representative's row that
   handle h is the rotation image of, through the rotation maps. *)
let expand_orbit arena (o : Arena.orbit_one) rep_row =
  let rot =
    Array.init (Arena.n arena) (fun c -> if c = 0 then [||] else Arena.rotation_map_two arena c)
  in
  Array.init (Arena.n_one arena) (fun h ->
      let row = rep_row h in
      let c = o.Arena.shift_of.(h) in
      if c = 0 then row else Array.map (fun h2 -> rot.(c).(h2)) row)

let build_orbit ?(seed = 0) algo ~n ?xy () =
  let arena = Arena.get ~n in
  let o = Arena.orbit_one arena in
  let rounds = Bcclb_bcc.Algo.rounds algo ~n in
  let codes_r = Arena.codes_reps arena ~seed algo in
  let x, y =
    match xy with
    | Some (xs, ys) -> (Labels.code_of_string xs, Labels.code_of_string ys)
    | None ->
      (* Weighted counts equal the full-census counts: an orbit member's
         edge-label multiset is its representative's, and ties still
         break on decoded strings. *)
      most_frequent_code ~rounds
        ~weight:(fun ri -> o.Arena.weights.(ri))
        codes_r
        (fun ri -> Arena.one_cycle arena o.Arena.reps.(ri))
  in
  (* Crossing is orientation-free but the (x, y) label condition is not:
     a member whose canonical traversal reverses the representative's has
     the representative's (y, x)-active pairs. Compute both orientations
     per representative (they coincide when x = y) and pick by the
     atlas's flip bit during expansion. *)
  let rep_rows =
    Bcclb_engine.Pool.tabulate (Array.length o.Arena.reps) (fun ri ->
        let cyc = Arena.one_cycle arena o.Arena.reps.(ri) in
        let sent = codes_r.(ri) in
        let fwd = active_row arena cyc sent ~x ~y in
        let rev = if x = y then fwd else active_row arena cyc sent ~x:y ~y:x in
        (fwd, rev))
  in
  finish ~n
    ~x:(Labels.string_of_code ~rounds x)
    ~y:(Labels.string_of_code ~rounds y)
    ~v1:(Arena.one_structures arena) ~v2:(Arena.two_structures arena)
    (expand_orbit arena o (fun h ->
         let fwd, rev = rep_rows.(o.Arena.rep_of.(h)) in
         if o.Arena.flip_of.(h) then rev else fwd))

let build_full_orbit ?(seed = 0) algo ~n () =
  let arena = Arena.get ~n in
  let o = Arena.orbit_one arena in
  let codes_r = Arena.codes_reps arena ~seed algo in
  let rep_rows =
    Bcclb_engine.Pool.tabulate (Array.length o.Arena.reps) (fun ri ->
        same_label_row arena (Arena.one_cycle arena o.Arena.reps.(ri)) codes_r.(ri))
  in
  finish ~n ~x:"*" ~y:"*" ~v1:(Arena.one_structures arena) ~v2:(Arena.two_structures arena)
    (expand_orbit arena o (fun h -> rep_rows.(o.Arena.rep_of.(h))))

(* ------------------------------------------------------------------ *)
(* Reference (legacy) path: string labels, Cycles.t-keyed successor
   lookup. Kept verbatim as the oracle the packed path is tested
   against; also the fallback for algorithms whose broadcast sequences
   do not pack into a word. *)

let build_reference ?(seed = 0) algo ~n ?xy () =
  let v1 = Census.one_cycles ~n in
  let v2 = Census.two_cycles ~n in
  let v2_index = Hashtbl.create (Array.length v2) in
  Array.iteri (fun i s -> Hashtbl.add v2_index s i) v2;
  (* One independent simulation per one-cycle instance: the hot inner
     loop, run on the engine pool. *)
  let sent1 = Bcclb_engine.Pool.map_batch (fun s -> Labels.sent_strings_legacy ~seed algo ~n s) v1 in
  let x, y =
    match xy with
    | Some p -> p
    | None ->
      (* Most frequent label across all one-cycle instances. *)
      let tbl = Hashtbl.create 256 in
      Array.iteri
        (fun idx s ->
          List.iter
            (fun (_, lbl) ->
              Hashtbl.replace tbl lbl (1 + Option.value ~default:0 (Hashtbl.find_opt tbl lbl)))
            (Labels.edge_labels sent1.(idx) s))
        v1;
      Labels.most_frequent_label tbl
  in
  let adj_sets =
    Bcclb_engine.Pool.tabulate (Array.length v1) (fun i1 ->
        let s = v1.(i1) in
        let cyc = List.hd (Cycles.cycles s) in
        let k = Array.length cyc in
        let actives = active_positions sent1.(i1) cyc ~x ~y in
        let row = ref [] in
        List.iter
          (fun i ->
            List.iter
              (fun j ->
                if i < j then begin
                  let len1 = j - i and len2 = k - (j - i) in
                  if len1 >= 3 && len2 >= 3 then begin
                    let s2 = Census.cross_one_cycle cyc i j in
                    row := Hashtbl.find v2_index s2 :: !row
                  end
                end)
              actives)
          actives;
        Array.of_list !row)
  in
  finish ~n ~x ~y ~v1 ~v2 adj_sets

let build_full_reference ?(seed = 0) algo ~n () =
  let v1 = Census.one_cycles ~n in
  let v2 = Census.two_cycles ~n in
  let v2_index = Hashtbl.create (Array.length v2) in
  Array.iteri (fun i s -> Hashtbl.add v2_index s i) v2;
  let adj_sets =
    Bcclb_engine.Pool.map_batch
      (fun s ->
        let sent = Labels.sent_strings_legacy ~seed algo ~n s in
        let cyc = List.hd (Cycles.cycles s) in
        let k = Array.length cyc in
        let row = ref [] in
        for i = 0 to k - 1 do
          for j = i + 1 to k - 1 do
            let len1 = j - i and len2 = k - (j - i) in
            if len1 >= 3 && len2 >= 3 then begin
              let vi = cyc.(i) and ui = cyc.((i + 1) mod k) in
              let vj = cyc.(j) and uj = cyc.((j + 1) mod k) in
              if sent.(vi) = sent.(vj) && sent.(ui) = sent.(uj) then begin
                let s2 = Census.cross_one_cycle cyc i j in
                row := Hashtbl.find v2_index s2 :: !row
              end
            end
          done
        done;
        Array.of_list !row)
      v1
  in
  finish ~n ~x:"*" ~y:"*" ~v1 ~v2 adj_sets

let build ?(seed = 0) algo ~n ?xy () =
  Bcclb_obs.span "indist.build" ~attrs:[ ("n", string_of_int n) ] (fun () ->
      if n <= Arena.max_n && Arena.codable algo ~n then
        if orbit_applicable algo ~n then build_orbit ~seed algo ~n ?xy ()
        else build_packed ~seed algo ~n ?xy ()
      else build_reference ~seed algo ~n ?xy ())

let build_full ?(seed = 0) algo ~n () =
  Bcclb_obs.span "indist.build_full" ~attrs:[ ("n", string_of_int n) ] (fun () ->
      if n <= Arena.max_n && Arena.codable algo ~n then
        if orbit_applicable algo ~n then build_full_orbit ~seed algo ~n ()
        else build_full_packed ~seed algo ~n ()
      else build_full_reference ~seed algo ~n ())

(* ------------------------------------------------------------------ *)

let num_edges t = Array.fold_left (fun acc row -> acc + Array.length row) 0 t.adj

let degree_v1 t i = Array.length t.adj.(i)
let degree_v2 t i = Array.length t.radj.(i)

let neighborhood t indices =
  let seen = Bytes.make (Array.length t.v2) '\000' and count = ref 0 in
  List.iter
    (fun i ->
      Array.iter
        (fun j ->
          if Bytes.get seen j = '\000' then begin
            Bytes.set seen j '\001';
            incr count
          end)
        t.adj.(i))
    indices;
  !count

(* Check the Polygamous Hall condition |N(S)| >= k|S| on sampled subsets
   of the positive-degree left vertices; exhaustive subsets are
   exponential, so we sample [samples] random subsets. A violating
   witness S is returned if found. *)
let hall_condition_sampled ?(samples = 200) rng t ~k =
  let live = List.filter (fun i -> degree_v1 t i > 0) (Bcclb_util.Arrayx.range 0 (Array.length t.v1)) in
  let live = Array.of_list live in
  let m = Array.length live in
  if m = 0 then Ok ()
  else begin
    (* The full live set is the extremal witness whenever k|L| > |R|;
       check it first, then random subsets of varied sizes. *)
    let full = Array.to_list live in
    let violation = ref (if neighborhood t full < k * m then Some full else None) in
    for _ = 1 to samples do
      if !violation = None then begin
        let size = 1 + Bcclb_util.Rng.int rng m in
        let perm = Bcclb_util.Rng.permutation rng m in
        let s = List.init size (fun i -> live.(perm.(i))) in
        if neighborhood t s < k * size then violation := Some s
      end
    done;
    match !violation with None -> Ok () | Some s -> Error s
  end

(* Construct an explicit k-matching of size |V1| (Theorem 2.1's
   conclusion) with Hopcroft-Karp on the k-fold blow-up; only left
   vertices of positive degree participate (isolated one-cycle instances
   have no active pair at all and are excluded, as in Lemma 3.8). *)
let k_matching t ~k =
  let live = List.filter (fun i -> degree_v1 t i > 0) (Bcclb_util.Arrayx.range 0 (Array.length t.v1)) in
  let live = Array.of_list live in
  let adj = Array.map (fun i -> t.adj.(i)) live in
  match Hopcroft_karp.k_matching ~k ~nl:(Array.length live) ~nr:(Array.length t.v2) ~adj with
  | None -> None
  | Some groups -> Some (live, groups)

(* Certified error lower bound under mu for THIS algorithm: a maximum
   matching M in the full indistinguishability graph forces, for every
   matched pair, an error of mass at least min(mu(I1), mu(I2)) =
   1 / (2 max(|V1|, |V2|)). *)
let certified_error_lb t =
  let nl = Array.length t.v1 and nr = Array.length t.v2 in
  let m = Hopcroft_karp.max_matching ~nl ~nr ~adj:t.adj in
  let denom = 2 * max nl nr in
  (m.Hopcroft_karp.size, Bcclb_bignum.Ratio.of_ints m.Hopcroft_karp.size denom)

(* Lemma 3.7's quantitative content at t = 0 for one instance: the
   multiset of neighbour degrees of I1, grouped by the smaller cycle
   length i of the neighbour. *)
let neighbor_degree_histogram t i1 =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun i2 ->
      let smaller = List.fold_left min t.n (Cycles.lengths t.v2.(i2)) in
      let d = degree_v2 t i2 in
      let key = (smaller, d) in
      Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
    t.adj.(i1);
  List.sort compare (Hashtbl.fold (fun k c acc -> (k, c) :: acc) tbl [])
