open Bcclb_graph

(* The bipartite indistinguishability graph G^t_{x,y} of Definition 3.6,
   materialised for small n: left vertices are all one-cycle instances,
   right vertices all two-cycle instances, and {I1, I2} is an edge iff
   I2 = I1(e1, e2) for active independent directed edges e1, e2 of I1
   (active = head broadcasts x, tail broadcasts y during the t rounds of
   the algorithm).

   One construction path. Rows are computed once per representative of
   the arena's atlas (Arena.atlas) and expanded to every member: V₁'s
   rotation classes when transcripts are rotation-equivariant (anonymous
   algorithms, and any algorithm at t = 0) — a factor-≈n execution and
   crossing saving — and every instance on its own otherwise. Labels are
   machine-word codes, and each crossing successor is a hash lookup of a
   packed canonical key: no Cycles.t allocation, no string comparison in
   the inner loops. The string-label reference lives in the tests as
   the oracle. *)

type t = {
  n : int;
  x : string;
  y : string;
  v1 : Cycles.t array;
  v2 : Cycles.t array;
  adj : int array array;  (* v1 index -> sorted distinct v2 indices *)
  radj : int array array;  (* v2 index -> sorted distinct v1 indices *)
}

(* Rows arrive as unsorted int arrays of distinct handles: distinct
   crossable pairs cross to distinct structures (DESIGN §2g), and a
   rotation map permutes handles. Each is sorted in place, and a repeat
   is refused rather than dropped. The reverse adjacency is a counting
   transpose: scanning left vertices in ascending order leaves every
   radj row sorted and distinct. *)
let finish ~n ~x ~y ~v1 ~v2 adj =
  Array.iter
    (fun row ->
      if Bcclb_util.Arrayx.sort_uniq_prefix row (Array.length row) <> Array.length row then
        invalid_arg "Indist_graph: two crossings reached one structure")
    adj;
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
   (i < j, both arcs >= 3) that [pair] accepts, in pair order ([finish]
   sorts). An n-cycle has n(n-5)/2 crossable pairs. *)
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
  Array.sub buf 0 !m

(* Both directed edges (c_i, c_i+1) and (c_j, c_j+1) carry the label
   (x, y): the active pairs of Definition 3.6. Here and below labels are
   read through [mask]: the codes may be a deeper sibling truncation's
   (Arena.codes), whose low bits are this algorithm's. *)
let active_row arena cyc (sent : int array) ~mask ~x ~y =
  let k = Array.length cyc in
  let active i = sent.(cyc.(i)) land mask = x && sent.(cyc.((i + 1) mod k)) land mask = y in
  crossing_row arena cyc (fun i j -> active i && active j)

(* The two directed edges carry the same label, whatever it is: the
   same-label condition of Lemma 3.4, i.e. the full graph. *)
let same_label_row arena cyc (sent : int array) ~mask =
  let k = Array.length cyc in
  crossing_row arena cyc (fun i j ->
      (sent.(cyc.(i)) lxor sent.(cyc.(j))) land mask = 0
      && (sent.(cyc.((i + 1) mod k)) lxor sent.(cyc.((j + 1) mod k))) land mask = 0)

(* Most frequent (head, tail) code label across all one-cycle edges,
   each representative counted with its weight: a rotated member's
   edge-label multiset is its representative's, so the weighted counts
   are the full-census counts. Codes can be 62 bits wide, so a label does
   not pack into one int: the tally is two levels of int-keyed tables,
   head code then tail code. Ties break on the DECODED string pair — int
   code order differs from lexicographic string order ('_' sorts after
   '1' in ASCII but codes as 0), and the string-label oracle fixes
   string order. *)
let most_frequent_code ~rounds ~mask ~weight codes1 one_cyc =
  let module T = Arena.Key_tbl in
  let find_or_add tbl key fresh =
    match T.find tbl key with
    | v -> v
    | exception Not_found ->
      let v = fresh () in
      T.add tbl key v;
      v
  in
  let tally = T.create 16 in
  Array.iteri
    (fun i1 sent ->
      let cyc = one_cyc i1 in
      let k = Array.length cyc in
      let w = weight i1 in
      for i = 0 to k - 1 do
        let tails = find_or_add tally (sent.(cyc.(i)) land mask) (fun () -> T.create 16) in
        let count = find_or_add tails (sent.(cyc.((i + 1) mod k)) land mask) (fun () -> ref 0) in
        count := !count + w
      done)
    codes1;
  let decode (cx, cy) = (Labels.string_of_code ~rounds cx, Labels.string_of_code ~rounds cy) in
  let best = ref None in
  T.iter
    (fun x tails ->
      T.iter
        (fun y count ->
          let lbl = (x, y) and count = !count in
          match !best with
          | None -> best := Some (lbl, count)
          | Some (lbl', count') ->
            if count > count' || (count = count' && decode lbl < decode lbl') then
              best := Some (lbl, count))
        tails)
    tally;
  match !best with
  | None -> invalid_arg "Indist_graph: no edge labels"
  | Some (lbl, _) -> lbl

(* The entry checks: an arena for n and packed codes for the algorithm,
   or a refusal naming the limit. *)
let prepare who algo ~n =
  (match Arena.supported ~n with Error m -> invalid_arg (who ^ ": " ^ m) | Ok () -> ());
  Arena.require_codable who algo ~n;
  let arena = Arena.get ~n in
  (arena, Arena.atlas arena algo)

let build ?(seed = 0) ?deepest algo ~n () =
  Bcclb_obs.span "indist.build" ~attrs:[ ("n", string_of_int n) ] @@ fun () ->
  let arena, atlas = prepare "Indist_graph.build" algo ~n in
  let rounds = Bcclb_bcc.Algo.rounds algo ~n in
  let codes, mask = Arena.codes arena atlas ~seed ?deepest algo in
  let rep_cycle ri = Arena.one_cycle arena (Arena.rep atlas ri) in
  let x, y = most_frequent_code ~rounds ~mask ~weight:(Arena.rep_weight atlas) codes rep_cycle in
  (* Each representative's row is independent (the arena's key table is
     read-only here), so rows run on the pool. Crossing is
     orientation-free but the (x, y) label condition is not: a member
     whose canonical traversal reverses its representative's has the
     representative's (y, x)-active pairs. Where the atlas can reverse,
     compute those rows too (they coincide when x = y). *)
  let rows ~x ~y =
    Bcclb_engine.Pool.tabulate (Arena.num_reps arena atlas) (fun ri ->
        active_row arena (rep_cycle ri) codes.(ri) ~mask ~x ~y)
  in
  let fwd = rows ~x ~y in
  let rev = if x = y || not (Arena.reverses atlas) then fwd else rows ~x:y ~y:x in
  finish ~n
    ~x:(Labels.string_of_code ~rounds x)
    ~y:(Labels.string_of_code ~rounds y)
    ~v1:(Arena.one_structures arena) ~v2:(Arena.two_structures arena)
    (Arena.expand arena atlas ~fwd ~rev)

let build_full ?(seed = 0) algo ~n () =
  Bcclb_obs.span "indist.build_full" ~attrs:[ ("n", string_of_int n) ] @@ fun () ->
  let arena, atlas = prepare "Indist_graph.build_full" algo ~n in
  let codes, mask = Arena.codes arena atlas ~seed algo in
  let rows =
    Bcclb_engine.Pool.tabulate (Arena.num_reps arena atlas) (fun ri ->
        same_label_row arena (Arena.one_cycle arena (Arena.rep atlas ri)) codes.(ri) ~mask)
  in
  finish ~n ~x:"*" ~y:"*" ~v1:(Arena.one_structures arena) ~v2:(Arena.two_structures arena)
    (Arena.expand arena atlas ~fwd:rows ~rev:rows)

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
