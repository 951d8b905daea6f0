open Bcclb_graph

(* Exhaustive enumeration of the instance sets of §3.1:
   V1 = all one-cycle input graphs on [n]  (|V1| = (n-1)!/2),
   V2 = all two-disjoint-cycle input graphs, cycle lengths >= 3.
   Feasible to n = 10 (|V1| = 181440). Instances are canonical
   Cycles.t structures over the shared circulant background wiring
   (see DESIGN.md). *)

(* All distinct cycles on a given vertex set: fix the smallest vertex
   first and quotient reflections by requiring second < last. [f] gets a
   scratch sequence, valid during the call. [admit seq depth v] may
   refuse vertex v at position [depth] after the prefix
   seq.(0..depth-1), which prunes every completion of it: how the orbit
   enumerator skips prefixes that cannot be representatives. *)
let iter_cycles_on_restricted ?admit vertices f =
  let k = Array.length vertices in
  if k < 3 then invalid_arg "Census.iter_cycles_on: need at least 3 vertices";
  let vs = Array.copy vertices in
  Array.sort Int.compare vs;
  let first = vs.(0) in
  let rest = Array.sub vs 1 (k - 1) in
  let used = Array.make (k - 1) false in
  let seq = Array.make k first in
  let rec go depth =
    if depth = k then begin
      if seq.(1) < seq.(k - 1) then f seq
    end
    else
      for i = 0 to k - 2 do
        if (not used.(i)) && (match admit with None -> true | Some ok -> ok seq depth rest.(i))
        then begin
          used.(i) <- true;
          seq.(depth) <- rest.(i);
          go (depth + 1);
          used.(i) <- false
        end
      done
  in
  go 1

let iter_cycles_on vertices f = iter_cycles_on_restricted vertices (fun seq -> f (Array.copy seq))

(* The enumerators' sequences are canonical by construction (smallest
   vertex first, second < last), so they become structures as they are:
   Cycles.of_canonical checks that in O(k) instead of re-canonicalising
   into fresh arrays. *)
let iter_one_cycles ~n f =
  if n < 3 then invalid_arg "Census.iter_one_cycles: need n >= 3";
  iter_cycles_on (Array.init n Fun.id) (fun seq -> f (Cycles.of_canonical [ seq ]))

let one_cycles ~n =
  let acc = ref [] in
  iter_one_cycles ~n (fun s -> acc := s :: !acc);
  Array.of_list (List.rev !acc)

(* Subsets of {1..n-1} of size k-1, combined with vertex 0: enumerating
   the cycle containing 0 ensures each unordered pair of cycles appears
   exactly once. *)
let iter_two_cycles ~n f =
  if n < 6 then invalid_arg "Census.iter_two_cycles: need n >= 6";
  let rec subsets start size acc =
    if size = 0 then begin
      let s = Array.of_list (0 :: List.rev acc) in
      let in_s = Array.make n false in
      Array.iter (fun v -> in_s.(v) <- true) s;
      let complement = Array.of_list (List.filter (fun v -> not in_s.(v)) (Bcclb_util.Arrayx.range 0 n)) in
      iter_cycles_on s (fun c1 ->
          iter_cycles_on complement (fun c2 -> f (Cycles.of_canonical [ c1; c2 ])))
    end
    else
      for v = start to n - 1 do
        subsets (v + 1) (size - 1) (v :: acc)
      done
  in
  for size_with_zero = 3 to n - 3 do
    subsets 1 (size_with_zero - 1) []
  done

let two_cycles ~n =
  let acc = ref [] in
  iter_two_cycles ~n (fun s -> acc := s :: !acc);
  Array.of_list (List.rev !acc)

let to_instance s ~n = Bcclb_bcc.Instance.kt0_circulant_sweep n (Cycles.cycles s)

(* ---- rotation orbits ----

   The circulant background wiring is invariant under the label rotations
   ρ_c : v ↦ v+c (mod n): port p of v leads to v+p+1 wherever v is. For
   an anonymous algorithm (Algo.anonymous) transcripts are therefore
   equivariant — code_{ρS}(v+c) = code_S(v) — so every census-level
   quantity that is a sum over instances can instead be summed over one
   representative per rotation class, weighted by the class size. The
   enumerators below produce exactly those representatives. *)

let rotate ~n c s =
  let c = ((c mod n) + n) mod n in
  Cycles.make (List.map (Array.map (fun v -> (v + c) mod n)) (Cycles.cycles s))

(* Orbit test for a full-support cycle given as its canonical sequence
   [seq] (seq.(0) = 0, seq.(1) < seq.(n-1)) and the inverse position
   table [inv]. Compares, lazily and without allocating, the canonical
   sequence of every rotation against [seq]: rotation by [sh] sends label
   n-sh to 0, so its canonical sequence starts at position inv.(n-sh) and
   walks whichever direction meets the smaller shifted neighbour first.
   Returns 0 when some rotation is strictly smaller (not a
   representative), the orbit size n/|stabilizer| otherwise. *)
let one_cycle_orbit ~n seq inv =
  let stab = ref 1 in
  let exception Smaller in
  try
    for sh = 1 to n - 1 do
      let p = inv.(n - sh) in
      let nxt = (seq.((p + 1) mod n) + sh) mod n and prv = (seq.((p + n - 1) mod n) + sh) mod n in
      let dir = if nxt < prv then 1 else n - 1 in
      (* Element i of the rotated canonical sequence vs seq.(i); i = 0 is
         0 on both sides. *)
      let cmp = ref 0 and i = ref 1 in
      while !cmp = 0 && !i < n do
        let v = (seq.((p + (dir * !i)) mod n) + sh) mod n in
        cmp := Int.compare v seq.(!i);
        incr i
      done;
      if !cmp < 0 then raise Smaller else if !cmp = 0 then incr stab
    done;
    n / !stab
  with Smaller -> 0

(* The scan admits only prefixes that can still be representatives. If a
   cycle edge {u, v} has circular distance g = min(v − u, u − v) (mod n)
   below seq.(1), the rotation taking u or v to 0 puts 0 next to g, so
   that rotation's canonical sequence is smaller at position 1 and no
   completion is a representative: every placed edge keeps distance
   >= seq.(1), which itself is at most n/2. The orbit test still decides
   each surviving leaf, so the output is the unpruned scan's. [second]
   fixes the vertex placed right after 0 — the slices over all second
   choices partition the enumeration, which is how the orbit store fans
   out across Pool workers. *)
let iter_one_cycle_orbits ?second ~n f =
  if n < 3 then invalid_arg "Census.iter_one_cycle_orbits: need n >= 3";
  let distance u v =
    let d = abs (u - v) in
    Int.min d (n - d)
  in
  let admit seq depth v =
    if depth = 1 then 2 * v <= n && (match second with None -> true | Some s -> v = s)
    else distance seq.(depth - 1) v >= seq.(1)
  in
  let inv = Array.make n 0 in
  iter_cycles_on_restricted ~admit (Array.init n Fun.id) (fun seq ->
      Array.iteri (fun pos v -> inv.(v) <- pos) seq;
      let w = one_cycle_orbit ~n seq inv in
      if w > 0 then f seq ~weight:w)

(* Generic orbit test through Cycles.compare_t — used for the two-cycle
   set, whose representatives are only materialised at small n where the
   per-rotation allocation is affordable. *)
let structure_orbit ~n s =
  let stab = ref 1 in
  let exception Smaller in
  try
    for c = 1 to n - 1 do
      let cmp = Cycles.compare_t (rotate ~n c s) s in
      if cmp < 0 then raise Smaller else if cmp = 0 then incr stab
    done;
    n / !stab
  with Smaller -> 0

let is_orbit_rep ~n s = structure_orbit ~n s > 0

let orbit_size ~n s =
  let stab = ref 1 in
  for c = 1 to n - 1 do
    if Cycles.compare_t (rotate ~n c s) s = 0 then incr stab
  done;
  n / !stab

let orbit_rep ~n s =
  let best = ref s in
  for c = 1 to n - 1 do
    let r = rotate ~n c s in
    if Cycles.compare_t r !best < 0 then best := r
  done;
  !best

(* Structure-level crossing: cross directed edges (c_i, c_{i+1}) and
   (c_j, c_{j+1}) of a one-cycle instance, replacing them by
   (c_i, c_{j+1}) and (c_j, c_{i+1}) — splitting the cycle into the arcs
   c_{i+1}..c_j and c_{j+1}..c_i. Defined when both arcs have length >= 3
   (this implies edge independence on a cycle of length >= 6). *)
let cross_one_cycle cyc i j =
  let k = Array.length cyc in
  let i, j = if i < j then (i, j) else (j, i) in
  if i < 0 || j >= k then invalid_arg "Census.cross_one_cycle: edge index out of range";
  let len1 = j - i and len2 = k - (j - i) in
  if len1 < 3 || len2 < 3 then invalid_arg "Census.cross_one_cycle: arcs must have length >= 3";
  let arc1 = Array.sub cyc (i + 1) (j - i) in
  let arc2 = Array.init len2 (fun idx -> cyc.((j + 1 + idx) mod k)) in
  Cycles.make [ arc1; arc2 ]

(* Crossing one directed edge in each cycle of a two-cycle instance
   merges the cycles: (a_i, a_{i+1}) x (b_j, b_{j+1}) yields the single
   cycle a_{<=i} b_{>j} b_{<=j} a_{>i} ... concretely: follow a up to
   a_i, jump to b_{j+1}, follow b around to b_j, jump back to a_{i+1}. *)
let cross_two_cycles c1 c2 i j =
  let k1 = Array.length c1 and k2 = Array.length c2 in
  if i < 0 || i >= k1 || j < 0 || j >= k2 then invalid_arg "Census.cross_two_cycles: edge index out of range";
  let merged = Array.make (k1 + k2) 0 in
  let pos = ref 0 in
  let push v =
    merged.(!pos) <- v;
    incr pos
  in
  for idx = 0 to i do
    push c1.(idx)
  done;
  (* After a_i comes b_{j+1}, then the rest of b in order, ending at b_j. *)
  for idx = 1 to k2 do
    push c2.((j + idx) mod k2)
  done;
  for idx = i + 1 to k1 - 1 do
    push c1.(idx)
  done;
  Cycles.make [ merged ]

(* |T_i| of Lemma 3.9: two-cycle instances whose smaller cycle has length
   i, counted exactly and compared against the proof's double-counting
   bound |T_i| <= |V1| * n / (i (n - i)). *)
let t_i_counts ~n =
  let counts = Hashtbl.create 8 in
  iter_two_cycles ~n (fun s ->
      let smaller = List.fold_left min n (Cycles.lengths s) in
      Hashtbl.replace counts smaller (1 + Option.value ~default:0 (Hashtbl.find_opt counts smaller)));
  List.sort compare (Hashtbl.fold (fun i c acc -> (i, c) :: acc) counts [])

(* Closed forms, for the streaming quotient path where enumerating V₂ is
   out of reach: there are (k−1)!/2 distinct cycles on k ≥ 3 labelled
   vertices, so |V1| = (n−1)!/2 and
   |T_i| = C(n,i) · (i−1)!/2 · (n−i−1)!/2, halved when i = n−i because
   the two cycles are then interchangeable. *)
let num_cycles_on k =
  let rec fact i acc = if i <= 1 then acc else fact (i - 1) (acc * i) in
  if k < 3 then invalid_arg "Census.num_cycles_on: need k >= 3";
  fact (k - 1) 1 / 2

let num_one_cycles ~n = num_cycles_on n

let binomial n k =
  let k = min k (n - k) in
  let num = ref 1 in
  for i = 1 to k do
    num := !num * (n - k + i) / i
  done;
  !num

let t_i_closed_form ~n =
  if n < 6 then invalid_arg "Census.t_i_closed_form: need n >= 6";
  List.map
    (fun i ->
      let pairs = binomial n i * num_cycles_on i * num_cycles_on (n - i) in
      (i, if 2 * i = n then pairs / 2 else pairs))
    (Bcclb_util.Arrayx.range 3 ((n / 2) + 1))

let num_two_cycles ~n = List.fold_left (fun acc (_, c) -> acc + c) 0 (t_i_closed_form ~n)
