open Bcclb_graph
open Bcclb_bcc
module Obs = Bcclb_obs
module Bits = Bcclb_util.Bits

(* Arena observability: intern volume, cross-key hash probes, the
   execution-memo hit ratio, and the orbit-segment traffic — the numbers
   that show whether a sweep is actually reusing the census instead of
   re-enumerating it, and whether the segmented store is serving from RAM
   or from disk. *)
let interned_one_metric = Obs.Metrics.Counter.v "arena.interned_one"
let interned_two_metric = Obs.Metrics.Counter.v "arena.interned_two"
let cross_probes_metric = Obs.Metrics.Counter.v "arena.cross_key_probes"
let memo_hits_metric = Obs.Metrics.Counter.v "arena.memo_hits"
let memo_misses_metric = Obs.Metrics.Counter.v "arena.memo_misses"
let orbit_reps_metric = Obs.Metrics.Counter.v "arena.orbit.reps"
let orbit_spill_metric = Obs.Metrics.Counter.v "arena.orbit.spill_bytes"
let orbit_cold_metric = Obs.Metrics.Counter.v "arena.orbit.cold_loads"
let orbit_hits_metric = Obs.Metrics.Counter.v "arena.orbit.resident_hits"
let orbit_rebuilds_metric = Obs.Metrics.Counter.v "arena.orbit.rebuilds"
let orbit_load_seconds = Obs.Metrics.Histogram.v "arena.orbit.cold_load_seconds"

(* Interned arena of the §3.1 instance sets: V1 and V2 are enumerated
   once (in Census order, so handles line up with every existing census
   consumer), each two-cycle structure is keyed by a packed canonical
   key, and crossing successors resolve by hash lookup of that key —
   computed directly from the one-cycle arc decomposition without
   allocating intermediate Cycles.t values. Broadcast codes are
   single-flight pool batches per (arena, algorithm, seed, atlas), so
   each distinct execution runs once per process. *)

type handle = int

(* ---- packed canonical keys ----

   A two-cycle structure packs as [len c1][c1 minus its leading 0][all of
   c2], one 4-bit coordinate per field, LSB-first. The first cycle is the
   one containing vertex 0 (canonically it leads with it), so its leading
   coordinate is implied; the length coordinate disambiguates the split.
   n <= 15 coordinates fill at most 60 bits, so every key is one int. *)

let coord_width ~n =
  if n <= 16 then 4
  else begin
    let w = ref 5 and cap = ref 32 in
    while n > !cap do
      incr w;
      cap := !cap * 2
    done;
    !w
  end

let max_n = 15
let min_n = 6
let orbit_max_n = 13

let key_two s =
  if Cycles.num_vertices s > max_n then
    invalid_arg (Printf.sprintf "Arena.key_two: integer keys need n <= %d" max_n);
  match Cycles.cycles s with
  | [ c1; c2 ] ->
    let key = ref 0 and shift = ref 0 in
    let push v =
      key := !key lor (v lsl !shift);
      shift := !shift + 4
    in
    push (Array.length c1);
    for i = 1 to Array.length c1 - 1 do
      push c1.(i)
    done;
    Array.iter push c2;
    !key
  | _ -> invalid_arg "Arena.key_two: not a two-cycle structure"

(* The key of a structure whose two cycles are arcs of existing arrays —
   the halves of a crossed one-cycle, or the rotated cycles of a V2
   structure — computed without building the structure. An arc is
   (a, s, l): a.(s), ..., a.(s + l - 1), indices mod [Array.length a],
   with s < Array.length a and l <= it. Cycles.canonical_cycle's choices
   are read off the arc (the position of the minimum vertex and the
   direction toward its smaller neighbour) and the key is packed
   straight from them: no closure, tuple or array is allocated. *)

let[@inline] arc_get (a : int array) s q =
  let i = s + q in
  a.(if i >= Array.length a then i - Array.length a else i)

(* 2p when the canonical traversal walks forward from arc position p
   (the minimum), 2p + 1 when it walks backward. *)
let arc_start a s l =
  let p = ref 0 and m = ref (arc_get a s 0) in
  for q = 1 to l - 1 do
    let v = arc_get a s q in
    if v < !m then begin
      p := q;
      m := v
    end
  done;
  let p = !p in
  let next = arc_get a s (if p = l - 1 then 0 else p + 1) in
  let prev = arc_get a s (if p = 0 then l - 1 else p - 1) in
  if next <= prev then 2 * p else (2 * p) + 1

(* The canonical traversal's vertices from the [first]-th on, in 4-bit
   fields from bit [shift]. *)
let arc_bits a s l start ~first ~shift =
  let back = start land 1 = 1 in
  let q = ref (start lsr 1) and bits = ref 0 in
  for step = 0 to l - 1 do
    if step >= first then bits := !bits lor (arc_get a s !q lsl (shift + (4 * (step - first))));
    q := if back then if !q = 0 then l - 1 else !q - 1 else if !q = l - 1 then 0 else !q + 1
  done;
  !bits

let pack_arcs a sa la ka b sb lb kb =
  la lor arc_bits a sa la ka ~first:1 ~shift:4 lor arc_bits b sb lb kb ~first:0 ~shift:(4 * la)

(* The arc holding the smaller minimum is the first cycle. *)
let key_of_arcs a sa la b sb lb =
  let ka = arc_start a sa la and kb = arc_start b sb lb in
  if arc_get a sa (ka lsr 1) < arc_get b sb (kb lsr 1) then pack_arcs a sa la ka b sb lb kb
  else pack_arcs b sb lb kb a sa la ka

let cross_key cyc i j =
  let k = Array.length cyc in
  let i = Int.min i j and j = Int.max i j in
  if i < 0 || j >= k then invalid_arg "Arena.cross_key: edge index out of range";
  let len1 = j - i and len2 = k - (j - i) in
  if len1 < 3 || len2 < 3 then invalid_arg "Arena.cross_key: arcs must have length >= 3";
  (* The two arcs of Census.cross_one_cycle: c_{i+1}..c_j and
     c_{j+1}..c_i (wrapping). *)
  key_of_arcs cyc (i + 1) len1 cyc (if j + 1 = k then 0 else j + 1) len2

(* The packed key of a one-cycle structure, read off a traversal [a] of
   its n vertices whose canonical form starts at [arc_start a 0 n]: the
   canonical sequence minus its leading 0, 4 bits per vertex, LSB-first,
   as for a two-cycle key's first cycle. *)
let one_key a start = arc_bits a 0 (Array.length a) start ~first:1 ~shift:0

(* Tables keyed by packed keys: int equality and a multiplicative hash
   folded onto the low bits that pick the bucket, in place of the
   polymorphic [Hashtbl]'s C-side hash and compare. *)
module Key_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash k =
    let h = k * 0x2545F4914F6CDD1D in
    h lxor (h lsr 32)
end)

let supported ~n =
  if n < min_n || n > max_n then
    Error
      (Printf.sprintf
         "the exhaustive census arena supports %d <= n <= %d (got n = %d); larger n runs only \
          through the orbit-reduced quotient paths (Arena.Orbit, n <= %d)"
         min_n max_n n orbit_max_n)
  else Ok ()

(* ---- the interned census arena ---- *)

(* V₁ rotation-orbit atlas (see Census): representatives carry the
   weighted computations, every other handle points back at its
   representative together with the rotation that reproduces it. *)
type orbit_one = {
  reps : handle array;
  weights : int array;
  rep_of : int array;  (* V1 handle -> index into [reps] *)
  shift_of : int array;  (* V1 handle -> c with rotate c (rep) = handle *)
  flip_of : bool array;  (* does re-canonicalising reverse the traversal? *)
}

type t = {
  id : int;  (* names this arena's code batches (Pool.shared keys) *)
  n : int;
  one : Cycles.t array;
  one_cyc : int array array;  (* the single canonical cycle of each V1 structure *)
  two : Cycles.t array;
  two_index : handle Key_tbl.t;  (* packed canonical key -> handle *)
  mutable orbit1 : orbit_one option;
  rot2_memo : (int, int array) Hashtbl.t;  (* rotation c -> V2 handle map *)
  aux_lock : Mutex.t;
}

let next_id = Atomic.make 0

let create ~n =
  (match supported ~n with Error m -> invalid_arg ("Arena.create: " ^ m) | Ok () -> ());
  Obs.span "arena.build" ~attrs:[ ("n", string_of_int n) ] (fun () ->
      let one = Census.one_cycles ~n in
      let two = Census.two_cycles ~n in
      let one_cyc = Array.map (fun s -> List.hd (Cycles.cycles s)) one in
      let two_index = Key_tbl.create (2 * Array.length two) in
      Array.iteri (fun h s -> Key_tbl.replace two_index (key_two s) h) two;
      Obs.Metrics.Counter.add interned_one_metric (Array.length one);
      Obs.Metrics.Counter.add interned_two_metric (Array.length two);
      { id = Atomic.fetch_and_add next_id 1;
        n;
        one;
        one_cyc;
        two;
        two_index;
        orbit1 = None;
        rot2_memo = Hashtbl.create 4;
        aux_lock = Mutex.create () })

(* Process-level interning: census enumeration and the execution memo
   are per-n facts, so sharing one arena per n across all builds in the
   process is the design goal, not an optimisation — a parameter sweep
   (e.g. E2 over t = 0..4) enumerates the census once and runs each
   distinct (algorithm, seed) execution once, ever. Memory stays
   bounded: practical exhaustive n is <= 11, far below [max_n]. *)
let registry : (int, t) Hashtbl.t = Hashtbl.create 4
let registry_lock = Mutex.create ()

let get ~n =
  Mutex.lock registry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_lock)
    (fun () ->
      match Hashtbl.find_opt registry n with
      | Some a -> a
      | None ->
        (* Enumeration can be slow; holding the lock keeps racing
           callers from duplicating it, and nothing here re-enters
           [get]. *)
        let a = create ~n in
        Hashtbl.replace registry n a;
        a)

let n t = t.n
let n_one t = Array.length t.one
let n_two t = Array.length t.two
let one_structure t h = t.one.(h)
let two_structure t h = t.two.(h)
let one_structures t = t.one
let two_structures t = t.two
let one_cycle t h = t.one_cyc.(h)

let two_handle t ~key =
  Obs.Metrics.Counter.incr cross_probes_metric;
  match Key_tbl.find t.two_index key with
  | h -> h
  | exception Not_found -> invalid_arg "Arena.two_handle: key does not intern a census structure"

let cross_handle t cyc i j = two_handle t ~key:(cross_key cyc i j)

(* Census enumeration order is lexicographic on the canonical sequence,
   which is exactly Cycles.compare_t order on one-cycle structures — so
   within a rotation orbit the representative (the minimal rotation) is
   the smallest handle, and one ascending scan that expands each
   yet-unclaimed handle's orbit visits representatives first. Each
   rotated member is found by its packed key ([one_key]); it is flipped
   when its canonical traversal walks the rotated representative
   backwards. *)
let compute_orbit_one t =
  let n = t.n in
  let m = Array.length t.one in
  let index = Key_tbl.create (2 * m) in
  (* A canonical cycle walks forward from its leading 0: start 0. *)
  Array.iteri (fun h cyc -> Key_tbl.replace index (one_key cyc 0) h) t.one_cyc;
  let rep_of = Array.make m (-1) in
  let shift_of = Array.make m 0 in
  let flip_of = Array.make m false in
  let reps = ref [] and weights = ref [] and nreps = ref 0 in
  let rotated = Array.make n 0 in
  for h = 0 to m - 1 do
    if rep_of.(h) = -1 then begin
      let rep_idx = !nreps in
      incr nreps;
      let weight = ref 0 in
      let cyc_r = t.one_cyc.(h) in
      for c = 0 to n - 1 do
        for i = 0 to n - 1 do
          rotated.(i) <- (cyc_r.(i) + c) mod n
        done;
        let start = arc_start rotated 0 n in
        let h' = Key_tbl.find index (one_key rotated start) in
        if rep_of.(h') = -1 then begin
          rep_of.(h') <- rep_idx;
          shift_of.(h') <- c;
          flip_of.(h') <- start land 1 = 1;
          incr weight
        end
      done;
      reps := h :: !reps;
      weights := !weight :: !weights
    end
  done;
  Obs.Metrics.Counter.add orbit_reps_metric !nreps;
  { reps = Array.of_list (List.rev !reps);
    weights = Array.of_list (List.rev !weights);
    rep_of;
    shift_of;
    flip_of }

let orbit_one t =
  Mutex.lock t.aux_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.aux_lock)
    (fun () ->
      match t.orbit1 with
      | Some o -> o
      | None ->
        let o =
          Obs.span "arena.orbit_one" ~attrs:[ ("n", string_of_int t.n) ] (fun () ->
              compute_orbit_one t)
        in
        t.orbit1 <- Some o;
        o)

(* V₂ handle map of the rotation ρ_c — the bridge that turns a
   representative's adjacency row into any orbit member's. ρ₁ is read
   off the arc canonicaliser, structure by structure; every other shift
   composes, ρ_c(h) = ρ₁(ρ_{c−1}(h)): one array read per handle. *)
let rotation_map_one t =
  let n = t.n in
  let ra = Array.make n 0 and rb = Array.make n 0 in
  Array.map
    (fun s ->
      match Cycles.cycles s with
      | [ c1; c2 ] ->
        let l1 = Array.length c1 and l2 = Array.length c2 in
        for i = 0 to l1 - 1 do
          ra.(i) <- (c1.(i) + 1) mod n
        done;
        for i = 0 to l2 - 1 do
          rb.(i) <- (c2.(i) + 1) mod n
        done;
        Key_tbl.find t.two_index (key_of_arcs ra 0 l1 rb 0 l2)
      | _ -> invalid_arg "Arena.rotation_map_two: not a two-cycle structure")
    t.two

let rotation_map_two t c =
  let c = ((c mod t.n) + t.n) mod t.n in
  Mutex.protect t.aux_lock (fun () ->
      let rec map c =
        match Hashtbl.find_opt t.rot2_memo c with
        | Some m -> m
        | None ->
          let m =
            if c = 0 then Array.init (Array.length t.two) Fun.id
            else if c = 1 then rotation_map_one t
            else begin
              let r1 = map 1 in
              Array.map (fun h -> r1.(h)) (map (c - 1))
            end
          in
          Hashtbl.replace t.rot2_memo c m;
          m
      in
      map c)

(* ---- atlases ----

   Rotations are automorphisms of the circulant wiring, so when
   transcripts are rotation-equivariant a rotation class's members can be
   computed on through its representative: the member's codes are the
   representative's rotated, its crossing successors the rotation image
   of the representative's. Anonymous algorithms qualify at any depth,
   and every algorithm at t = 0 (nothing has been broadcast yet). *)

let rotation_sound algo ~n = Algo.anonymous algo || Algo.rounds algo ~n = 0

type atlas = Instances | Rotations of orbit_one

let atlas t algo = if rotation_sound algo ~n:t.n then Rotations (orbit_one t) else Instances

let num_reps t = function Instances -> Array.length t.one | Rotations o -> Array.length o.reps
let rep atlas ri = match atlas with Instances -> ri | Rotations o -> o.reps.(ri)
let rep_weight atlas ri = match atlas with Instances -> 1 | Rotations o -> o.weights.(ri)
let reverses = function Instances -> false | Rotations _ -> true

(* A member's row is its representative's (read reversed when the
   member's traversal is), pushed through the V2 handle permutation of
   its rotation. On the per-instance atlas the representatives' rows
   are already every handle's: no rotation map, no copy. *)
let expand t atlas ~fwd ~rev =
  match atlas with
  | Instances -> fwd
  | Rotations o ->
    let rot = Array.init t.n (fun c -> if c = 0 then [||] else rotation_map_two t c) in
    Array.init (Array.length t.one) (fun h ->
        let ri = o.rep_of.(h) in
        let row = if o.flip_of.(h) then rev.(ri) else fwd.(ri) in
        let c = o.shift_of.(h) in
        if c = 0 then row else Array.map (fun h2 -> rot.(c).(h2)) row)

(* ---- broadcast codes ---- *)

let codable algo ~n =
  Algo.bandwidth algo ~n <= 1 && 2 * Algo.rounds algo ~n <= Bits.max_width

let require_codable who algo ~n =
  if not (codable algo ~n) then
    invalid_arg
      (Printf.sprintf
         "%s: %S does not pack into machine-word codes (needs bandwidth <= 1 and at most %d \
          rounds; has bandwidth %d and %d rounds)"
         who (Algo.name algo) (Bits.max_width / 2) (Algo.bandwidth algo ~n) (Algo.rounds algo ~n))

(* One lightweight engine execution of a one-cycle instance given as its
   canonical cycle, over the shared circulant sweep stamp. *)
let run_codes ~seed ~n algo stamp cyc =
  let k = Array.length cyc in
  let neighbors = Array.make n (0, 0) in
  for i = 0 to k - 1 do
    neighbors.(cyc.(i)) <- (cyc.((i + k - 1) mod k), cyc.((i + 1) mod k))
  done;
  Simulator.run_sent_codes ~seed algo (stamp neighbors)

(* The execution whose codes serve [algo]: the [deepest]-round member of
   its truncation family (Algo.deepen) when that member runs more rounds,
   computes on the same atlas and still packs — else [algo] itself.
   run_sent_codes packs round r at bits 2(r - 1), and members agree on
   every round both run, so [algo]'s codes are the low 2·rounds bits of
   the member's. *)
let code_source ?deepest algo ~n =
  match Option.bind deepest (fun rounds -> Algo.deepen ~rounds algo) with
  | Some deep
    when Algo.rounds deep ~n > Algo.rounds algo ~n
         && rotation_sound deep ~n = rotation_sound algo ~n
         && codable deep ~n -> deep
  | _ -> algo

let codes_id : int array array Type.Id.t = Type.Id.make ()

(* Broadcast codes of the atlas's representatives under the source
   execution, one lightweight engine execution each, as a single-flight
   pool batch: cells that need the same execution at once share its
   items, and later ones read the stored result. Keyed by the source's
   name — truncations rename themselves per round bound, so distinct
   executions never share a batch — and by the arena, so an arena made
   with [create] shares nothing. The span name says which atlas ran:
   perfbench reads the two apart. *)
let codes arena atlas ?(seed = 0) ?deepest algo =
  let n = arena.n in
  let source = code_source ?deepest algo ~n in
  let rotations = match atlas with Instances -> false | Rotations _ -> true in
  let span_name = if rotations then "arena.codes_reps" else "arena.codes" in
  let codes, created =
    Obs.span span_name
      ~attrs:[ ("algo", Algo.name source); ("seed", string_of_int seed); ("n", string_of_int n) ]
      (fun () ->
        (* Shared circulant wiring: the clique tables are built once,
           each instance only needs its per-vertex cycle-neighbour
           pairs. *)
        let stamp = Instance.kt0_circulant_sweep n in
        Bcclb_engine.Pool.shared codes_id
          ~key:(Printf.sprintf "arena%d.codes|%s|%d|%b" arena.id (Algo.name source) seed rotations)
          (num_reps arena atlas)
          (fun ri -> run_codes ~seed ~n source stamp arena.one_cyc.(rep atlas ri)))
  in
  Obs.Metrics.Counter.incr (if created then memo_misses_metric else memo_hits_metric);
  (codes, (1 lsl (2 * Algo.rounds algo ~n)) - 1)

(* ---- the segmented, spillable orbit store ----

   One fixed-width record per V₁ rotation-class representative: the
   canonical cycle minus its leading 0, coord_width bits per vertex,
   zero-padded to whole bytes, then one weight byte. Records are packed
   into segments of [seg_records]; segments live as CRC-32-checksummed
   files under a content-addressed directory of results/cache/arena (the
   spec string — format version, n, widths — is the address, in the
   style of the harness result cache), with recently used segments kept
   resident in RAM up to a budget. A warm process therefore reopens the
   manifest and streams records off disk: re-runs never pay the
   enumeration scan, which is the dominant cold cost at n >= 12. *)
module Orbit = struct
  let max_n = orbit_max_n
  let min_n = 3
  let format_version = 1
  let seg_records = 1 lsl 18
  let resident_budget = 64 * 1024 * 1024
  let default_root = Filename.concat (Filename.concat "results" "cache") "arena"

  type seg = {
    path : string;
    records : int;
    crc : int;
    mutable resident : Bytes.t option;
  }

  type store = {
    n : int;
    width : int;  (* bits per vertex coordinate *)
    record_bytes : int;
    segs : seg array;
    n_reps : int;
    total_weight : int;
    warm : bool;
    lock : Mutex.t;
    mutable resident_bytes : int;
  }

  let n_reps t = t.n_reps
  let total_weight t = t.total_weight
  let num_segments t = Array.length t.segs
  let warm t = t.warm

  let record_bytes_for ~n ~width = (((n - 1) * width) + 7) / 8 + 1

  let spec ~n ~width =
    Printf.sprintf "arena-orbit-segments|v%d|n=%d|width=%d|seg=%d" format_version n width
      seg_records

  let dir_of ~root ~n ~width =
    let hash = String.sub (Digest.to_hex (Digest.string (spec ~n ~width))) 0 12 in
    Filename.concat root (Printf.sprintf "n%02d-%s" n hash)

  (* Stdlib-only fs helpers (core does not link unix). *)
  let rec mkdir_p path =
    if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path) then begin
      mkdir_p (Filename.dirname path);
      try Sys.mkdir path 0o755 with Sys_error _ -> ()
    end

  let write_file path content =
    let oc = open_out_bin path in
    output_bytes oc content;
    close_out oc

  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))

  let rec remove_tree path =
    match Sys.is_directory path with
    | true ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    | false -> Sys.remove path
    | exception Sys_error _ -> ()

  (* A fresh directory under the store root that no other builder,
     domain or process, can be using. *)
  let private_dir ~root = Filename.temp_dir ~temp_dir:root ~perms:0o755 ".private-" ""

  (* A store leaves its address in one rename, so nobody else ever sees
     it half deleted; the copy moved aside is then removed at leisure.
     Losing the rename to another discarder is fine: it is gone either
     way. *)
  let discard dir =
    let aside = private_dir ~root:(Filename.dirname dir) in
    (try Sys.rename dir (Filename.concat aside "old") with Sys_error _ -> ());
    remove_tree aside

  (* LSB-first bit packing, the Bits.Seq layout flattened to an absolute
     bit offset inside a record scratch buffer. *)
  let set_bits buf ~bitpos ~width ~value =
    let pos = ref bitpos and remaining = ref width and v = ref value in
    while !remaining > 0 do
      let byte = !pos lsr 3 and off = !pos land 7 in
      let take = min !remaining (8 - off) in
      let chunk = !v land ((1 lsl take) - 1) in
      let b = Char.code (Bytes.unsafe_get buf byte) in
      Bytes.unsafe_set buf byte (Char.unsafe_chr (b lor (chunk lsl off)));
      v := !v lsr take;
      pos := !pos + take;
      remaining := !remaining - take
    done

  let get_bits buf ~bitpos ~width =
    let v = ref 0 and got = ref 0 and p = ref bitpos in
    while !got < width do
      let byte = !p lsr 3 and off = !p land 7 in
      let take = min (width - !got) (8 - off) in
      let chunk = Char.code (Bytes.unsafe_get buf byte) lsr off land ((1 lsl take) - 1) in
      v := !v lor (chunk lsl !got);
      got := !got + take;
      p := !p + take
    done;
    !v

  let encode_rep scratch ~n ~width ~record_bytes cyc weight =
    Bytes.fill scratch 0 record_bytes '\000';
    for idx = 1 to n - 1 do
      set_bits scratch ~bitpos:((idx - 1) * width) ~width ~value:cyc.(idx)
    done;
    Bytes.set scratch (record_bytes - 1) (Char.chr weight)

  (* Decodes record [r] of a segment into [cyc] (length n, cyc.(0) stays
     0); returns the weight. *)
  let decode_rep seg_bytes ~n ~width ~record_bytes ~r cyc =
    let base = r * record_bytes in
    for idx = 1 to n - 1 do
      cyc.(idx) <- get_bits seg_bytes ~bitpos:((base * 8) + ((idx - 1) * width)) ~width
    done;
    Char.code (Bytes.get seg_bytes (base + record_bytes - 1))

  let manifest_magic = "BCCLB-ARENA-SEG-1"
  let manifest_path dir = Filename.concat dir "MANIFEST"
  let seg_path dir i = Filename.concat dir (Printf.sprintf "seg-%04d.bin" i)

  let write_manifest ~dir ~n ~width ~n_reps ~total_weight segs =
    let b = Buffer.create 256 in
    Buffer.add_string b (manifest_magic ^ "\n");
    Buffer.add_string b (spec ~n ~width ^ "\n");
    Buffer.add_string b
      (Printf.sprintf "reps=%d weight=%d segments=%d\n" n_reps total_weight (Array.length segs));
    Array.iter (fun s -> Buffer.add_string b (Printf.sprintf "%d %08x\n" s.records s.crc)) segs;
    write_file (manifest_path dir) (Buffer.to_bytes b)

  (* A warm open trusts the manifest for layout but cross-checks the one
     invariant it can get for free — Σ weight must be the closed-form
     |V1| — and the on-disk byte counts; segment payloads are CRC-checked
     lazily, when first loaded. Any discrepancy, or a store moved away
     mid-read, means "not warm": the caller rebuilds. *)
  let try_open_warm ~dir ~nn ~width ~record_bytes =
    match String.split_on_char '\n' (read_file (manifest_path dir)) with
    | magic :: sp :: counts :: rest when magic = manifest_magic && sp = spec ~n:nn ~width -> (
      try
        let n_reps, total_weight, n_segs =
          Scanf.sscanf counts "reps=%d weight=%d segments=%d" (fun a b c -> (a, b, c))
        in
        if total_weight <> Census.num_one_cycles ~n:nn then None
        else begin
          let segs =
            Array.init n_segs (fun i ->
                let records, crc = Scanf.sscanf (List.nth rest i) "%d %x" (fun a b -> (a, b)) in
                { path = seg_path dir i; records; crc; resident = None })
          in
          let sizes_ok =
            Array.for_all
              (fun s ->
                let ic = open_in_bin s.path in
                let len = in_channel_length ic in
                close_in_noerr ic;
                len = s.records * record_bytes)
              segs
          in
          if sizes_ok && Array.fold_left (fun acc s -> acc + s.records) 0 segs = n_reps then
            Some (segs, n_reps, total_weight)
          else None
        end
      with Scanf.Scan_failure _ | Failure _ | End_of_file | Sys_error _ -> None)
    | _ -> None
    | exception Sys_error _ -> None

  (* Writes the store into [into], a private directory, with segment
     paths that point at [dir], where it will be published. *)
  let build ~into ~dir ~nn ~width ~record_bytes =
    Obs.span "arena.orbit.build" ~attrs:[ ("n", string_of_int nn) ] (fun () ->
        (* Branch-parallel enumeration: the slices over the second vertex
           partition V1, and concatenating them in branch order keeps the
           store order deterministic for any domain count. *)
        let branches = Array.init (nn - 1) (fun i -> i + 1) in
        let chunks =
          Bcclb_engine.Pool.map_batch
            (fun second ->
              let buf = Buffer.create (1 lsl 16) in
              let scratch = Bytes.create record_bytes in
              let count = ref 0 and wsum = ref 0 in
              Census.iter_one_cycle_orbits ~second ~n:nn (fun seq ~weight ->
                  encode_rep scratch ~n:nn ~width ~record_bytes seq weight;
                  Buffer.add_bytes buf scratch;
                  incr count;
                  wsum := !wsum + weight);
              (Buffer.contents buf, !count, !wsum))
            branches
        in
        let n_reps = Array.fold_left (fun acc (_, c, _) -> acc + c) 0 chunks in
        let total_weight = Array.fold_left (fun acc (_, _, w) -> acc + w) 0 chunks in
        assert (total_weight = Census.num_one_cycles ~n:nn);
        let all = Bytes.create (n_reps * record_bytes) in
        let off = ref 0 in
        Array.iter
          (fun (s, _, _) ->
            Bytes.blit_string s 0 all !off (String.length s);
            off := !off + String.length s)
          chunks;
        let n_segs = max 1 ((n_reps + seg_records - 1) / seg_records) in
        let segs =
          Array.init n_segs (fun i ->
              let lo = i * seg_records in
              let records = min seg_records (n_reps - lo) in
              let bytes = Bytes.sub all (lo * record_bytes) (records * record_bytes) in
              let crc = Bcclb_util.Crc32.bytes bytes in
              write_file (seg_path into i) bytes;
              Obs.Metrics.Counter.add orbit_spill_metric (Bytes.length bytes);
              { path = seg_path dir i; records; crc; resident = Some bytes })
        in
        write_manifest ~dir:into ~n:nn ~width ~n_reps ~total_weight segs;
        Obs.Metrics.Counter.add orbit_reps_metric n_reps;
        (segs, n_reps, total_weight))

  let create ?(root = default_root) ~n:nn () =
    if nn < min_n || nn > max_n then
      invalid_arg
        (Printf.sprintf
           "Arena.Orbit.create: the segmented orbit store supports %d <= n <= %d (got n = %d)"
           min_n max_n nn);
    let width = coord_width ~n:nn in
    let record_bytes = record_bytes_for ~n:nn ~width in
    let dir = dir_of ~root ~n:nn ~width in
    mkdir_p root;
    (* A build is published by one rename of its private directory, so a
       store is never seen half written. A builder that loses that race
       to another domain or process drops its copy and keeps its records:
       builds are deterministic, so they are the winner's bytes. A stale
       or corrupt store in the way is discarded and the rename retried. *)
    let published tmp =
      match Sys.rename tmp dir with
      | () -> true
      | exception Sys_error _ -> try_open_warm ~dir ~nn ~width ~record_bytes <> None
    in
    let segs, n_reps, total_weight, warm =
      match try_open_warm ~dir ~nn ~width ~record_bytes with
      | Some (segs, n_reps, total_weight) -> (segs, n_reps, total_weight, true)
      | None ->
        let tmp = private_dir ~root in
        Fun.protect ~finally:(fun () -> remove_tree tmp) @@ fun () ->
        let segs, n_reps, total_weight = build ~into:tmp ~dir ~nn ~width ~record_bytes in
        if not (published tmp) then begin
          discard dir;
          if not (published tmp) then
            failwith (Printf.sprintf "Arena.Orbit: cannot publish the store at %s" dir)
        end;
        (segs, n_reps, total_weight, false)
    in
    let resident_bytes =
      Array.fold_left
        (fun acc s -> match s.resident with Some b -> acc + Bytes.length b | None -> acc)
        0 segs
    in
    (* Over-budget builds drop their tail segments back to disk-only. *)
    let resident_bytes = ref resident_bytes in
    Array.iter
      (fun s ->
        match s.resident with
        | Some b when !resident_bytes > resident_budget ->
          s.resident <- None;
          resident_bytes := !resident_bytes - Bytes.length b
        | _ -> ())
      (Array.of_list (List.rev (Array.to_list segs)));
    { n = nn;
      width;
      record_bytes;
      segs;
      n_reps;
      total_weight;
      warm;
      lock = Mutex.create ();
      resident_bytes = !resident_bytes }

  let segment_bytes t i =
    let s = t.segs.(i) in
    Mutex.lock t.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        match s.resident with
        | Some b ->
          Obs.Metrics.Counter.incr orbit_hits_metric;
          b
        | None ->
          let stop = Obs.Mclock.counter () in
          let content = Bytes.of_string (read_file s.path) in
          Obs.Metrics.Counter.incr orbit_cold_metric;
          Obs.Metrics.Histogram.observe orbit_load_seconds (stop ());
          if Bcclb_util.Crc32.bytes content <> s.crc then begin
            (* A corrupt cold segment cannot be healed mid-iteration;
               drop the whole store so the next open rebuilds it. *)
            Obs.Metrics.Counter.incr orbit_rebuilds_metric;
            discard (Filename.dirname s.path);
            failwith
              (Printf.sprintf
                 "Arena.Orbit: segment %s failed its checksum; the store was removed — re-run to \
                  rebuild it"
                 s.path)
          end;
          if t.resident_bytes + Bytes.length content <= resident_budget then begin
            s.resident <- Some content;
            t.resident_bytes <- t.resident_bytes + Bytes.length content
          end;
          content)

  let segment_records t i = t.segs.(i).records

  let iter_segment ?(lo = 0) ?hi t i f =
    let b = segment_bytes t i in
    let s = t.segs.(i) in
    let hi = Option.value ~default:s.records hi in
    let cyc = Array.make t.n 0 in
    for r = lo to hi - 1 do
      let weight = decode_rep b ~n:t.n ~width:t.width ~record_bytes:t.record_bytes ~r cyc in
      f cyc ~weight
    done

  let iter t f =
    for i = 0 to Array.length t.segs - 1 do
      iter_segment t i f
    done

  (* Shared per-(n, root) stores, mirroring the arena registry: the warm
     manifest makes reopening cheap, but in-process sharing also shares
     the resident segments. *)
  let registry : (int * string, store) Hashtbl.t = Hashtbl.create 4
  let orbit_registry_lock = Mutex.create ()

  let get ?(root = default_root) ~n () =
    Mutex.lock orbit_registry_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock orbit_registry_lock)
      (fun () ->
        match Hashtbl.find_opt registry (n, root) with
        | Some s -> s
        | None ->
          let s = create ~root ~n () in
          Hashtbl.replace registry (n, root) s;
          s)
end
