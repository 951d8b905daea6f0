open Bcclb_graph
open Bcclb_bcc
module Obs = Bcclb_obs
module Bits = Bcclb_util.Bits

(* Arena observability: intern volume, cross-key hash probes, the
   execution-memo hit ratio and the enumerated orbit representatives —
   the numbers that show whether a sweep is actually reusing the census
   instead of re-enumerating it. *)
let interned_one_metric = Obs.Metrics.Counter.v "arena.interned_one"
let interned_two_metric = Obs.Metrics.Counter.v "arena.interned_two"
let cross_probes_metric = Obs.Metrics.Counter.v "arena.cross_key_probes"
let memo_hits_metric = Obs.Metrics.Counter.v "arena.memo_hits"
let memo_misses_metric = Obs.Metrics.Counter.v "arena.memo_misses"
let orbit_reps_metric = Obs.Metrics.Counter.v "arena.orbit.reps"

(* Interned arena of the §3.1 instance sets: V1 and V2 are enumerated
   once (in Census order, so handles line up with every existing census
   consumer), each two-cycle structure is keyed by a packed canonical
   key, and crossing successors resolve by hash lookup of that key —
   computed directly from the one-cycle arc decomposition without
   allocating intermediate Cycles.t values. Every census memo — the
   arena of each n, its rotation atlas and maps, its broadcast codes per
   (algorithm, seed, atlas), the orbit store of each (n, root) — is a
   Pool.shared batch keyed by what it depends on, so each is computed
   once per process and a caller waits only for the key it needs. *)

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
  id : int;  (* names this arena's Pool.shared batches *)
  n : int;
  one : Cycles.t array;
  one_cyc : int array array;  (* the single canonical cycle of each V1 structure *)
  two : Cycles.t array;
  two_index : handle Key_tbl.t;  (* packed canonical key -> handle *)
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
      { id = Atomic.fetch_and_add next_id 1; n; one; one_cyc; two; two_index })

(* One value per key for the life of the process: a one-item
   Pool.shared batch. *)
let memo id key f = (fst (Bcclb_engine.Pool.shared id ~key 1 (fun _ -> f ()))).(0)

(* Process-level interning: census enumeration and the execution memo
   are per-n facts, so sharing one arena per n across all builds in the
   process is the design goal, not an optimisation — a parameter sweep
   (e.g. E2 over t = 0..4) enumerates the census once and runs each
   distinct (algorithm, seed) execution once, ever. Memory stays
   bounded: practical exhaustive n is <= 11, far below [max_n]. *)
let arena_id : t array Type.Id.t = Type.Id.make ()

let get ~n = memo arena_id (Printf.sprintf "arena|%d" n) (fun () -> create ~n)

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

let orbit_one_id : orbit_one array Type.Id.t = Type.Id.make ()

let orbit_one t =
  memo orbit_one_id (Printf.sprintf "arena%d.orbit_one" t.id) (fun () ->
      Obs.span "arena.orbit_one" ~attrs:[ ("n", string_of_int t.n) ] (fun () ->
          compute_orbit_one t))

(* V₂ handle maps of the rotations ρ_0..ρ_{n−1} — the bridge that turns
   a representative's adjacency row into any orbit member's. ρ₁ is read
   off the arc canonicaliser, structure by structure; every other shift
   composes, ρ_c(h) = ρ₁(ρ_{c−1}(h)): one array read per handle. *)
let compute_rotations t =
  let n = t.n in
  let ra = Array.make n 0 and rb = Array.make n 0 in
  let r1 =
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
  in
  let maps = Array.make n r1 in
  maps.(0) <- Array.init (Array.length t.two) Fun.id;
  for c = 2 to n - 1 do
    maps.(c) <- Array.map (fun h -> r1.(h)) maps.(c - 1)
  done;
  maps

let rotations_id : int array array array Type.Id.t = Type.Id.make ()

let rotations t =
  memo rotations_id (Printf.sprintf "arena%d.rotations" t.id) (fun () -> compute_rotations t)

let rotation_map_two t c = (rotations t).(((c mod t.n) + t.n) mod t.n)

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
    let rot = rotations t in
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
        (* One circulant wiring for every execution, each stamped from
           its representative's cycle. *)
        let stamp = Instance.kt0_circulant_sweep n in
        Bcclb_engine.Pool.shared codes_id
          ~key:(Printf.sprintf "arena%d.codes|%s|%d|%b" arena.id (Algo.name source) seed rotations)
          (num_reps arena atlas)
          (fun ri ->
            Simulator.run_sent_codes ~seed source (stamp [ arena.one_cyc.(rep atlas ri) ])))
  in
  Obs.Metrics.Counter.incr (if created then memo_misses_metric else memo_hits_metric);
  (codes, (1 lsl (2 * Algo.rounds algo ~n)) - 1)

(* ---- the orbit store ----

   One fixed-width record per V₁ rotation-class representative: the
   canonical cycle minus its leading 0, coord_width bits per vertex,
   zero-padded to whole bytes, then one weight byte. A store is its
   records as one resident string, kept as one file under a
   content-addressed name in results/cache/arena (the spec string —
   format version, n, width — is the address, in the style of the
   harness result cache): a header line, then the records. A warm
   process reads the file whole instead of paying the enumeration scan,
   which is the dominant cold cost at n >= 12. *)
module Orbit = struct
  let max_n = orbit_max_n
  let min_n = 3
  let format_version = 2
  let default_root = Filename.concat (Filename.concat "results" "cache") "arena"

  type store = {
    n : int;
    width : int;  (* bits per vertex coordinate *)
    record_bytes : int;
    records : string;
    n_reps : int;
    total_weight : int;
    warm : bool;
  }

  let n_reps t = t.n_reps
  let total_weight t = t.total_weight
  let warm t = t.warm

  let spec ~n ~width = Printf.sprintf "arena-orbit|v%d|n=%d|width=%d" format_version n width

  let path_of ~root ~n ~width =
    let hash = String.sub (Digest.to_hex (Digest.string (spec ~n ~width))) 0 12 in
    Filename.concat root (Printf.sprintf "n%02d-%s.orbit" n hash)

  (* The header a store's file carries: its spec, record count, Σ weight
     and the records' CRC-32. A file is valid exactly when its first line
     is the header its records would be written with today. *)
  let header ~spec ~n_reps ~total_weight records =
    Printf.sprintf "%s reps=%d weight=%d crc=%08x" spec n_reps total_weight
      (Bcclb_util.Crc32.string records)

  (* Stdlib-only fs helper (core does not link unix). *)
  let rec mkdir_p path =
    if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path) then begin
      mkdir_p (Filename.dirname path);
      try Sys.mkdir path 0o755 with Sys_error _ -> ()
    end

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

  let get_bits s ~bitpos ~width =
    let v = ref 0 and got = ref 0 and p = ref bitpos in
    while !got < width do
      let byte = !p lsr 3 and off = !p land 7 in
      let take = min (width - !got) (8 - off) in
      let chunk = Char.code (String.unsafe_get s byte) lsr off land ((1 lsl take) - 1) in
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

  (* Decodes record [r] into [cyc] (length n, cyc.(0) stays 0); returns
     the weight. *)
  let decode_rep t ~r cyc =
    let base = r * t.record_bytes in
    for idx = 1 to t.n - 1 do
      cyc.(idx) <- get_bits t.records ~bitpos:((base * 8) + ((idx - 1) * t.width)) ~width:t.width
    done;
    Char.code t.records.[base + t.record_bytes - 1]

  (* The records of a valid file at [path], else None: missing,
     truncated, corrupt or of another spec all read as "not warm", and
     the caller rebuilds. *)
  let read_warm ~path ~spec ~record_bytes ~total_weight =
    match
      In_channel.with_open_bin path (fun ic ->
          let line = input_line ic in
          (line, really_input_string ic (in_channel_length ic - pos_in ic)))
    with
    | exception (Sys_error _ | End_of_file) -> None
    | line, records ->
      let n_reps = String.length records / record_bytes in
      if
        String.length records = n_reps * record_bytes
        && line = header ~spec ~n_reps ~total_weight records
      then Some records
      else None

  (* Branch-parallel enumeration: the slices over the second vertex
     partition V1, and concatenating them in branch order keeps the store
     order deterministic for any domain count. *)
  let enumerate ~n ~width ~record_bytes =
    let chunks =
      Bcclb_engine.Pool.map_batch
        (fun second ->
          let buf = Buffer.create (1 lsl 16) in
          let scratch = Bytes.create record_bytes in
          let wsum = ref 0 in
          Census.iter_one_cycle_orbits ~second ~n (fun seq ~weight ->
              encode_rep scratch ~n ~width ~record_bytes seq weight;
              Buffer.add_bytes buf scratch;
              wsum := !wsum + weight);
          (Buffer.contents buf, !wsum))
        (Array.init (n - 1) (fun i -> i + 1))
    in
    assert (Array.fold_left (fun acc (_, w) -> acc + w) 0 chunks = Census.num_one_cycles ~n);
    String.concat "" (Array.to_list (Array.map fst chunks))

  (* A build is written to a temporary file in the root and renamed over
     the store's path. The rename replaces the file in one step, so
     another domain or process opening it — or building it too, as procs
     workers do when a steal splits one n's cells — sees a whole store,
     old or new, never half of one; and builds are deterministic, so every
     racer publishes the same bytes. *)
  let publish ~root ~path ~header records =
    let tmp, oc =
      Filename.open_temp_file ~mode:[ Open_binary ] ~perms:0o644 ~temp_dir:root ".orbit-" ".tmp"
    in
    match
      output_string oc header;
      output_char oc '\n';
      output_string oc records;
      close_out oc;
      Sys.rename tmp path
    with
    | () -> ()
    | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

  let create ?(root = default_root) ~n:nn () =
    if nn < min_n || nn > max_n then
      invalid_arg
        (Printf.sprintf "Arena.Orbit.create: the orbit store supports %d <= n <= %d (got n = %d)"
           min_n max_n nn);
    let width = coord_width ~n:nn in
    let record_bytes = (((nn - 1) * width) + 7) / 8 + 1 in
    let spec = spec ~n:nn ~width in
    let path = path_of ~root ~n:nn ~width in
    let total_weight = Census.num_one_cycles ~n:nn in
    let records, warm =
      match read_warm ~path ~spec ~record_bytes ~total_weight with
      | Some records -> (records, true)
      | None ->
        ( Obs.span "arena.orbit.build" ~attrs:[ ("n", string_of_int nn) ] (fun () ->
              let records = enumerate ~n:nn ~width ~record_bytes in
              let n_reps = String.length records / record_bytes in
              Obs.Metrics.Counter.add orbit_reps_metric n_reps;
              mkdir_p root;
              publish ~root ~path ~header:(header ~spec ~n_reps ~total_weight records) records;
              records),
          false )
    in
    { n = nn;
      width;
      record_bytes;
      records;
      n_reps = String.length records / record_bytes;
      total_weight;
      warm }

  let iter_range t ~lo ~hi f =
    if lo < 0 || hi > t.n_reps || lo > hi then
      invalid_arg
        (Printf.sprintf "Arena.Orbit.iter_range: [%d, %d) is not a range of %d records" lo hi
           t.n_reps);
    let cyc = Array.make t.n 0 in
    for r = lo to hi - 1 do
      let weight = decode_rep t ~r cyc in
      f cyc ~weight
    done

  let iter t f = iter_range t ~lo:0 ~hi:t.n_reps f

  (* Shared per-(n, root) stores: the file makes reopening cheap, but
     in-process sharing also shares the resident records. *)
  let store_id : store array Type.Id.t = Type.Id.make ()

  let get ?(root = default_root) ~n () =
    memo store_id (Printf.sprintf "orbit|%d|%s" n root) (fun () -> create ~root ~n ())
end
