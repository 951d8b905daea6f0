(* Tests for the rotation-orbit machinery: the census orbit enumerator,
   the arena atlas (rep_of/shift_of/flip_of), the segmented spillable
   store, Indist_graph on the rotation atlas, the orbit-reduced Quotient
   and Crossing_check sweeps, the anonymous adjacency-broadcast family
   they are sound for, and the Bits.Seq packed encoding under the
   store. *)

open Bcclb_core
module Cycles = Bcclb_graph.Cycles
module Rng = Bcclb_util.Rng
module Bits = Bcclb_util.Bits
module Crc32 = Bcclb_util.Crc32
module Instance = Bcclb_bcc.Instance
module Simulator = Bcclb_bcc.Simulator
module Algo = Bcclb_bcc.Algo

let anonymous ~rounds =
  Bcclb_algorithms.Adjacency_broadcast.connectivity_truncated ~rounds ~optimist:true

let id_reading ~rounds =
  Bcclb_algorithms.Discovery.connectivity_truncated ~knowledge:Instance.KT0 ~max_degree:2 ~rounds
    ~optimist:true

(* [with_root f]: [f] on a fresh scratch spill root, so store tests
   never touch the repo's results/ directory and never see a previous
   run's segments; the root is removed when [f] returns or raises. *)
let with_root =
  let counter = ref 0 in
  fun f ->
    incr counter;
    let root =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "bcclb-test-orbit-%d-%d" (Unix.getpid ()) !counter)
    in
    Fun.protect ~finally:(fun () -> Test_harness.rm_rf root) (fun () -> f root)

(* ---- census orbit enumerator ---- *)

let test_census_orbit_weights () =
  List.iter
    (fun n ->
      let total = ref 0 and reps = ref 0 in
      Census.iter_one_cycle_orbits ~n (fun seq ~weight ->
          let s = Cycles.of_canonical [ Array.copy seq ] in
          incr reps;
          total := !total + weight;
          Alcotest.(check bool) "rep flag" true (Census.is_orbit_rep ~n s);
          Alcotest.(check int) "weight = orbit size" weight (Census.orbit_size ~n s);
          Alcotest.(check bool) "rep is its own rep" true (Cycles.equal s (Census.orbit_rep ~n s)));
      Alcotest.(check int)
        (Printf.sprintf "weights sum to |V1| n=%d" n)
        (Census.num_one_cycles ~n) !total;
      Alcotest.(check bool) "fewer reps than instances" true (!reps < Census.num_one_cycles ~n))
    (* n = 3 has one instance, so it has no fewer reps than instances. *)
    [ 4; 5; 6; 7; 8; 9 ]

let test_census_orbit_partition () =
  (* Every census instance maps to exactly one representative, and the
     per-rep member counts reproduce the weights. *)
  let n = 7 in
  let members = Hashtbl.create 64 in
  Census.iter_one_cycles ~n (fun s ->
      let r = Census.orbit_rep ~n s in
      Hashtbl.replace members r (1 + Option.value ~default:0 (Hashtbl.find_opt members r)));
  Census.iter_one_cycle_orbits ~n (fun seq ~weight ->
      let s = Cycles.of_canonical [ Array.copy seq ] in
      Alcotest.(check (option int))
        "members = weight" (Some weight) (Hashtbl.find_opt members s);
      Hashtbl.remove members s);
  Alcotest.(check int) "no orphan classes" 0 (Hashtbl.length members)

(* ---- arena atlas ---- *)

let rotate_structure ~n c s =
  Cycles.make (List.map (Array.map (fun v -> (v + c) mod n)) (Cycles.cycles s))

let test_arena_orbit_atlas () =
  let n = 8 in
  let arena = Arena.create ~n in
  let o = Arena.orbit_one arena in
  Alcotest.(check int) "weights sum" (Arena.n_one arena)
    (Array.fold_left ( + ) 0 o.Arena.weights);
  (* Representatives are ascending handles, the smallest of their class. *)
  Array.iteri
    (fun i r ->
      if i > 0 then Alcotest.(check bool) "reps ascending" true (o.Arena.reps.(i - 1) < r);
      Alcotest.(check int) "rep maps to itself" i o.Arena.rep_of.(r);
      Alcotest.(check int) "rep shift 0" 0 o.Arena.shift_of.(r);
      Alcotest.(check bool) "rep unflipped" false o.Arena.flip_of.(r))
    o.Arena.reps;
  (* Every member is the rotation of its representative by its shift. *)
  Array.iteri
    (fun h s ->
      let rep = Arena.one_structure arena o.Arena.reps.(o.Arena.rep_of.(h)) in
      let c = o.Arena.shift_of.(h) in
      Alcotest.(check bool)
        (Printf.sprintf "member %d = rotate %d rep" h c)
        true
        (Cycles.equal s (rotate_structure ~n c rep)))
    (Arena.one_structures arena)

let test_arena_flip_of_orientation () =
  (* flip_of must mark exactly the members whose canonical traversal
     reverses the representative's: the member's canonical successor of
     vertex (0 - c) differs from the shifted image of the rep's
     successor of 0. Recompute independently and compare. *)
  let n = 8 in
  let arena = Arena.create ~n in
  let o = Arena.orbit_one arena in
  let flips = ref 0 in
  Array.iteri
    (fun h cyc ->
      let rep_cyc = Arena.one_cycle arena o.Arena.reps.(o.Arena.rep_of.(h)) in
      let c = o.Arena.shift_of.(h) in
      let k = Array.length rep_cyc in
      let pos = ref 0 in
      Array.iteri (fun i v -> if v = (n - c) mod n then pos := i) rep_cyc;
      let succ_in_rep = rep_cyc.((!pos + 1) mod k) in
      let expected_flip = cyc.(1) <> (succ_in_rep + c) mod n in
      Alcotest.(check bool) (Printf.sprintf "flip h=%d" h) expected_flip o.Arena.flip_of.(h);
      if o.Arena.flip_of.(h) then incr flips)
    (Array.init (Arena.n_one arena) (Arena.one_cycle arena));
  Alcotest.(check bool) "some members flip at n=8" true (!flips > 0)

(* ---- crossing and rotation keys against their definitions ---- *)

let qtest_cross_key_property =
  let open QCheck2 in
  Test.make ~name:"cross_key agrees with key_two of cross_one_cycle (all supported n)" ~count:300
    Gen.(pair (Arena.min_n -- Arena.max_n) (0 -- 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create ~seed in
      (* A random cycle through all n vertices, not necessarily canonical:
         the key functions must agree on raw traversals too, and on edge
         indices given in either order. *)
      let cyc = Rng.permutation rng n in
      let i = Rng.int rng n and j = Rng.int rng n in
      let d = abs (j - i) in
      if d < 3 || n - d < 3 then QCheck2.assume_fail ()
      else
        let expect = Arena.key_two (Census.cross_one_cycle cyc i j) in
        Arena.cross_key cyc i j = expect)

let test_cross_key_allocation_free () =
  (* Probes shaped like the bench kernel's: n = 9, both arcs >= 3, and
     i > j whenever the second index wraps. *)
  let n = 9 in
  let arena = Arena.get ~n in
  let rng = Rng.create ~seed:17 in
  let probes =
    Array.init 1000 (fun _ ->
        let i = Rng.int rng n in
        (Arena.one_cycle arena (Rng.int rng (Arena.n_one arena)), i, (i + 3 + Rng.int rng 4) mod n))
  in
  let sink = ref 0 in
  let probe () =
    for p = 0 to Array.length probes - 1 do
      let c, i, j = probes.(p) in
      sink := !sink lxor Arena.cross_key c i j
    done
  in
  probe ();
  let w0 = Gc.minor_words () in
  probe ();
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity !sink);
  Alcotest.(check (float 0.)) "minor words over 1000 probes" 0. words

(* The crossing lemma behind Quotient's pair count and Indist_graph's
   unsorted-but-distinct rows: crossing (i, j) deletes exactly the cycle
   edges eᵢ, eⱼ and adds two chords, so distinct crossable pairs of one
   cycle cross to distinct structures. Checked on every one-cycle at
   n = 6..9: its n(n-5)/2 crossable pairs have pairwise distinct keys
   (362,880 pairs at n = 9). *)
let test_crossings_distinct () =
  List.iter
    (fun n ->
      let pairs = n * (n - 5) / 2 in
      let keys = Array.make pairs 0 in
      Census.iter_one_cycles ~n (fun s ->
          let cyc = List.hd (Cycles.cycles s) in
          let m = ref 0 in
          for i = 0 to n - 1 do
            for j = i + 3 to n - 1 do
              if n - (j - i) >= 3 then begin
                keys.(!m) <- Arena.cross_key cyc i j;
                incr m
              end
            done
          done;
          if !m <> pairs then Alcotest.failf "n=%d: %d crossable pairs, want %d" n !m pairs;
          Array.sort Int.compare keys;
          for p = 1 to pairs - 1 do
            if keys.(p) = keys.(p - 1) then
              Alcotest.failf "n=%d: two crossings of one cycle reach one structure" n
          done))
    [ 6; 7; 8; 9 ]

let test_rotation_map_two_oracle () =
  List.iter
    (fun n ->
      let arena = Arena.create ~n in
      let two = Arena.two_structures arena in
      for c = 0 to n - 1 do
        let expect =
          Array.map (fun s -> Arena.two_handle arena ~key:(Arena.key_two (Census.rotate ~n c s))) two
        in
        Alcotest.(check (array int))
          (Printf.sprintf "n=%d c=%d" n c)
          expect (Arena.rotation_map_two arena c);
        Alcotest.(check bool)
          (Printf.sprintf "n=%d c=%d memoised" n c)
          true
          (Arena.rotation_map_two arena c == Arena.rotation_map_two arena (c + n))
      done)
    [ 6; 7; 8; 9 ]

(* ---- the one memo: every census memo is a Pool.shared key ---- *)

let counter name =
  match List.assoc_opt name (Bcclb_obs.Metrics.snapshot ()) with
  | Some (Bcclb_obs.Metrics.Counter c) -> c
  | _ -> 0

(* Two domains asking at once get one arena, and one store at a fresh
   root, built once. *)
let test_memo_two_domains () =
  let both f = Bcclb_engine.Pool.map_batch ~num_domains:2 (fun _ -> f ()) [| 0; 1 |] in
  let arenas = both (fun () -> Arena.get ~n:8) in
  Alcotest.(check bool) "one arena" true (arenas.(0) == arenas.(1));
  with_root @@ fun root ->
  let n = 9 in
  let reps0 = counter "arena.orbit.reps" in
  let stores = both (fun () -> Arena.Orbit.get ~root ~n ()) in
  Alcotest.(check bool) "one store" true (stores.(0) == stores.(1));
  Alcotest.(check int) "its representatives counted once" (Arena.Orbit.n_reps stores.(0))
    (counter "arena.orbit.reps" - reps0);
  Alcotest.(check bool) "a later get returns it" true (Arena.Orbit.get ~root ~n () == stores.(0))

(* An arena made with [create] keys its own batches: it computes what
   [get]'s arena does and shares none of it. *)
let test_memo_create_shares_nothing () =
  let n = 7 and algo = anonymous ~rounds:2 in
  let shared = Arena.get ~n and own = Arena.create ~n in
  let codes arena = fst (Arena.codes arena (Arena.atlas arena algo) algo) in
  let from_get = codes shared in
  let misses0 = counter "arena.memo_misses" in
  let from_create = codes own in
  Alcotest.(check int) "the created arena's codes are its own batch" 1
    (counter "arena.memo_misses" - misses0);
  Alcotest.(check bool) "equal codes" true (from_get = from_create);
  Alcotest.(check bool) "distinct batches" true (from_get != from_create);
  Alcotest.(check bool) "get's batch is kept" true (codes shared == from_get);
  Alcotest.(check bool) "distinct atlases" true (Arena.orbit_one shared != Arena.orbit_one own);
  Alcotest.(check bool) "distinct rotation maps" true
    (Arena.rotation_map_two shared 1 != Arena.rotation_map_two own 1)

(* ---- satellite 2: Hall witness on a constructed violation ---- *)

(* A hand-built G with three live left vertices over [right] right
   vertices. *)
let hall_graph ~right adj =
  let dummy = Cycles.make [ [| 0; 1; 2 |] ] in
  { Indist_graph.n = 3; x = "x"; y = "y"; v1 = Array.make 3 dummy; v2 = Array.make right dummy; adj }

let test_hall_witness () =
  (* Three live left vertices funneling into one of three right
     vertices: counting allows a 1-matching, but S = all three has
     |N(S)| = 1 < |S|, so Hall's condition fails and no 1-matching
     exists — found by the matching, not by counting. Dropping one
     funnel edge for a free right vertex leaves S = the other two
     violating. *)
  let funnel = hall_graph ~right:3 [| [| 0 |]; [| 0 |]; [| 0 |] |] in
  Alcotest.(check bool) "violated: no 1-matching" true (Indist_graph.k_matching funnel ~k:1 = None);
  let pair = hall_graph ~right:3 [| [| 0 |]; [| 0 |]; [| 1; 2 |] |] in
  Alcotest.(check bool) "pair violates: no 1-matching" true (Indist_graph.k_matching pair ~k:1 = None)

let test_hall_passes_when_satisfied () =
  (* A perfect matching satisfies Hall for k = 1, and the matching found
     is one: each live vertex gets k adjacent right vertices, disjoint
     across vertices. At k = 2 Hall fails on any single vertex. *)
  let g = hall_graph ~right:3 [| [| 0; 1 |]; [| 1; 2 |]; [| 2; 0 |] |] in
  (match Indist_graph.k_matching g ~k:1 with
  | None -> Alcotest.fail "Hall holds, so a 1-matching exists"
  | Some (live, groups) ->
    Alcotest.(check (array int)) "every vertex live" [| 0; 1; 2 |] live;
    let used = Array.concat (Array.to_list groups) in
    Alcotest.(check int) "one right vertex each" 3 (Array.length used);
    Alcotest.(check int) "disjoint" 3 (List.length (List.sort_uniq Int.compare (Array.to_list used)));
    Array.iteri
      (fun i group ->
        Array.iter
          (fun j -> Alcotest.(check bool) "adjacent" true (Array.mem j g.Indist_graph.adj.(live.(i))))
          group)
      groups);
  Alcotest.(check bool) "k=2 violated" true (Indist_graph.k_matching g ~k:2 = None)

(* ---- the segmented store: cold build, warm reopen, corruption ---- *)

let test_orbit_store_cold_warm () =
  with_root @@ fun root ->
  let n = 8 in
  let cold = Arena.Orbit.create ~root ~n () in
  Alcotest.(check bool) "cold build" false (Arena.Orbit.warm cold);
  Alcotest.(check int) "total weight = |V1|" (Census.num_one_cycles ~n)
    (Arena.Orbit.total_weight cold);
  let arena = Arena.create ~n in
  let atlas = Arena.orbit_one arena in
  Alcotest.(check int) "n_reps matches atlas" (Array.length atlas.Arena.reps)
    (Arena.Orbit.n_reps cold);
  (* Streamed records are the representatives' cycles, census order. *)
  let i = ref 0 in
  Arena.Orbit.iter cold (fun cyc ~weight ->
      let r = !i in
      incr i;
      Alcotest.(check bool)
        (Printf.sprintf "rep %d cycle" r)
        true
        (cyc = Arena.one_cycle arena atlas.Arena.reps.(r));
      Alcotest.(check int) (Printf.sprintf "rep %d weight" r) atlas.Arena.weights.(r) weight);
  Alcotest.(check int) "streamed all reps" (Arena.Orbit.n_reps cold) !i;
  (* A second open of the same root must come back warm with identical
     content (byte-for-byte segments, so just recheck the stream). *)
  let warm = Arena.Orbit.create ~root ~n () in
  Alcotest.(check bool) "warm reopen" true (Arena.Orbit.warm warm);
  Alcotest.(check int) "warm n_reps" (Arena.Orbit.n_reps cold) (Arena.Orbit.n_reps warm);
  let j = ref 0 in
  Arena.Orbit.iter warm (fun cyc ~weight ->
      let r = !j in
      incr j;
      Alcotest.(check bool) "warm cycle" true (cyc = Arena.one_cycle arena atlas.Arena.reps.(r));
      Alcotest.(check int) "warm weight" atlas.Arena.weights.(r) weight);
  Alcotest.(check int) "warm streamed all" !i !j

let test_orbit_store_corruption () =
  (* Flipping a byte in a segment must not produce silently wrong
     records: the CRC check forces a rebuild (cold, correct content). *)
  with_root @@ fun root ->
  let n = 7 in
  let s0 = Arena.Orbit.create ~root ~n () in
  let reps = Arena.Orbit.n_reps s0 in
  let seg =
    let rec find dir =
      Array.fold_left
        (fun acc name ->
          let p = Filename.concat dir name in
          if Sys.is_directory p then (match acc with None -> find p | some -> some)
          else if Filename.check_suffix name ".bin" then Some p
          else acc)
        None (Sys.readdir dir)
    in
    match find root with
    | Some p -> p
    | None -> Alcotest.fail "no segment file under the spill root"
  in
  let ic = open_in_bin seg in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  let corrupted = Bytes.of_string body in
  Bytes.set corrupted (len / 2) (Char.chr (Char.code (Bytes.get corrupted (len / 2)) lxor 0xff));
  let oc = open_out_bin seg in
  output_bytes oc corrupted;
  close_out oc;
  (* A byte flip preserves the sizes the warm open checks, so the reopen
     succeeds — but the lazy CRC at first load must refuse to stream
     corrupt records and wipe the store for the next open to rebuild. *)
  let reopened = Arena.Orbit.create ~root ~n () in
  Alcotest.(check bool) "size-preserving corruption opens warm" true (Arena.Orbit.warm reopened);
  Alcotest.(check bool) "iteration detects the bad checksum" true
    (try
       Arena.Orbit.iter reopened (fun _ ~weight:_ -> ());
       false
     with Failure _ -> true);
  let rebuilt = Arena.Orbit.create ~root ~n () in
  Alcotest.(check bool) "rebuild is cold" false (Arena.Orbit.warm rebuilt);
  Alcotest.(check int) "rebuilt rep count" reps (Arena.Orbit.n_reps rebuilt);
  Alcotest.(check int) "rebuilt weight" (Census.num_one_cycles ~n)
    (Arena.Orbit.total_weight rebuilt)

(* Several builders of one store at once, as two procs workers are when a
   steal splits one n's cells: each racer must come away with a complete
   store, and the root must end up holding one that reopens warm. *)
let test_orbit_store_concurrent_builds () =
  let n = 8 and racers = 4 in
  for _ = 1 to 12 do
    with_root @@ fun root ->
    List.init racers (fun _ ->
        Domain.spawn (fun () ->
            try Ok (Arena.Orbit.create ~root ~n ()) with e -> Error (Printexc.to_string e)))
    |> List.map Domain.join
    |> List.iter (function
         | Error e -> Alcotest.failf "a racer's create raised %s" e
         | Ok store ->
           let sum = ref 0 in
           Arena.Orbit.iter store (fun _ ~weight -> sum := !sum + weight);
           Alcotest.(check int) "racer's weights sum to total_weight"
             (Arena.Orbit.total_weight store) !sum);
    Alcotest.(check bool) "a later open is warm" true
      (Arena.Orbit.warm (Arena.Orbit.create ~root ~n ()))
  done

(* ---- Bits.Seq packed round-trip + CRC vector (the segment codec) ---- *)

let qtest_seq_packed_roundtrip =
  let open QCheck2 in
  Test.make ~name:"Bits.Seq packed string round-trips" ~count:300
    Gen.(pair (0 -- 130) (0 -- 1_000_000))
    (fun (len, seed) ->
      let rng = Rng.create ~seed in
      let s = Bits.Seq.create () in
      for _ = 1 to len do
        Bits.Seq.append_bit s (Rng.bool rng)
      done;
      let packed = Bits.Seq.to_packed_string s in
      String.length packed = ((len + 7) / 8)
      && Bits.Seq.equal s (Bits.Seq.of_packed_string ~len packed))

let test_crc32_vector () =
  (* The standard CRC-32 check value. *)
  Alcotest.(check int) "crc32(123456789)" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "sub agrees" (Crc32.string "456") (Crc32.string_sub "123456789" 3 3)

(* ---- the anonymous family: correctness + rotation equivariance ---- *)

let test_adjacency_broadcast_exact () =
  let n = 7 in
  let algo = Bcclb_algorithms.Adjacency_broadcast.connectivity () in
  Alcotest.(check bool) "declared anonymous" true (Algo.anonymous algo);
  let r = Hard_distribution.exact_error algo ~n in
  Alcotest.(check bool) "exact on the hard distribution" true
    (Bcclb_bignum.Ratio.is_zero r.Hard_distribution.error)

let test_adjacency_broadcast_rotation_equivariant () =
  (* sent_{rho_c(G)}(v + c) = sent_G(v) on the circulant wiring: the
     property every orbit-reduced path rests on, checked by execution
     over random cycles, shifts and depths. *)
  let n = 8 in
  let rng = Rng.create ~seed:91 in
  List.iter
    (fun t ->
      let algo = anonymous ~rounds:t in
      for _ = 1 to 10 do
        let perm = Rng.permutation rng n in
        let c = 1 + Rng.int rng (n - 1) in
        let rotated = Array.map (fun v -> (v + c) mod n) perm in
        let sent g = Simulator.run_sent_codes algo (Instance.kt0_circulant (Cycles.to_graph ~n (Cycles.make [ g ]))) in
        let base = sent perm and rot = sent rotated in
        for v = 0 to n - 1 do
          Alcotest.(check int)
            (Printf.sprintf "t=%d c=%d v=%d" t c v)
            base.(v)
            rot.((v + c) mod n)
        done
      done)
    [ 0; 1; 2; 3 ]

let test_id_reading_not_equivariant_gate () =
  (* The soundness gate: the ID-reading family must NOT get the rotation
     atlas at t >= 1, while t = 0 and the anonymous family do. *)
  let n = 8 in
  let arena = Arena.get ~n in
  let rotations algo = match Arena.atlas arena algo with Arena.Rotations _ -> true | Instances -> false in
  List.iter
    (fun (what, algo, sound) ->
      Alcotest.(check bool) (what ^ " rotation_sound") sound (Arena.rotation_sound algo ~n);
      Alcotest.(check bool) (what ^ " gets the rotation atlas") sound (rotations algo))
    [ ("anonymous t=3", anonymous ~rounds:3, true);
      ("id-reading t=0", id_reading ~rounds:0, true);
      ("id-reading t=1", id_reading ~rounds:1, false) ]

(* ---- Indist_graph on the rotation atlas ---- *)

(* The orbit build (rows from rotation-class representatives, expanded
   to every member) against the per-instance build, here the string-label
   oracle, which executes every instance on its own. *)
let require_rotations ~n algo =
  match Arena.atlas (Arena.get ~n) algo with
  | Arena.Rotations _ -> ()
  | Instances -> Alcotest.fail "anonymous algorithm on the per-instance atlas"

let test_build_orbit_parity () =
  let n = 8 in
  List.iter
    (fun t ->
      let algo = anonymous ~rounds:t in
      require_rotations ~n algo;
      let o = Indist_graph.build algo ~n () in
      let p = Indist_oracle.build algo ~n () in
      Alcotest.(check string) (Printf.sprintf "x t=%d" t) p.Indist_graph.x o.Indist_graph.x;
      Alcotest.(check string) (Printf.sprintf "y t=%d" t) p.Indist_graph.y o.Indist_graph.y;
      Alcotest.(check bool) (Printf.sprintf "adj t=%d" t) true (o.Indist_graph.adj = p.Indist_graph.adj);
      Alcotest.(check bool) (Printf.sprintf "radj t=%d" t) true
        (Indist_oracle.transpose o = Indist_oracle.transpose p))
    (* t=3 has x <> y at n=8, exercising the orientation-flip row swap. *)
    [ 0; 1; 3 ]

let test_build_full_orbit_parity () =
  let n = 8 in
  List.iter
    (fun t ->
      let algo = anonymous ~rounds:t in
      require_rotations ~n algo;
      let o = Indist_graph.build_full algo ~n () in
      let p = Indist_oracle.build_full algo ~n () in
      Alcotest.(check bool) (Printf.sprintf "adj t=%d" t) true (o.Indist_graph.adj = p.Indist_graph.adj);
      Alcotest.(check bool) (Printf.sprintf "radj t=%d" t) true
        (Indist_oracle.transpose o = Indist_oracle.transpose p))
    [ 0; 2; 3 ]

(* Member h's labelled ((x, y)-active) and full (same-label) rows from
   its own execution — what a per-instance computation gives, written
   out here independently of the library's expansion. *)
let own_rows arena stamp algo ~xy h =
  let n = Arena.n arena in
  let cyc = Arena.one_cycle arena h in
  let sent = Simulator.run_sent_codes algo (stamp [ cyc ]) in
  let label i = (sent.(cyc.(i)), sent.(cyc.((i + 1) mod n))) in
  let labelled = ref [] and full = ref [] in
  for i = 0 to n - 1 do
    for j = i + 3 to n - 1 do
      if n - (j - i) >= 3 then begin
        let h2 = Arena.cross_handle arena cyc i j in
        if label i = label j then full := h2 :: !full;
        if label i = xy && label j = xy then labelled := h2 :: !labelled
      end
    done
  done;
  let row l = Array.of_list (List.sort_uniq Int.compare l) in
  (row !labelled, row !full, label)

(* Compare the rotation-atlas builds against [own_rows] on [members];
   returns the members' edge-label counts. *)
let check_members ~n ~t members =
  let arena = Arena.get ~n in
  let algo = anonymous ~rounds:t in
  let g = Indist_graph.build algo ~n () and f = Indist_graph.build_full algo ~n () in
  let xy = (Labels.code_of_string g.Indist_graph.x, Labels.code_of_string g.Indist_graph.y) in
  let counts = Hashtbl.create 64 in
  (* The circulant wiring of Census.to_instance, built once. *)
  let stamp = Instance.kt0_circulant_sweep n in
  List.iter
    (fun h ->
      let labelled, full, label = own_rows arena stamp algo ~xy h in
      (* Plain comparisons: an Alcotest check per member would log
         hundreds of thousands of lines. *)
      if labelled <> g.Indist_graph.adj.(h) then Alcotest.failf "n=%d t=%d: labelled row of member %d" n t h;
      if full <> f.Indist_graph.adj.(h) then Alcotest.failf "n=%d t=%d: full row of member %d" n t h;
      for i = 0 to n - 1 do
        Hashtbl.replace counts (label i) (1 + Option.value ~default:0 (Hashtbl.find_opt counts (label i)))
      done)
    members;
  (xy, counts)

let test_rotation_atlas_exhaustive () =
  List.iter
    (fun n ->
      List.iter
        (fun t ->
          let xy, counts = check_members ~n ~t (List.init (Census.num_one_cycles ~n) Fun.id) in
          (* The weighted label count picks a most frequent label of the
             whole census. *)
          Alcotest.(check int)
            (Printf.sprintf "n=%d t=%d (x, y) is a most frequent label" n t)
            (Hashtbl.fold (fun _ c acc -> max c acc) counts 0)
            (Hashtbl.find counts xy))
        (* At n = 8, t = 3 has x <> y: flipped members read the
           representative's (y, x) row. *)
        [ 0; 2; 3 ])
    [ 8; 9 ]

(* n = 10 is too slow to check exhaustively: sample up to two members
   per (rotation shift, orientation), in a seeded random order over V₁,
   so that every shift and both orientations occur. *)
let test_rotation_atlas_sampled () =
  let n = 10 in
  let o = Arena.orbit_one (Arena.get ~n) in
  let taken = Hashtbl.create 32 and members = ref [] in
  Array.iter
    (fun h ->
      let key = (o.Arena.shift_of.(h), o.Arena.flip_of.(h)) in
      let k = Option.value ~default:0 (Hashtbl.find_opt taken key) in
      if k < 2 then begin
        Hashtbl.replace taken key (k + 1);
        members := h :: !members
      end)
    (Rng.permutation (Rng.create ~seed:10) (Census.num_one_cycles ~n));
  Alcotest.(check bool) "representatives sampled" true (Hashtbl.mem taken (0, false));
  for c = 1 to n - 1 do
    List.iter
      (fun flip ->
        Alcotest.(check bool) (Printf.sprintf "shift %d flip %b sampled" c flip) true
          (Hashtbl.mem taken (c, flip)))
      [ false; true ]
  done;
  ignore (check_members ~n ~t:3 !members)

(* Rows checked on their own, not against another computation: both
   builds on both atlases end in the same row sort and dedup. The V₂
   side is the oracle's transpose of those rows. *)
let check_rows what (g : Indist_graph.t) =
  let radj = Indist_oracle.transpose g in
  let increasing row =
    let ok = ref true in
    Array.iteri (fun i v -> if i > 0 && row.(i - 1) >= v then ok := false) row;
    !ok
  in
  Array.iteri
    (fun i row -> if not (increasing row) then Alcotest.failf "%s: adj.(%d) not increasing" what i)
    g.adj;
  Array.iteri
    (fun i row -> if not (increasing row) then Alcotest.failf "%s: radj.(%d) not increasing" what i)
    radj;
  (* With rows strictly increasing, equal totals and adj ⊆ radj⁻¹ make
     the two relations equal. *)
  let total rows = Array.fold_left (fun acc r -> acc + Array.length r) 0 rows in
  Alcotest.(check int) (what ^ ": |adj| = |radj|") (total g.adj) (total radj);
  Array.iteri
    (fun i1 row ->
      Array.iter
        (fun i2 ->
          if not (Array.mem i1 radj.(i2)) then
            Alcotest.failf "%s: (%d, %d) in adj but %d not in radj.(%d)" what i1 i2 i1 i2)
        row)
    g.adj

let test_indist_rows_every_path () =
  List.iter
    (fun n ->
      List.iter
        (fun t ->
          List.iter
            (fun (atlas, algo) ->
              check_rows (Printf.sprintf "build %s n=%d t=%d" atlas n t) (Indist_graph.build algo ~n ());
              check_rows
                (Printf.sprintf "build_full %s n=%d t=%d" atlas n t)
                (Indist_graph.build_full algo ~n ()))
            [ ("rotations", anonymous ~rounds:t); ("instances", id_reading ~rounds:t) ])
        [ 0; 1; 2; 3 ])
    [ 6; 7; 8 ]

let test_build_dispatch_through_orbit () =
  (* The public build_full must route the anonymous family through the
     rotation atlas and still agree with the string-label oracle. *)
  let n = 7 in
  let algo = anonymous ~rounds:2 in
  require_rotations ~n algo;
  let g = Indist_graph.build_full algo ~n () in
  let r = Indist_oracle.build_full algo ~n () in
  Alcotest.(check bool) "dispatch parity" true (g.Indist_graph.adj = r.Indist_graph.adj)

(* ---- quotient streaming parity ---- *)

let test_quotient_parity () =
  with_root @@ fun root ->
  List.iter
    (fun (n, t) ->
      let algo = anonymous ~rounds:t in
      let s = Quotient.full_stats ~root algo ~n () in
      let g = Indist_graph.build_full algo ~n () in
      let degrees = Array.map Array.length g.Indist_graph.adj in
      let at what = Printf.sprintf "%s n=%d t=%d" what n t in
      (* The t-round stats read off the shared depth-3 stream are the
         t-round stream's own. *)
      Alcotest.(check bool) (at "deepest = 3 gives deepest = t's stats") true
        (Quotient.full_stats ~root ~deepest:3 algo ~n () = s);
      Alcotest.(check int) (at "v1") (Census.num_one_cycles ~n) s.Quotient.v1;
      Alcotest.(check int) (at "v2") (Array.length g.Indist_graph.v2) s.Quotient.v2;
      Alcotest.(check int) (at "edges") (Indist_graph.num_edges g) s.Quotient.edges;
      Alcotest.(check int) (at "isolated")
        (Array.fold_left (fun acc d -> if d = 0 then acc + 1 else acc) 0 degrees)
        s.Quotient.isolated_v1;
      Alcotest.(check int) (at "max degree") (Array.fold_left max 0 degrees) s.Quotient.max_degree_v1;
      Alcotest.(check int) (at "min live degree")
        (Array.fold_left (fun acc d -> if d > 0 && (acc = 0 || d < acc) then d else acc) 0 degrees)
        s.Quotient.min_live_degree;
      let by_smaller = Array.make ((n / 2) + 1) 0 in
      Array.iter
        (Array.iter (fun i2 ->
             let i = List.fold_left min n (Cycles.lengths g.Indist_graph.v2.(i2)) in
             by_smaller.(i) <- by_smaller.(i) + 1))
        g.Indist_graph.adj;
      Alcotest.(check (list (pair int int)))
        (at "edges by smaller cycle")
        (List.filter (fun (_, c) -> c > 0) (List.mapi (fun i c -> (i, c)) (Array.to_list by_smaller)))
        s.Quotient.edges_by_smaller;
      (* Closed-form |T_i| agrees with the census-level counts. *)
      List.iter
        (fun (i, c) ->
          Alcotest.(check (option int)) (at (Printf.sprintf "T_%d" i)) (Some c)
            (List.assoc_opt i s.Quotient.t_i))
        (Census.t_i_counts ~n))
    (* Every truncation E2's orbit frontier runs, t = 0..3. *)
    (List.concat_map (fun n -> List.map (fun t -> (n, t)) [ 0; 1; 2; 3 ]) [ 7; 8 ])

(* ---- one execution serves every truncation ---- *)

(* The t-round codes of both E2 families are the low 2t bits of the
   3-round member's, instance by instance; Arena.codes hands out exactly
   that pair (deep codes, mask); and a deeper member that reads IDs where
   the cell's own algorithm computes on rotation classes is not used. *)
let test_deep_codes_prefix () =
  List.iter
    (fun (family, make) ->
      List.iter
        (fun n ->
          let deep = make ~rounds:3 in
          let deep_codes =
            Array.map
              (fun s -> Simulator.run_sent_codes deep (Census.to_instance s ~n))
              (Census.one_cycles ~n)
          in
          let arena = Arena.create ~n in
          for t = 0 to 3 do
            let algo = make ~rounds:t in
            let at what = Printf.sprintf "%s n=%d t=%d: %s" family n t what in
            (match Algo.deepen ~rounds:3 algo with
            | Some d ->
              Alcotest.(check string) (at "deepen names the member") (Algo.name deep) (Algo.name d)
            | None -> Alcotest.fail (at "a truncation deepens"));
            let mask = (1 lsl (2 * t)) - 1 in
            Array.iteri
              (fun h s ->
                let direct = Simulator.run_sent_codes algo (Census.to_instance s ~n) in
                if Array.map (fun c -> c land mask) deep_codes.(h) <> direct then
                  Alcotest.failf "%s: instance %d differs from the masked deep codes"
                    (at "prefix") h)
              (Census.one_cycles ~n);
            let atlas = Arena.atlas arena algo in
            let own, own_mask = Arena.codes arena atlas algo in
            let shared, shared_mask = Arena.codes arena atlas ~deepest:3 algo in
            Alcotest.(check (pair int int))
              (at "masks select t rounds") (mask, mask) (own_mask, shared_mask);
            Alcotest.(check bool) (at "Arena.codes: masked deep codes = own codes") true
              (Array.map (Array.map (fun c -> c land shared_mask)) shared = own);
            (* Discovery at t = 0 computes on rotation classes; its t = 3
               member reads IDs, so it keeps its own execution. *)
            let rotation_sound = Arena.rotation_sound algo ~n in
            let deep_sound = Arena.rotation_sound deep ~n in
            Alcotest.(check bool) (at "deep source only on the same atlas") true
              (Algo.name (Arena.code_source ~deepest:3 algo ~n)
               = if t < 3 && rotation_sound = deep_sound then Algo.name deep else Algo.name algo)
          done)
        [ 6; 7; 8 ])
    [ ("discovery", id_reading); ("adjacency broadcast", anonymous) ]

let test_quotient_rejects_unsound () =
  with_root @@ fun root ->
  Alcotest.(check bool) "raises on id-reading t>=1" true
    (try
       ignore (Quotient.full_stats ~root (id_reading ~rounds:2) ~n:7 ());
       false
     with Invalid_argument _ -> true)

(* ---- check_reps: weighted census sweep ---- *)

let test_check_reps_weighted () =
  let n = 7 in
  List.iter
    (fun t ->
      let algo = anonymous ~rounds:t in
      let r = Crossing_check.check_reps ~verify:(`Sampled 0) algo ~n in
      Alcotest.(check int) (Printf.sprintf "instances t=%d" t) (Census.num_one_cycles ~n)
        r.Crossing_check.instances;
      Alcotest.(check int) (Printf.sprintf "violations t=%d" t) 0 r.Crossing_check.violations;
      (* Weighted crossable count = |V1| * n(n-5)/2 per the t=0 degree
         census (independent same-orientation pairs, both arcs >= 3). *)
      Alcotest.(check int)
        (Printf.sprintf "crossable weighted t=%d" t)
        (Census.num_one_cycles ~n * (n * (n - 5) / 2))
        r.Crossing_check.crossable_pairs;
      let sampled = Crossing_check.check_reps ~verify:(`Sampled 4) algo ~n in
      Alcotest.(check int) "sampled agrees on crossable" r.Crossing_check.crossable_pairs
        sampled.Crossing_check.crossable_pairs;
      Alcotest.(check int) "sampled agrees on same-label" r.Crossing_check.same_label_pairs
        sampled.Crossing_check.same_label_pairs;
      Alcotest.(check int) "sampled sees no violations" 0 sampled.Crossing_check.violations;
      Alcotest.(check bool) "execution is per-rep" true
        (sampled.Crossing_check.executed < Census.num_one_cycles ~n))
    [ 0; 2 ]

(* The weighted sweep against per-instance totals: every V₁ instance
   executed on its own, every independent pair crossed and compared. *)
let test_check_reps_per_instance_totals () =
  let n = 7 in
  List.iter
    (fun (what, algo) ->
      let crossable = ref 0 and same_label = ref 0 and indist = ref 0 and violations = ref 0 in
      Census.iter_one_cycles ~n (fun s ->
          let inst = Census.to_instance s ~n in
          let base = Simulator.run algo inst in
          let sent v = Bcclb_bcc.Transcript.sent_string base.Simulator.transcripts.(v) in
          let cyc = List.hd (Cycles.cycles s) in
          let edge i = (cyc.(i), cyc.((i + 1) mod n)) in
          for i = 0 to n - 1 do
            for j = i + 1 to n - 1 do
              let (v1, u1) = edge i and (v2, u2) = edge j in
              if Instance.independent inst (v1, u1) (v2, u2) then begin
                incr crossable;
                if sent v1 = sent v2 && sent u1 = sent u2 then begin
                  incr same_label;
                  let crossed = Instance.cross inst (v1, u1) (v2, u2) in
                  if Simulator.indistinguishable_from base crossed (Simulator.run algo crossed) then
                    incr indist
                  else incr violations
                end
              end
            done
          done);
      let r = Crossing_check.check_reps ~verify:`All algo ~n in
      Alcotest.(check int) (what ^ " instances") 360 r.Crossing_check.instances;
      Alcotest.(check int) (what ^ " crossable") !crossable r.Crossing_check.crossable_pairs;
      Alcotest.(check int) (what ^ " same-label") !same_label r.Crossing_check.same_label_pairs;
      Alcotest.(check int) (what ^ " indistinguishable") !indist r.Crossing_check.indistinguishable;
      Alcotest.(check int) (what ^ " violations") !violations r.Crossing_check.violations)
    [ ("anonymous t=2", anonymous ~rounds:2); ("id-reading t=0", id_reading ~rounds:0) ]

let test_check_reps_rejects_unsound () =
  Alcotest.(check bool) "raises on id-reading t>=1" true
    (try
       ignore (Crossing_check.check_reps (id_reading ~rounds:1) ~n:7);
       false
     with Invalid_argument _ -> true)

let suites =
  [ Alcotest.test_case "census orbit weights" `Quick test_census_orbit_weights;
    Alcotest.test_case "census orbit partition" `Quick test_census_orbit_partition;
    Alcotest.test_case "arena orbit atlas" `Quick test_arena_orbit_atlas;
    Alcotest.test_case "arena flip_of orientation" `Quick test_arena_flip_of_orientation;
    Alcotest.test_case "cross_key allocates nothing" `Quick test_cross_key_allocation_free;
    Alcotest.test_case "crossable pairs cross to distinct structures, n=6..9" `Quick
      test_crossings_distinct;
    Alcotest.test_case "rotation_map_two = rotate oracle" `Quick test_rotation_map_two_oracle;
    Alcotest.test_case "memo: two domains share one arena and one store" `Quick
      test_memo_two_domains;
    Alcotest.test_case "memo: a created arena shares no batch" `Quick
      test_memo_create_shares_nothing;
    Alcotest.test_case "Hall witness violates" `Quick test_hall_witness;
    Alcotest.test_case "Hall holds on matching" `Quick test_hall_passes_when_satisfied;
    Alcotest.test_case "orbit store cold/warm" `Quick test_orbit_store_cold_warm;
    Alcotest.test_case "orbit store corruption" `Quick test_orbit_store_corruption;
    Alcotest.test_case "orbit store concurrent builds" `Quick test_orbit_store_concurrent_builds;
    Alcotest.test_case "crc32 vector" `Quick test_crc32_vector;
    Alcotest.test_case "adjacency broadcast exact" `Slow test_adjacency_broadcast_exact;
    Alcotest.test_case "rotation equivariance" `Slow test_adjacency_broadcast_rotation_equivariant;
    Alcotest.test_case "orbit applicability gate" `Quick test_id_reading_not_equivariant_gate;
    Alcotest.test_case "build_orbit = build_packed" `Slow test_build_orbit_parity;
    Alcotest.test_case "build_full_orbit = build_full_packed" `Slow test_build_full_orbit_parity;
    Alcotest.test_case "rotation atlas = own rows, n=8,9" `Slow test_rotation_atlas_exhaustive;
    Alcotest.test_case "rotation atlas sampled rows, n=10" `Slow test_rotation_atlas_sampled;
    Alcotest.test_case "indist rows sorted, transposed" `Slow test_indist_rows_every_path;
    Alcotest.test_case "dispatch routes orbit" `Slow test_build_dispatch_through_orbit;
    Alcotest.test_case "quotient streaming parity" `Slow test_quotient_parity;
    Alcotest.test_case "t-round codes = deep codes masked, n=6..8" `Slow test_deep_codes_prefix;
    Alcotest.test_case "quotient soundness gate" `Quick test_quotient_rejects_unsound;
    Alcotest.test_case "check_reps weighted sweep" `Slow test_check_reps_weighted;
    Alcotest.test_case "check_reps = per-instance totals" `Slow test_check_reps_per_instance_totals;
    Alcotest.test_case "check_reps soundness gate" `Quick test_check_reps_rejects_unsound ]

let qsuites = [ qtest_cross_key_property; qtest_seq_packed_roundtrip ]
