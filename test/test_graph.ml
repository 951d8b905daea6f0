open Bcclb_graph
module Rng = Bcclb_util.Rng
module Ggen = Gen

let test_union_find () =
  let uf = Union_find.create 6 in
  Alcotest.(check int) "initial components" 6 (Union_find.components uf);
  Alcotest.(check bool) "union works" true (Union_find.union uf 0 1);
  Alcotest.(check bool) "redundant union" false (Union_find.union uf 1 0);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 1 2);
  Alcotest.(check int) "components" 3 (Union_find.components uf);
  Alcotest.(check bool) "same" true (Union_find.same uf 0 3);
  Alcotest.(check bool) "not same" false (Union_find.same uf 0 4);
  Alcotest.(check (array int)) "labels" [| 0; 0; 0; 0; 4; 5 |] (Union_find.labels uf)

let test_graph_basics () =
  let g = Graph.of_edges ~n:5 [ (0, 1); (1, 2); (1, 0); (2, 0) ] in
  Alcotest.(check int) "n" 5 (Graph.n g);
  Alcotest.(check int) "m (dedup)" 3 (Graph.num_edges g);
  Alcotest.(check int) "deg 1" 2 (Graph.degree g 1);
  Alcotest.(check int) "deg 4" 0 (Graph.degree g 4);
  Alcotest.(check int) "max degree" 2 (Graph.max_degree g);
  Alcotest.(check bool) "edge" true (Graph.mem_edge g 0 2);
  Alcotest.(check bool) "no edge" false (Graph.mem_edge g 0 3);
  Alcotest.(check (list (pair int int))) "edges" [ (0, 1); (0, 2); (1, 2) ] (Graph.edges g);
  Alcotest.(check bool) "not connected" false (Graph.is_connected g);
  Alcotest.(check int) "components" 3 (Graph.num_components g);
  Alcotest.(check (array int)) "labels" [| 0; 0; 0; 3; 4 |] (Graph.components g)

let test_graph_invalid () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.of_edges: self-loop") (fun () ->
      ignore (Graph.of_edges ~n:3 [ (1, 1) ]));
  Alcotest.check_raises "out of range" (Invalid_argument "Graph.of_edges: endpoint out of range")
    (fun () -> ignore (Graph.of_edges ~n:3 [ (0, 3) ]))

let test_cycles_canonical () =
  let c1 = Cycles.canonical_cycle [| 2; 0; 4; 3 |] in
  (* Starts at 0, direction toward the smaller neighbour of 0 (2 vs 4). *)
  Alcotest.(check (array int)) "canonical" [| 0; 2; 3; 4 |] c1;
  (* All rotations/reflections canonicalise identically. *)
  let base = [| 0; 1; 4; 2; 3 |] in
  let refl = [| 0; 3; 2; 4; 1 |] in
  Alcotest.(check (array int)) "reflection" (Cycles.canonical_cycle base) (Cycles.canonical_cycle refl);
  let rot = [| 4; 2; 3; 0; 1 |] in
  Alcotest.(check (array int)) "rotation" (Cycles.canonical_cycle base) (Cycles.canonical_cycle rot)

let test_cycles_of_canonical () =
  let canonical = [ [| 0; 1; 5; 2 |]; [| 3; 4; 7; 6 |] ] in
  Alcotest.(check bool) "canonical input = make" true
    (Cycles.equal (Cycles.of_canonical canonical) (Cycles.make canonical));
  let refused what cycles =
    Alcotest.(check bool) what true
      (try
         ignore (Cycles.of_canonical cycles);
         false
       with Invalid_argument _ -> true)
  in
  refused "minimum not first" [ [| 1; 0; 2 |] ];
  refused "walks toward the larger neighbour" [ [| 0; 3; 2; 1 |] ];
  refused "second = last" [ [| 0; 1; 1 |] ];
  refused "overlapping cycles" [ [| 0; 1; 2 |]; [| 1; 3; 4 |] ];
  refused "repeated vertex" [ [| 0; 1; 2; 1; 3 |] ];
  refused "cycles out of order" [ [| 3; 4; 5 |]; [| 0; 1; 2 |] ];
  refused "too short" [ [| 0; 1 |] ];
  refused "vertex past the bitmask" [ [| 0; 1; Sys.int_size |] ]

let test_cycles_graph_roundtrip () =
  let s = Cycles.make [ [| 0; 1; 2 |]; [| 3; 5; 4 |] ] in
  Alcotest.(check int) "num cycles" 2 (Cycles.num_cycles s);
  Alcotest.(check int) "num vertices" 6 (Cycles.num_vertices s);
  Alcotest.(check (list int)) "lengths" [ 3; 3 ] (Cycles.lengths s);
  let g = Cycles.to_graph ~n:6 s in
  Alcotest.(check bool) "2-regular" true (Graph.is_regular g ~k:2);
  match Cycles.of_graph g with
  | None -> Alcotest.fail "decomposition failed"
  | Some s' -> Alcotest.(check bool) "roundtrip" true (Cycles.equal s s')

let test_cycles_of_graph_rejects () =
  let path = Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  Alcotest.(check bool) "path is not 2-regular" true (Cycles.of_graph path = None);
  Alcotest.check_raises "short cycle" (Invalid_argument "Cycles.canonical_cycle: length < 3")
    (fun () -> ignore (Cycles.make [ [| 0; 1 |] ]));
  Alcotest.check_raises "overlap" (Invalid_argument "Cycles.make: cycles are not disjoint") (fun () ->
      ignore (Cycles.make [ [| 0; 1; 2 |]; [| 2; 3; 4 |] ]))

let test_hopcroft_karp_basic () =
  (* Perfect matching on a 3x3 bipartite graph. *)
  let adj = [| [| 0; 1 |]; [| 0 |]; [| 1; 2 |] |] in
  let r = Hopcroft_karp.max_matching ~nl:3 ~nr:3 ~adj in
  Alcotest.(check int) "perfect" 3 r.size;
  (* pair consistency *)
  Array.iteri
    (fun u v -> if v >= 0 then Alcotest.(check int) "consistent" u r.pair_right.(v))
    r.pair_left;
  (* A graph where the max matching is 2: both left vertices fight over one right. *)
  let adj = [| [| 0 |]; [| 0 |]; [| 1 |] |] in
  let r = Hopcroft_karp.max_matching ~nl:3 ~nr:2 ~adj in
  Alcotest.(check int) "size 2" 2 r.size

let test_k_matching () =
  (* Each of 2 left vertices needs 2 private right vertices out of 4. *)
  let adj = [| [| 0; 1; 2 |]; [| 1; 2; 3 |] |] in
  (match Hopcroft_karp.k_matching ~k:2 ~nl:2 ~nr:4 ~adj with
  | None -> Alcotest.fail "k-matching should exist"
  | Some groups ->
    let all = Array.concat (Array.to_list groups) in
    let sorted = Array.copy all in
    Array.sort Int.compare sorted;
    let distinct = Array.length sorted = 4 && Array.for_all (fun x -> x >= 0) sorted in
    Alcotest.(check bool) "disjoint groups" true
      (distinct && sorted.(0) <> sorted.(1) && sorted.(1) <> sorted.(2) && sorted.(2) <> sorted.(3));
    Array.iteri
      (fun u group ->
        Array.iter (fun v -> Alcotest.(check bool) "edge exists" true (Array.mem v adj.(u))) group)
      groups);
  (* Impossible: 2 left vertices, k=2, but only 3 right vertices reachable. *)
  let adj = [| [| 0; 1 |]; [| 1; 2 |] |] in
  Alcotest.(check bool) "k-matching impossible" true
    (Hopcroft_karp.k_matching ~k:2 ~nl:2 ~nr:3 ~adj = None)

let test_generators () =
  let rng = Rng.create ~seed:5 in
  let g = Gen.cycle 7 in
  Alcotest.(check bool) "cycle connected" true (Graph.is_connected g);
  Alcotest.(check bool) "cycle 2-regular" true (Graph.is_regular g ~k:2);
  let g2 = Gen.random_two_cycles rng 10 in
  Alcotest.(check int) "two cycles" 2 (Graph.num_components g2);
  Alcotest.(check bool) "two cycles 2-regular" true (Graph.is_regular g2 ~k:2);
  let g3 = Gen.random_connected rng 30 in
  Alcotest.(check bool) "random connected" true (Graph.is_connected g3);
  let g4 = Gen.random_bounded_degree rng 30 3 in
  Alcotest.(check bool) "degree bound" true (Graph.max_degree g4 <= 3);
  let g5 = Gen.multicycle_of_lengths rng 12 [ 3; 4; 5 ] in
  Alcotest.(check int) "multicycle components" 3 (Graph.num_components g5);
  Alcotest.check_raises "bad lengths" (Invalid_argument "Gen.multicycle_of_lengths: lengths must sum to n")
    (fun () -> ignore (Gen.multicycle_of_lengths rng 10 [ 3; 4 ]))

(* Brute-force maximum matching for qcheck comparison. *)
let brute_force_matching ~nl ~nr ~adj =
  let used_right = Array.make nr false in
  let rec go u =
    if u = nl then 0
    else begin
      let skip = go (u + 1) in
      let best = ref skip in
      Array.iter
        (fun v ->
          if not used_right.(v) then begin
            used_right.(v) <- true;
            best := max !best (1 + go (u + 1));
            used_right.(v) <- false
          end)
        adj.(u);
      !best
    end
  in
  go 0

let suites =
  [ Alcotest.test_case "union find" `Quick test_union_find;
    Alcotest.test_case "graph basics" `Quick test_graph_basics;
    Alcotest.test_case "graph invalid" `Quick test_graph_invalid;
    Alcotest.test_case "cycles canonical" `Quick test_cycles_canonical;
    Alcotest.test_case "cycles of_canonical checks make's form" `Quick test_cycles_of_canonical;
    Alcotest.test_case "cycles roundtrip" `Quick test_cycles_graph_roundtrip;
    Alcotest.test_case "cycles rejects" `Quick test_cycles_of_graph_rejects;
    Alcotest.test_case "hopcroft-karp basic" `Quick test_hopcroft_karp_basic;
    Alcotest.test_case "k-matching" `Quick test_k_matching;
    Alcotest.test_case "generators" `Quick test_generators ]

let qsuites =
  let open QCheck2 in
  [ Test.make ~name:"components match union-find transitivity" ~count:200
      Gen.(pair (3 -- 15) (0 -- 100))
      (fun (n, seed) ->
        let rng = Rng.create ~seed in
        let g = Ggen.gnp rng n 0.3 in
        let labels = Graph.components g in
        List.for_all (fun (u, v) -> labels.(u) = labels.(v)) (Graph.edges g));
    Test.make ~name:"random cycle decomposes to one cycle" ~count:200
      Gen.(pair (3 -- 20) (0 -- 1000))
      (fun (n, seed) ->
        let rng = Rng.create ~seed in
        let g = Ggen.random_cycle rng n in
        match Cycles.of_graph g with Some s -> Cycles.num_cycles s = 1 | None -> false);
    Test.make ~name:"canonical cycle invariant under rotation" ~count:300
      Gen.(pair (3 -- 12) (0 -- 1000))
      (fun (n, seed) ->
        let rng = Rng.create ~seed in
        let perm = Rng.permutation rng n in
        let k = Rng.int rng n in
        let rotated = Bcclb_util.Arrayx.rotate_left perm k in
        Cycles.canonical_cycle perm = Cycles.canonical_cycle rotated);
    Test.make ~name:"canonical cycle invariant under reflection" ~count:300
      Gen.(pair (3 -- 12) (0 -- 1000))
      (fun (n, seed) ->
        let rng = Rng.create ~seed in
        let perm = Rng.permutation rng n in
        let refl = Array.copy perm in
        Bcclb_util.Arrayx.rev_in_place refl;
        Cycles.canonical_cycle perm = Cycles.canonical_cycle refl);
    Test.make ~name:"hopcroft-karp optimal vs brute force" ~count:100
      Gen.(pair (pair (1 -- 6) (1 -- 6)) (0 -- 10000))
      (fun ((nl, nr), seed) ->
        let rng = Rng.create ~seed in
        let adj =
          Array.init nl (fun _ ->
              let row = List.filter (fun _ -> Rng.bool rng) (Bcclb_util.Arrayx.range 0 nr) in
              Array.of_list row)
        in
        let hk = Hopcroft_karp.max_matching ~nl ~nr ~adj in
        hk.size = brute_force_matching ~nl ~nr ~adj);
    Test.make ~name:"k-matching refuses k*nl > nr by counting" ~count:200
      Gen.(triple (1 -- 4) (1 -- 8) (0 -- 10000))
      (fun (k, nl, seed) ->
        let rng = Rng.create ~seed in
        let nr = Rng.int rng (k * nl) in
        let adj =
          Array.init nl (fun _ ->
              Array.of_list (List.filter (fun _ -> Rng.bool rng) (Bcclb_util.Arrayx.range 0 nr)))
        in
        let blown_up = Array.init (k * nl) (fun i -> adj.(i / k)) in
        Hopcroft_karp.k_matching ~k ~nl ~nr ~adj = None
        && (Hopcroft_karp.max_matching ~nl:(k * nl) ~nr ~adj:blown_up).size < k * nl) ]
