(* The lock-free union-find against its sequential parity oracle: the
   same union sequence must yield the same verdicts, component counts
   and canonical partition whether it runs on the CAS-based Ufind (1 or
   4 domains) or the plain DSU. Conn, every component decision in the
   repository, is Ufind; the DSU is only this oracle (and Mst's). *)

module Ufind = Bcclb_ufind.Ufind
module Union_find = Bcclb_graph.Union_find
module Rng = Bcclb_util.Rng

let random_edges rng ~n ~m =
  let edges = Array.make m (0, 0) in
  for i = 0 to m - 1 do
    let u = Rng.int rng n in
    let v = Rng.int rng n in
    edges.(i) <- (u, v)
  done;
  edges

let dsu_labels ~n edges =
  let uf = Union_find.create n in
  Array.iter (fun (u, v) -> ignore (Union_find.union uf u v)) edges;
  Union_find.labels uf

let check_ok what u =
  match Ufind.check_invariants u with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: invariants violated: %s" what m

(* ---- sequential semantics ---- *)

let test_basic () =
  let u = Ufind.create 6 in
  Alcotest.(check int) "size" 6 (Ufind.size u);
  Alcotest.(check int) "initially discrete" 6 (Ufind.components u);
  Alcotest.(check bool) "union merges" true (Ufind.union u 0 1);
  Alcotest.(check bool) "union is idempotent" false (Ufind.union u 0 1);
  Alcotest.(check bool) "symmetric repeat is idempotent" false (Ufind.union u 1 0);
  Alcotest.(check bool) "same_set sees the merge" true (Ufind.same_set u 1 0);
  Alcotest.(check bool) "others untouched" false (Ufind.same_set u 0 2);
  ignore (Ufind.union u 2 3);
  ignore (Ufind.union u 1 3);
  Alcotest.(check int) "three components" 3 (Ufind.components u);
  Alcotest.(check (array int)) "smallest-member labels" [| 0; 0; 0; 0; 4; 5 |] (Ufind.labels u);
  Alcotest.(check bool) "self union never merges" false (Ufind.union u 4 4);
  check_ok "basic" u

let test_of_edges () =
  let edges = [| (0, 1); (1, 2); (4, 5); (2, 0) |] in
  let u = Ufind.of_edges ~n:7 edges in
  Alcotest.(check (array int)) "of_edges labels" [| 0; 0; 0; 3; 4; 4; 6 |] (Ufind.labels u);
  Alcotest.(check int) "of_edges components" 4 (Ufind.components u);
  check_ok "of_edges" u

(* After enough finds every non-root points within one hop of its root
   (path halving converges); spot-check that find is stable. *)
let test_find_stable () =
  let u = Ufind.of_edges ~n:64 (Array.init 63 (fun i -> (i, i + 1))) in
  let r0 = Ufind.find u 0 in
  for v = 0 to 63 do
    Alcotest.(check int) "one root" r0 (Ufind.find u v)
  done;
  check_ok "find_stable" u

(* ---- concurrent parity: 1 domain vs 4 domains vs the DSU ---- *)

let concurrent_labels ~domains ~n edges =
  let u = Ufind.create n in
  let m = Array.length edges in
  let workers =
    Array.init domains (fun d ->
        Domain.spawn (fun () ->
            (* Interleaved strides, so domains race on the same regions
               rather than partitioning them neatly. *)
            let i = ref d in
            while !i < m do
              let x, y = edges.(!i) in
              ignore (Ufind.union u x y);
              i := !i + domains
            done))
  in
  Array.iter Domain.join workers;
  (u, Ufind.labels u)

let test_concurrent_parity () =
  List.iter
    (fun seed ->
      let rng = Rng.create ~seed in
      let n = 300 in
      let edges = random_edges rng ~n ~m:450 in
      let expect = dsu_labels ~n edges in
      List.iter
        (fun domains ->
          let u, got = concurrent_labels ~domains ~n edges in
          check_ok (Printf.sprintf "seed %d, %d domains" seed domains) u;
          Alcotest.(check (array int))
            (Printf.sprintf "seed %d: %d-domain partition = DSU" seed domains)
            expect got)
        [ 1; 4 ])
    [ 1; 2; 3 ]

(* Unions racing with queries must not corrupt the structure or lose
   merges: after the storm settles, the partition equals the oracle's. *)
let test_concurrent_mixed_workload () =
  let n = 200 in
  let rng = Rng.create ~seed:42 in
  let edges = random_edges rng ~n ~m:300 in
  let u = Ufind.create n in
  let stop = Atomic.make false in
  let readers =
    Array.init 2 (fun d ->
        Domain.spawn (fun () ->
            let rng = Rng.create ~seed:(100 + d) in
            let hits = ref 0 in
            while not (Atomic.get stop) do
              let x = Rng.int rng n and y = Rng.int rng n in
              if Ufind.same_set u x y then incr hits
            done;
            !hits))
  in
  let writers =
    Array.init 2 (fun d ->
        Domain.spawn (fun () ->
            let i = ref d in
            while !i < Array.length edges do
              let x, y = edges.(!i) in
              ignore (Ufind.union u x y);
              i := !i + 2
            done))
  in
  Array.iter Domain.join writers;
  Atomic.set stop true;
  Array.iter (fun d -> ignore (Domain.join d)) readers;
  check_ok "mixed workload" u;
  Alcotest.(check (array int)) "mixed workload partition = DSU" (dsu_labels ~n edges)
    (Ufind.labels u)

let suites =
  [ Alcotest.test_case "basic ops and labels" `Quick test_basic;
    Alcotest.test_case "of_edges" `Quick test_of_edges;
    Alcotest.test_case "find converges to one root" `Quick test_find_stable;
    Alcotest.test_case "1-domain vs 4-domain vs DSU parity" `Quick test_concurrent_parity;
    Alcotest.test_case "unions racing queries stay sound" `Quick test_concurrent_mixed_workload ]

let qsuites =
  let open QCheck2 in
  let edges_gen =
    Gen.(
      pair (int_range 1 40)
        (list_size (0 -- 120) (pair (int_range 0 1000) (int_range 0 1000))))
  in
  [ Test.make ~name:"union verdicts and components agree with the DSU" ~count:200 edges_gen
      (fun (n, pairs) ->
        let u = Ufind.create n and d = Union_find.create n in
        List.for_all
          (fun (a, b) ->
            let a = a mod n and b = b mod n in
            let verdict = Ufind.union u a b in
            verdict = Union_find.union d a b && Ufind.components u = Union_find.components d)
          pairs);
    Test.make ~name:"Ufind.labels = DSU labels on any union sequence" ~count:200 edges_gen
      (fun (n, pairs) ->
        let edges = Array.of_list (List.map (fun (a, b) -> (a mod n, b mod n)) pairs) in
        let u = Ufind.of_edges ~n edges in
        Ufind.labels u = dsu_labels ~n edges && Ufind.check_invariants u = Ok ());
    Test.make ~name:"same_set agrees with the DSU on every pair" ~count:50
      Gen.(pair (int_range 1 12) (list_size (0 -- 30) (pair (int_range 0 143) (int_range 0 143))))
      (fun (n, pairs) ->
        let edges = Array.of_list (List.map (fun (a, b) -> (a mod n, b mod n)) pairs) in
        let u = Ufind.of_edges ~n edges in
        let d = Union_find.create n in
        Array.iter (fun (a, b) -> ignore (Union_find.union d a b)) edges;
        let ok = ref true in
        for x = 0 to n - 1 do
          for y = 0 to n - 1 do
            if Ufind.same_set u x y <> Union_find.same d x y then ok := false
          done
        done;
        !ok) ]
