open Bcclb_core
module Cycles = Bcclb_graph.Cycles
module Nat = Bcclb_bignum.Nat
module Combi = Bcclb_bignum.Combi
module Rng = Bcclb_util.Rng
module Instance = Bcclb_bcc.Instance

let nat = Alcotest.testable Nat.pp Nat.equal

let test_census_counts () =
  (* |V1| = (n-1)!/2, |V2| per Combi. *)
  List.iter
    (fun n ->
      Alcotest.check nat
        (Printf.sprintf "|V1| n=%d" n)
        (Combi.one_cycle_count n)
        (Nat.of_int (Array.length (Census.one_cycles ~n))))
    [ 4; 5; 6; 7; 8 ];
  List.iter
    (fun n ->
      Alcotest.check nat
        (Printf.sprintf "|V2| n=%d" n)
        (Combi.two_cycle_count n)
        (Nat.of_int (Array.length (Census.two_cycles ~n))))
    [ 6; 7; 8 ]

let test_census_distinct () =
  let seen = Hashtbl.create 64 in
  Census.iter_one_cycles ~n:7 (fun s ->
      Alcotest.(check bool) "distinct" false (Hashtbl.mem seen s);
      Hashtbl.add seen s ());
  Alcotest.(check int) "count" 360 (Hashtbl.length seen)

(* The enumerators hand out their canonical sequences as structures
   without re-canonicalising: each must be what Cycles.make would build. *)
let test_census_structures_canonical () =
  let check what s =
    if not (Cycles.equal s (Cycles.make (Cycles.cycles s))) then
      Alcotest.failf "%s: a structure differs from Cycles.make of itself" what
  in
  List.iter
    (fun n ->
      Census.iter_one_cycles ~n (check (Printf.sprintf "V1 n=%d" n));
      Census.iter_two_cycles ~n (check (Printf.sprintf "V2 n=%d" n));
      Census.iter_one_cycle_orbits ~n (fun seq ~weight:_ ->
          check (Printf.sprintf "orbit reps n=%d" n) (Cycles.of_canonical [ Array.copy seq ])))
    [ 6; 7; 8; 9 ]

let test_cross_one_cycle () =
  let cyc = [| 0; 1; 2; 3; 4; 5; 6; 7 |] in
  let s = Census.cross_one_cycle cyc 0 4 in
  (* Splits into arcs 1-2-3-4 and 5-6-7-0. *)
  Alcotest.(check int) "two cycles" 2 (Cycles.num_cycles s);
  Alcotest.(check (list int)) "lengths" [ 4; 4 ] (List.sort Int.compare (Cycles.lengths s));
  Alcotest.check_raises "short arc" (Invalid_argument "Census.cross_one_cycle: arcs must have length >= 3")
    (fun () -> ignore (Census.cross_one_cycle cyc 0 2))

let test_cross_two_cycles_inverse () =
  (* Splitting then merging along the same edges restores the cycle. *)
  let cyc = [| 0; 3; 1; 4; 2; 5; 6; 7 |] in
  let s = Census.cross_one_cycle cyc 1 5 in
  match Cycles.cycles s with
  | [ c1; c2 ] ->
    (* Find the crossed-back pair: merging any edge pair gives a single
       cycle; merging the two new edges restores the original. *)
    let restored = ref false in
    Array.iteri
      (fun i _ ->
        Array.iteri
          (fun j _ ->
            let merged = Census.cross_two_cycles c1 c2 i j in
            if Cycles.equal merged (Cycles.make [ cyc ]) then restored := true)
          c2)
      c1;
    Alcotest.(check bool) "restorable" true !restored
  | _ -> Alcotest.fail "expected two cycles"

let truncated ~rounds =
  Bcclb_algorithms.Discovery.connectivity_truncated ~knowledge:Instance.KT0 ~max_degree:2 ~rounds
    ~optimist:true

let test_labels_pigeonhole () =
  (* After t rounds there are at most 3^{2t} labels, so some class has
     >= n/3^{2t} edges (Theorem 3.5's pigeonhole). *)
  let n = 9 in
  let rng = Rng.create ~seed:44 in
  List.iter
    (fun t ->
      let algo = truncated ~rounds:t in
      for _ = 1 to 5 do
        let g = Bcclb_graph.Gen.random_cycle rng n in
        match Cycles.of_graph g with
        | None -> Alcotest.fail "cycle expected"
        | Some s ->
          let largest = Labels.largest_active_set algo ~n s in
          let floor_bound =
            int_of_float (ceil (float_of_int n /. (3.0 ** float_of_int (2 * t))))
          in
          Alcotest.(check bool)
            (Printf.sprintf "pigeonhole t=%d" t)
            true (largest >= floor_bound)
      done)
    [ 0; 1; 2 ]

let test_indist_graph_t0 () =
  (* At t = 0 all edges share the empty label, so G^0 contains every
     possible splitting crossing. Exact degrees in the bipartite graph of
     Definition 3.6: a one-cycle instance has n(n-5)/2 independent
     same-orientation edge pairs (both arcs >= 3), and a two-cycle
     instance with cycle lengths (i, n-i) has 2*i*(n-i) one-cycle
     preimages (i*(n-i) undirected edge pairs, times 2 relative
     orientations of the merge). These refine the paper's quick counts
     n(n-3)/2 and i(n-i) by constant factors; all Theta() claims of
     Lemma 3.9 are unaffected. *)
  let n = 7 in
  let algo = truncated ~rounds:0 in
  let g = Indist_graph.build algo ~n () in
  Alcotest.(check int) "V1 size" 360 (Array.length g.Indist_graph.v1);
  Alcotest.(check int) "V2 size" 105 (Array.length g.Indist_graph.v2);
  Array.iteri
    (fun i _ -> Alcotest.(check int) "V1 degree n(n-5)/2" (n * (n - 5) / 2) (Indist_graph.degree_v1 g i))
    g.Indist_graph.v1;
  let radj = Indist_oracle.transpose g in
  Array.iteri
    (fun i s2 ->
      let smaller = List.fold_left min n (Cycles.lengths s2) in
      Alcotest.(check int) "V2 degree 2i(n-i)" (2 * smaller * (n - smaller)) (Array.length radj.(i)))
    g.Indist_graph.v2;
  (* Handshake: edge count agrees from both sides. *)
  Alcotest.(check int) "handshake" (360 * (n * (n - 5) / 2)) (Indist_graph.num_edges g)

let test_indist_graph_k_matching_t0 () =
  let n = 8 in
  let algo = truncated ~rounds:0 in
  let g = Indist_graph.build algo ~n () in
  (* At t = 0 every one of the 2,520 V1 instances is live and |V2| = 987,
     so Hall's condition fails at k = 1 on S = V1, and counting refutes
     the 1-matching before any row is copied or checked. *)
  let before = Gc.minor_words () in
  let m = Indist_graph.k_matching g ~k:1 in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "k=1 refuted" true (m = None);
  if words > 64. then Alcotest.failf "refuting k=1 allocated %.0f words" words;
  Alcotest.(check bool) "edges counted both ways" true
    (Indist_graph.num_edges g
    = Array.fold_left (fun acc r -> acc + Array.length r) 0 (Indist_oracle.transpose g))

(* G keeps one adjacency, its V₁ rows. Past the census arrays it shares
   with the arena, G⁰ at n = 8 (|V₁| = 2,520, |E| = 30,240) holds the
   row entries, one header per row, the row array, the record and its two
   labels: |E| + 2|V₁| and a few words. A V₂→V₁ transpose would add
   |E| + |V₂| + 1 more. *)
let test_indist_graph_footprint () =
  let n = 8 in
  let g = Indist_graph.build (truncated ~rounds:0) ~n () in
  let nl = Array.length g.Indist_graph.v1 and edges = Indist_graph.num_edges g in
  Alcotest.(check int) "|V1|" 2520 nl;
  Alcotest.(check int) "|E|" 30240 edges;
  let words v = Obj.reachable_words (Obj.repr v) in
  let own = words g - words (g.Indist_graph.v1, g.Indist_graph.v2) and bound = edges + (2 * nl) + 16 in
  if own > bound then Alcotest.failf "G0 at n=8 holds %d words past v1 and v2, bound %d" own bound

let test_hard_distribution_baselines () =
  (* always-yes errs exactly on all of V2: error = 1/2. *)
  let n = 7 in
  let r = Hard_distribution.exact_error (Bcclb_algorithms.Trivial.always_yes ()) ~n in
  Alcotest.(check int) "no V1 errors" 0 r.Hard_distribution.v1_errors;
  Alcotest.(check int) "all V2 errors" r.Hard_distribution.v2_total r.Hard_distribution.v2_errors;
  Alcotest.(check bool) "error 1/2" true
    (Bcclb_bignum.Ratio.equal r.Hard_distribution.error (Bcclb_bignum.Ratio.of_ints 1 2));
  (* The full discovery algorithm has zero error. *)
  let full = Bcclb_algorithms.Discovery.connectivity ~knowledge:Instance.KT0 ~max_degree:2 in
  let r2 = Hard_distribution.exact_error full ~n in
  Alcotest.(check bool) "full algorithm exact" true (Bcclb_bignum.Ratio.is_zero r2.Hard_distribution.error)

let test_error_monotone_in_rounds () =
  (* Error stays >= 1/4 for small t and drops to 0 at full rounds. *)
  let n = 7 in
  let err t =
    Hard_distribution.error_float (Hard_distribution.exact_error (truncated ~rounds:t) ~n)
  in
  Alcotest.(check bool) "t=0 error 1/2" true (Bcclb_util.Mathx.float_eq (err 0) 0.5);
  Alcotest.(check bool) "t=2 error high" true (err 2 >= 0.25);
  let full = Kt0_bound.upper_bound_rounds ~n in
  Alcotest.(check bool) "full rounds exact" true (Bcclb_util.Mathx.float_eq (err full) 0.0)

(* ---- one execution per truncation family ---- *)

module E3 = Bcclb_harness.E03_kt0_error
module Simulator = Bcclb_bcc.Simulator

(* Every census instance at n = 6, 7 and every 7th at n = 8, built by
   Cycles.to_graph and kt0_circulant rather than the sweep stamp
   exact_error uses. *)
let census_sample ~n =
  let all = Array.append (Census.one_cycles ~n) (Census.two_cycles ~n) in
  let step = if n <= 7 then 1 else 7 in
  List.filter_map
    (fun i ->
      if i mod step = 0 then Some (Instance.kt0_circulant (Cycles.to_graph ~n all.(i))) else None)
    (List.init (Array.length all) Fun.id)

(* [run_members]' read at t, on one execution of the deepest member, is
   what running the t-round member alone outputs: for every E3 decider
   and every t of E3's list. *)
let test_run_members_equals_members () =
  List.iter
    (fun n ->
      let ts = E3.error_ts ~n in
      let reads = Array.of_list ts in
      List.iter
        (fun decider ->
          let make = E3.error_algo_make decider in
          let deep = make ~rounds:(List.fold_left max 0 ts) in
          List.iteri
            (fun i inst ->
              let outputs = Simulator.run_members deep inst ~rounds:reads in
              Array.iteri
                (fun k t ->
                  if outputs.(k) <> Simulator.run_outputs (make ~rounds:t) inst then
                    Alcotest.failf "%s n=%d t=%d: instance %d differs from its own run" decider n t i)
                reads)
            (census_sample ~n))
        E3.error_algos)
    [ 6; 7; 8 ]

(* The shared batch reports what each member's own census sweep does. *)
let test_exact_error_family_batch () =
  let report = Alcotest.(pair string (pair (pair int int) (pair int int))) in
  let fields r =
    Hard_distribution.(r.algo_name, ((r.v1_total, r.v1_errors), (r.v2_total, r.v2_errors)))
  in
  List.iter
    (fun n ->
      let truncations = E3.error_ts ~n in
      List.iter
        (fun decider ->
          List.iter
            (fun t ->
              let algo = E3.error_algo_make decider ~rounds:t in
              let alone = Hard_distribution.exact_error algo ~n in
              let shared = Hard_distribution.exact_error ~truncations algo ~n in
              let what = Printf.sprintf "%s n=%d t=%d" decider n t in
              Alcotest.check report what (fields alone) (fields shared);
              Alcotest.(check bool) (what ^ ": error") true
                (Bcclb_bignum.Ratio.equal alone.Hard_distribution.error shared.Hard_distribution.error))
            truncations)
        E3.error_algos)
    [ 6; 7 ]

(* Each read is taken at its own round: a member that counts its steps
   and the rounds its inbox has heard reads (r, r) at every r, in any
   order and repeated. *)
let test_run_members_reads_each_round () =
  let module Algo = Bcclb_bcc.Algo in
  let counter =
    Algo.bcc1 ~name:"counter" ~rounds:(fun ~n:_ -> 5) ~init:(fun _ -> 0)
      ~step:(fun steps ~round:_ ~inbox:_ -> (steps + 1, Bcclb_bcc.Msg.silent))
      ~finish:(fun steps ~inbox -> (steps, Bcclb_bcc.Inbox.rounds inbox))
  in
  let n = 6 in
  let inst = Census.to_instance (Census.one_cycles ~n).(0) ~n in
  let reads = [| 3; 0; 5; 1; 3 |] in
  let outputs = Simulator.run_members (Algo.pack (Algo.truncate ~rounds:5 counter)) inst ~rounds:reads in
  Array.iteri
    (fun k r ->
      Alcotest.(check (array (pair int int))) (Printf.sprintf "read at %d" r) (Array.make n (r, r))
        outputs.(k))
    reads

let test_run_members_refusals () =
  let n = 7 in
  let inst = Census.to_instance (Census.one_cycles ~n).(0) ~n in
  let refused what f =
    Alcotest.(check bool) what true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  let full = Bcclb_algorithms.Discovery.connectivity ~knowledge:Instance.KT0 ~max_degree:2 in
  let own = Bcclb_bcc.Algo.rounds full ~n in
  Alcotest.(check int) "a non-truncation reads its own round count" 1
    (Array.length (Simulator.run_members full inst ~rounds:[| own |]));
  refused "a non-truncation has no shallower member" (fun () ->
      Simulator.run_members full inst ~rounds:[| 2; own |]);
  refused "no read past the run" (fun () ->
      Simulator.run_members (truncated ~rounds:3) inst ~rounds:[| 4 |]);
  refused "no negative read" (fun () ->
      Simulator.run_members (truncated ~rounds:3) inst ~rounds:[| -1 |]);
  refused "exact_error: the algorithm must be a member" (fun () ->
      Hard_distribution.exact_error ~truncations:[ 0; 1 ] (truncated ~rounds:3) ~n)

let test_star_distribution () =
  let n = 9 in
  let yes, nos = Hard_distribution.star_support ~n in
  Alcotest.(check int) "yes is one cycle" 1 (Cycles.num_cycles yes);
  Alcotest.(check bool) "nonempty nos" true (List.length nos > 0);
  List.iter (fun s -> Alcotest.(check int) "no is two cycles" 2 (Cycles.num_cycles s)) nos;
  let e = Hard_distribution.star_error (Bcclb_algorithms.Trivial.always_yes ()) ~n in
  Alcotest.(check bool) "always-yes star error 1/2" true
    (Bcclb_bignum.Ratio.equal e (Bcclb_bignum.Ratio.of_ints 1 2))

let test_crossing_check_lemma_3_4 () =
  let rng = Rng.create ~seed:5 in
  List.iter
    (fun t ->
      let algo = truncated ~rounds:t in
      let r = Crossing_check.check ~verify:`All algo ~n:10 ~instances:3 ~wiring:`Circulant rng in
      Alcotest.(check int) (Printf.sprintf "no violations t=%d" t) 0 r.Crossing_check.violations;
      Alcotest.(check bool) "examined pairs" true (r.Crossing_check.crossable_pairs > 0);
      Alcotest.(check int) "all same-label pairs verified" r.Crossing_check.same_label_pairs
        r.Crossing_check.verified)
    [ 0; 2; 5 ]

let test_crossing_check_random_wiring () =
  let rng = Rng.create ~seed:6 in
  let algo = truncated ~rounds:4 in
  let r = Crossing_check.check ~verify:`All algo ~n:9 ~instances:3 ~wiring:`Random rng in
  Alcotest.(check int) "no violations" 0 r.Crossing_check.violations

(* The verify knob trades execution for trust in Lemma 3.4: all three
   modes must agree on the census-level counts (crossable, same-label,
   indistinguishable), differ only in how many pairs they execute, and
   never report violations. *)
let test_crossing_check_verify_modes () =
  let algo = truncated ~rounds:3 in
  let run verify =
    Crossing_check.check ~verify algo ~n:9 ~instances:2 ~wiring:`Circulant (Rng.create ~seed:8)
  in
  let all = run `All and sampled = run (`Sampled 4) and none = run (`Sampled 0) in
  List.iter
    (fun (name, r) ->
      Alcotest.(check int) (name ^ " crossable") all.Crossing_check.crossable_pairs
        r.Crossing_check.crossable_pairs;
      Alcotest.(check int) (name ^ " same-label") all.Crossing_check.same_label_pairs
        r.Crossing_check.same_label_pairs;
      Alcotest.(check int) (name ^ " indistinguishable") all.Crossing_check.indistinguishable
        r.Crossing_check.indistinguishable;
      Alcotest.(check int) (name ^ " violations") 0 r.Crossing_check.violations)
    [ ("all", all); ("sampled", sampled); ("sampled 0", none) ];
  Alcotest.(check int) "sampled 0 executes nothing" 0 none.Crossing_check.executed;
  Alcotest.(check int) "sampled 0 verifies nothing" 0 none.Crossing_check.verified;
  Alcotest.(check bool) "sampled executes fewer than all" true
    (sampled.Crossing_check.executed < all.Crossing_check.executed);
  Alcotest.(check bool) "sampled verifies a bounded sample" true
    (sampled.Crossing_check.verified <= 2 * 4
    && sampled.Crossing_check.verified <= sampled.Crossing_check.same_label_pairs);
  Alcotest.(check int) "all verifies everything" all.Crossing_check.same_label_pairs
    all.Crossing_check.verified

(* The library's one path must be bit-for-bit interchangeable with the
   string-label oracle: same label pair, same census orders, same
   adjacency. n=7 keeps |V1| = 360 so three truncation depths stay fast;
   n=8 at t=2 adds a per-instance build where the label pair matters. *)
let parity_inputs = [ (7, 0); (7, 1); (7, 2); (8, 2) ]

let test_indist_build_parity () =
  List.iter
    (fun (n, t) ->
      let algo = truncated ~rounds:t in
      let p = Indist_graph.build algo ~n () in
      let r = Indist_oracle.build algo ~n () in
      let what field = Printf.sprintf "%s n=%d t=%d" field n t in
      Alcotest.(check string) (what "x") r.Indist_graph.x p.Indist_graph.x;
      Alcotest.(check string) (what "y") r.Indist_graph.y p.Indist_graph.y;
      Alcotest.(check bool) (what "adj") true (p.Indist_graph.adj = r.Indist_graph.adj);
      Alcotest.(check bool) (what "radj") true (Indist_oracle.transpose p = Indist_oracle.transpose r))
    parity_inputs

let test_indist_build_full_parity () =
  List.iter
    (fun (n, t) ->
      let algo = truncated ~rounds:t in
      let p = Indist_graph.build_full algo ~n () in
      let r = Indist_oracle.build_full algo ~n () in
      let what field = Printf.sprintf "%s n=%d t=%d" field n t in
      Alcotest.(check bool) (what "adj") true (p.Indist_graph.adj = r.Indist_graph.adj);
      Alcotest.(check bool) (what "radj") true (Indist_oracle.transpose p = Indist_oracle.transpose r))
    parity_inputs

(* Inputs no caller sends are refused at entry with a message naming the
   limit: broadcasts that do not pack into a word (here bandwidth 2) and
   n outside the arena. *)
let test_refuses_uncodable () =
  let wide = Bcclb_algorithms.Adjacency_matrix.connectivity ~bandwidth:2 () in
  let names_limit m =
    let limit = "needs bandwidth <= 1 and at most 31 rounds" in
    let k = String.length limit in
    List.exists (fun i -> String.sub m i k = limit) (List.init (String.length m - k + 1) Fun.id)
  in
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s accepted a bandwidth-2 algorithm" what
    | exception Invalid_argument m -> Alcotest.(check bool) (what ^ ": " ^ m) true (names_limit m)
  in
  let s = (Census.one_cycles ~n:7).(0) in
  refused "build" (fun () -> ignore (Indist_graph.build wide ~n:7 ()));
  refused "build_full" (fun () -> ignore (Indist_graph.build_full wide ~n:7 ()));
  refused "sent_strings" (fun () -> ignore (Labels.sent_strings wide ~n:7 s));
  Alcotest.check_raises "n below the arena"
    (Invalid_argument
       "Indist_graph.build_full: the exhaustive census arena supports 6 <= n <= 15 (got n = 5); \
        larger n runs only through the orbit-reduced quotient paths (Arena.Orbit, n <= 13)")
    (fun () -> ignore (Indist_graph.build_full (truncated ~rounds:0) ~n:5 ()))

(* Arena invariants: interned censuses match Census order; every
   two-cycle key resolves to its own handle; cross_key computes the
   same key the allocating path would. *)
let test_arena_interning () =
  let n = 8 in
  let arena = Arena.create ~n in
  Alcotest.(check int) "V1 size" (Array.length (Census.one_cycles ~n)) (Arena.n_one arena);
  Alcotest.(check int) "V2 size" (Array.length (Census.two_cycles ~n)) (Arena.n_two arena);
  Array.iteri
    (fun h s2 ->
      Alcotest.(check bool) "census order" true (Cycles.equal s2 (Arena.two_structure arena h));
      Alcotest.(check int) "key roundtrip" h (Arena.two_handle arena ~key:(Arena.key_two s2)))
    (Census.two_cycles ~n)

let test_arena_cross_key () =
  let n = 8 in
  let arena = Arena.create ~n in
  (* Exhaustive over a sample of one-cycles, all valid split positions. *)
  let ones = Census.one_cycles ~n in
  for idx = 0 to 49 do
    let s1 = ones.(idx * (Array.length ones / 50)) in
    match Cycles.cycles s1 with
    | [ cyc ] ->
      let k = Array.length cyc in
      for i = 0 to k - 1 do
        for j = i + 1 to k - 1 do
          if j - i >= 3 && k - (j - i) >= 3 then begin
            let expect = Arena.key_two (Census.cross_one_cycle cyc i j) in
            Alcotest.(check int)
              (Printf.sprintf "cross_key idx=%d i=%d j=%d" idx i j)
              expect (Arena.cross_key cyc i j);
            Alcotest.(check int) "cross_handle resolves" (Arena.two_handle arena ~key:expect)
              (Arena.cross_handle arena cyc i j)
          end
        done
      done
    | _ -> Alcotest.fail "one-cycle expected"
  done

let test_census_row () =
  let row = Kt0_bound.census_row ~n:8 in
  Alcotest.(check (option int)) "v1 enumerated" (Some 2520) row.Kt0_bound.v1_enumerated;
  Alcotest.(check (option int)) "v2 enumerated" (Some 987) row.Kt0_bound.v2_enumerated;
  Alcotest.check nat "v1 closed form" (Nat.of_int 2520) row.Kt0_bound.v1;
  Alcotest.(check bool) "ratio positive" true (row.Kt0_bound.ratio > 0.0)

let test_kt1_pipeline_row () =
  let rng = Rng.create ~seed:23 in
  let row = Kt1_bound.pipeline_row ~n:8 rng ~samples:5 in
  Alcotest.(check bool) "answers correct" true row.Kt1_bound.correct;
  Alcotest.(check int) "bits as predicted" row.Kt1_bound.predicted_bits row.Kt1_bound.measured_bits;
  Alcotest.(check bool) "implied lb positive" true (row.Kt1_bound.implied_round_lb > 0.0)

let test_info_bound_rows () =
  let r0 = Info_bound.row ~n:4 ~epsilon:0.0 in
  (* Errorless: transcript determines P_A, so MI = H(P_A) = log2 15. *)
  Alcotest.(check bool) "errorless MI = H" true
    (Bcclb_util.Mathx.float_eq r0.Info_bound.mi r0.Info_bound.h_pa);
  Alcotest.(check bool) "bound holds" true r0.Info_bound.holds;
  let r25 = Info_bound.row ~n:5 ~epsilon:0.25 in
  Alcotest.(check bool) "eps>0 loses information" true (r25.Info_bound.mi < r25.Info_bound.h_pa);
  Alcotest.(check bool) "Theorem 4.5 bound holds" true r25.Info_bound.holds

let test_info_bcc_row () =
  let r = Info_bound.bcc_row ~n:4 in
  Alcotest.(check bool) "pipeline correct" true r.Info_bound.comp_correct;
  (* Errorless pipeline: MI = H(P_A). *)
  Alcotest.(check bool) "MI = H" true (Bcclb_util.Mathx.float_eq ~eps:1e-6 r.Info_bound.mi r.Info_bound.h_pa)


let test_certified_error_lb () =
  (* The matching certificate is sound: certified LB <= measured error,
     and at t=0 the full graph has a perfect matching on V2 (n=7:
     matching 105 = |V2|, LB = 105/720). *)
  let n = 7 in
  List.iter
    (fun t ->
      let algo = truncated ~rounds:t in
      let g = Indist_graph.build_full algo ~n () in
      let size, lb = Indist_graph.certified_error_lb g in
      let measured =
        Hard_distribution.error_float (Hard_distribution.exact_error algo ~n)
      in
      Alcotest.(check bool)
        (Printf.sprintf "sound at t=%d" t)
        true
        (Bcclb_bignum.Ratio.to_float lb <= measured +. 1e-9);
      if t = 0 then begin
        Alcotest.(check int) "t=0 matching saturates V2" 105 size;
        Alcotest.(check bool) "t=0 LB = 105/720" true
          (Bcclb_bignum.Ratio.equal lb (Bcclb_bignum.Ratio.of_ints 105 720))
      end)
    [ 0; 1; 2 ];
  (* At full rounds the algorithm is exact, so the graph must be empty:
     a non-empty matching would contradict soundness. *)
  let full = Kt0_bound.upper_bound_rounds ~n in
  let g = Indist_graph.build_full (truncated ~rounds:full) ~n () in
  let size, _ = Indist_graph.certified_error_lb g in
  Alcotest.(check int) "exact algorithm has empty indist graph" 0 size

let test_full_graph_contains_fixed_label_graph () =
  let n = 7 in
  let algo = truncated ~rounds:2 in
  let fixed = Indist_graph.build algo ~n () in
  let full = Indist_graph.build_full algo ~n () in
  Alcotest.(check bool) "full has at least as many edges" true
    (Indist_graph.num_edges full >= Indist_graph.num_edges fixed)


let test_lemma_3_7_neighbor_structure () =
  (* At t = 0 for n = 8: every one-cycle instance has, per smaller cycle
     length i in {3, 4}, neighbours of degree exactly 2*i*(n-i):
     8 neighbours with i=3 (degree 30) and 4 with i=4 (degree 32) -- the
     refined version of Lemma 3.7's "at least d/2 neighbours of degree
     i(d-i)" at full activity. *)
  let n = 8 in
  let g = Indist_graph.build (truncated ~rounds:0) ~n () in
  let expected = [ ((3, 2 * 3 * 5), 8); ((4, 2 * 4 * 4), 4) ] in
  let radj = Indist_oracle.transpose g in
  Array.iteri
    (fun i1 _ ->
      if i1 < 10 then
        Alcotest.(check bool)
          (Printf.sprintf "histogram of I1=%d" i1)
          true
          (Indist_oracle.neighbor_degree_histogram g radj i1 = expected))
    g.Indist_graph.v1

let test_lemma_3_9_t_i_bound () =
  (* |T_i| exactly (census) vs the closed form C(n,i)*cyc(i)*cyc(n-i)
     (halved at the balanced split) and the proof's double-counting bound
     |T_i| <= |V1| * n / (i (n-i)). *)
  List.iter
    (fun n ->
      let v1 = Nat.to_float (Combi.one_cycle_count n) in
      List.iter
        (fun (i, count) ->
          let closed =
            let ways =
              Nat.mul (Combi.binomial n i) (Nat.mul (Combi.cycles_on i) (Combi.cycles_on (n - i)))
            in
            let ways = if 2 * i = n then Nat.div ways Nat.two else ways in
            Nat.to_float ways
          in
          Alcotest.(check bool)
            (Printf.sprintf "T_%d closed form n=%d" i n)
            true
            (float_of_int count = closed);
          let bound = v1 *. float_of_int n /. float_of_int (i * (n - i)) in
          Alcotest.(check bool)
            (Printf.sprintf "T_%d double-counting bound n=%d" i n)
            true
            (float_of_int count <= bound +. 1e-6))
        (Census.t_i_counts ~n))
    [ 6; 7; 8; 9 ]

let suites =
  [ Alcotest.test_case "census counts" `Quick test_census_counts;
    Alcotest.test_case "census distinct" `Quick test_census_distinct;
    Alcotest.test_case "census structures = Cycles.make, n=6..9" `Quick
      test_census_structures_canonical;
    Alcotest.test_case "cross one cycle" `Quick test_cross_one_cycle;
    Alcotest.test_case "cross/merge inverse" `Quick test_cross_two_cycles_inverse;
    Alcotest.test_case "label pigeonhole" `Quick test_labels_pigeonhole;
    Alcotest.test_case "indist graph t=0 degrees (Lemma 3.9)" `Slow test_indist_graph_t0;
    Alcotest.test_case "indist graph edge accounting" `Slow test_indist_graph_k_matching_t0;
    Alcotest.test_case "indist graph footprint: one adjacency" `Slow test_indist_graph_footprint;
    Alcotest.test_case "hard distribution baselines" `Slow test_hard_distribution_baselines;
    Alcotest.test_case "error vs rounds" `Slow test_error_monotone_in_rounds;
    Alcotest.test_case "run_members = each member's run (E3 deciders)" `Slow
      test_run_members_equals_members;
    Alcotest.test_case "exact_error family batch = members alone" `Slow
      test_exact_error_family_batch;
    Alcotest.test_case "run_members reads each round" `Quick test_run_members_reads_each_round;
    Alcotest.test_case "run_members refusals" `Quick test_run_members_refusals;
    Alcotest.test_case "star distribution (Thm 3.5)" `Quick test_star_distribution;
    Alcotest.test_case "Lemma 3.4 by execution" `Slow test_crossing_check_lemma_3_4;
    Alcotest.test_case "Lemma 3.4 random wiring" `Slow test_crossing_check_random_wiring;
    Alcotest.test_case "crossing verify modes agree" `Slow test_crossing_check_verify_modes;
    Alcotest.test_case "packed build = reference" `Slow test_indist_build_parity;
    Alcotest.test_case "packed build_full = reference" `Slow test_indist_build_full_parity;
    Alcotest.test_case "non-codable input refused" `Quick test_refuses_uncodable;
    Alcotest.test_case "arena interning" `Quick test_arena_interning;
    Alcotest.test_case "arena cross_key" `Quick test_arena_cross_key;
    Alcotest.test_case "Lemma 3.7 neighbour structure" `Slow test_lemma_3_7_neighbor_structure;
    Alcotest.test_case "Lemma 3.9 |T_i| bound" `Slow test_lemma_3_9_t_i_bound;
    Alcotest.test_case "certified error LB" `Slow test_certified_error_lb;
    Alcotest.test_case "full graph superset" `Slow test_full_graph_contains_fixed_label_graph;
    Alcotest.test_case "census row (E1)" `Quick test_census_row;
    Alcotest.test_case "KT-1 pipeline row (E8)" `Quick test_kt1_pipeline_row;
    Alcotest.test_case "info bound rows (E9)" `Quick test_info_bound_rows;
    Alcotest.test_case "info bcc row (E9)" `Slow test_info_bcc_row ]

let qsuites =
  let open QCheck2 in
  [ Test.make ~name:"cross_one_cycle preserves vertex set" ~count:200
      Gen.(pair (6 -- 12) (0 -- 100000))
      (fun (n, seed) ->
        let rng = Rng.create ~seed in
        let perm = Rng.permutation rng n in
        let i = Rng.int rng n and j = Rng.int rng n in
        let i, j = (min i j, max i j) in
        if j - i < 3 || n - (j - i) < 3 then QCheck2.assume_fail ()
        else begin
          let s = Census.cross_one_cycle perm i j in
          Cycles.num_vertices s = n && Cycles.num_cycles s = 2
        end);
    Test.make ~name:"merging two cycles yields one cycle on all vertices" ~count:200
      Gen.(pair (pair (3 -- 6) (3 -- 6)) (0 -- 100000))
      (fun ((k1, k2), seed) ->
        let rng = Rng.create ~seed in
        let perm = Rng.permutation rng (k1 + k2) in
        let c1 = Array.sub perm 0 k1 and c2 = Array.sub perm k1 k2 in
        let i = Rng.int rng k1 and j = Rng.int rng k2 in
        let s = Census.cross_two_cycles c1 c2 i j in
        Cycles.num_cycles s = 1 && Cycles.num_vertices s = k1 + k2) ]
