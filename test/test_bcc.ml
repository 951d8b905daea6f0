open Bcclb_bcc
module G = Bcclb_graph.Graph
module Gen = Bcclb_graph.Gen
module Rng = Bcclb_util.Rng

let cycle6 = Gen.cycle 6

let test_instance_construction () =
  let inst = Instance.kt0_circulant cycle6 in
  Alcotest.(check int) "n" 6 (Instance.n inst);
  (* Circulant wiring: port p of v leads to v+p+1 mod n. *)
  Alcotest.(check int) "peer" 3 (Instance.peer inst 1 1);
  Alcotest.(check int) "port_to inverse" 1 (Instance.port_to inst 1 3);
  (* Input edges of the 6-cycle. *)
  Alcotest.(check bool) "edge 0-1" true (Instance.is_input_edge inst 0 1);
  Alcotest.(check bool) "edge 0-5" true (Instance.is_input_edge inst 0 5);
  Alcotest.(check bool) "no edge 0-2" false (Instance.is_input_edge inst 0 2);
  Alcotest.(check bool) "graph roundtrip" true (G.equal (Instance.input_graph inst) cycle6)

let test_circulant_tables () =
  (* Default-ID circulant instances share tables built and validated once
     per n; they equal the fully built and validated [?ids] path. *)
  let rng = Rng.create ~seed:31 in
  List.iter
    (fun g ->
      let n = G.n g in
      let shared = Instance.kt0_circulant g in
      Alcotest.(check bool) "= the fully validated build" true
        (Instance.equal shared (Instance.kt0_circulant ~ids:(Array.init n succ) g));
      ignore (Instance.validate shared))
    [ Gen.random_cycle rng 9; Gen.random_two_cycles rng 12; Gen.gnp rng 10 0.4;
      Gen.random_bounded_degree rng 11 3 ];
  (* Crossing copies the shared tables first: later instances see none of
     its rewiring. *)
  let base = Instance.kt0_circulant cycle6 in
  let crossed = Instance.cross base (0, 1) (3, 4) in
  Alcotest.(check bool) "crossing rewired its copy" false (Instance.equal base crossed);
  Alcotest.(check bool) "shared tables untouched" true (Instance.equal base (Instance.kt0_circulant cycle6));
  Alcotest.(check int) "peer row untouched" 1 (Instance.peer (Instance.kt0_circulant cycle6) 0 0);
  (* The census stamp builds the same instance from a cycle-neighbour
     table, and refuses a table whose pairs are not mutual. *)
  let g = Gen.random_cycle rng 10 in
  let nbrs = Array.init 10 (fun v -> ((G.neighbors g v).(0), (G.neighbors g v).(1))) in
  let stamp = Instance.kt0_circulant_sweep 10 in
  Alcotest.(check bool) "stamp = kt0_circulant" true (Instance.equal (stamp nbrs) (Instance.kt0_circulant g));
  let a, b = nbrs.(0) in
  let stranger = List.find (fun u -> u <> 0 && u <> a && u <> b) (List.init 10 Fun.id) in
  let broken = Array.copy nbrs in
  broken.(0) <- (a, stranger);
  Alcotest.check_raises "not mutual"
    (Invalid_argument "Instance.kt0_circulant_sweep: neighbour table is not 2-regular") (fun () ->
      ignore (stamp broken))

let test_instance_random_wiring () =
  let rng = Rng.create ~seed:9 in
  let inst = Instance.kt0_random rng cycle6 in
  ignore (Instance.validate inst);
  Alcotest.(check bool) "graph preserved" true (G.equal (Instance.input_graph inst) cycle6)

let test_kt1_wiring () =
  let inst = Instance.kt1_of_graph cycle6 in
  (* IDs are 1..6; port p of vertex 0 (id 1) leads to the p-th smallest
     other id, i.e. vertex p+1. *)
  for p = 0 to 4 do
    Alcotest.(check int) "ID-ordered ports" (p + 1) (Instance.peer inst 0 p)
  done;
  let v = Instance.view inst 0 in
  Alcotest.(check int) "neighbor id via port" 2 (View.neighbor_id v 0);
  Alcotest.(check (array int)) "all ids" [| 1; 2; 3; 4; 5; 6 |] (View.all_ids v)

let test_kt0_view_hides_ids () =
  let inst = Instance.kt0_circulant cycle6 in
  let v = Instance.view inst 0 in
  Alcotest.(check bool) "no kt1 info" true (View.kt1 v = None);
  Alcotest.check_raises "neighbor_id raises" (Invalid_argument "View.neighbor_id: not available in KT-0")
    (fun () -> ignore (View.neighbor_id v 0));
  Alcotest.(check int) "degree" 2 (View.degree v);
  Alcotest.(check (list int)) "input ports" [ 0; 4 ] (View.input_ports v)

let test_independence () =
  let inst = Instance.kt0_circulant (Gen.cycle 8) in
  (* (0,1) and (4,5) independent; (0,1) and (1,2) share vertex 1;
     (0,1) and (2,3) have diagonal (1,2) an input edge. *)
  Alcotest.(check bool) "independent" true (Instance.independent inst (0, 1) (4, 5));
  Alcotest.(check bool) "share vertex" false (Instance.independent inst (0, 1) (1, 2));
  Alcotest.(check bool) "adjacent edges" false (Instance.independent inst (0, 1) (2, 3));
  Alcotest.(check bool) "non-edges" false (Instance.independent inst (0, 2) (4, 6))

let test_crossing_structure () =
  let inst = Instance.kt0_circulant (Gen.cycle 8) in
  let crossed = Instance.cross inst (0, 1) (4, 5) in
  ignore (Instance.validate crossed);
  let g = Instance.input_graph crossed in
  (* Crossing a one-cycle along (0,1),(4,5) gives two cycles: 1..4 and 5..0. *)
  Alcotest.(check int) "two components" 2 (G.num_components g);
  Alcotest.(check bool) "edge 0-5" true (G.mem_edge g 0 5);
  Alcotest.(check bool) "edge 4-1" true (G.mem_edge g 1 4);
  Alcotest.(check bool) "edge 0-1 gone" false (G.mem_edge g 0 1);
  (* Views (per-port input flags) are unchanged at every vertex. *)
  for v = 0 to 7 do
    Alcotest.(check string) "view preserved"
      (View.fingerprint (Instance.view inst v))
      (View.fingerprint (Instance.view crossed v))
  done

let test_crossing_errors () =
  let inst = Instance.kt0_circulant (Gen.cycle 8) in
  Alcotest.check_raises "dependent edges" (Invalid_argument "Instance.cross: edges are not independent")
    (fun () -> ignore (Instance.cross inst (0, 1) (1, 2)));
  let kt1 = Instance.kt1_of_graph (Gen.cycle 8) in
  Alcotest.check_raises "KT-1 crossing" (Invalid_argument "Instance.cross: crossings only exist in KT-0")
    (fun () -> ignore (Instance.cross kt1 (0, 1) (4, 5)))

(* Lemma 3.4, executed: if the four endpoints broadcast pairwise-equal
   sequences, the crossed instance is execution-indistinguishable. The
   chatter algorithm broadcasts degree parity, equal everywhere on
   2-regular graphs, so ANY crossing is indistinguishable under it. *)
let test_lemma_3_4_chatter () =
  let algo = Bcclb_algorithms.Trivial.chatter ~rounds:5 () in
  let inst = Instance.kt0_circulant (Gen.cycle 8) in
  let crossed = Instance.cross inst (0, 1) (4, 5) in
  Alcotest.(check bool) "indistinguishable" true (Simulator.indistinguishable algo inst crossed)

(* And a discriminating algorithm (full discovery) must distinguish them:
   the instances have different input graphs. *)
let test_crossing_distinguished_by_discovery () =
  let algo = Bcclb_algorithms.Discovery.connectivity ~knowledge:Instance.KT0 ~max_degree:2 in
  let inst = Instance.kt0_circulant (Gen.cycle 8) in
  let crossed = Instance.cross inst (0, 1) (4, 5) in
  Alcotest.(check bool) "distinguished" false (Simulator.indistinguishable algo inst crossed)

let test_simulator_bandwidth_enforced () =
  let cheat =
    Algo.pack
      (Algo.bcc1 ~name:"cheat"
         ~rounds:(fun ~n:_ -> 1)
         ~init:(fun _ -> ())
         ~step:(fun () ~round:_ ~inbox:_ -> ((), Msg.of_int ~width:2 3))
         ~finish:(fun () ~inbox:_ -> true))
  in
  let inst = Instance.kt0_circulant cycle6 in
  let raises entry run =
    Alcotest.(check bool) (entry ^ ": bandwidth violation raises") true
      (try
         run ();
         false
       with Invalid_argument _ -> true)
  in
  raises "run" (fun () -> ignore (Simulator.run cheat inst));
  raises "run_outputs" (fun () -> ignore (Simulator.run_outputs cheat inst));
  raises "run_sent_codes" (fun () -> ignore (Simulator.run_sent_codes cheat inst))

let test_simulator_delivery () =
  (* Vertex broadcasts its id's parity in round 1; in round 2 everyone
     must have received it on the correct ports. *)
  let algo =
    Algo.pack
      (Algo.bcc1 ~name:"parity"
         ~rounds:(fun ~n:_ -> 1)
         ~init:(fun view -> view)
         ~step:(fun view ~round:_ ~inbox:_ -> (view, Msg.of_bit (View.id view land 1 = 1)))
         ~finish:(fun view ~inbox ->
           (* Check against the circulant wiring: port p of v carries
              vertex v+p+1, whose default id is v+p+2. *)
           let n = View.n view in
           let v = View.id view - 1 in
           Array.for_all Fun.id
             (Array.mapi
                (fun p m ->
                  let sender_id = (((v + p + 1) mod n) + 1) land 1 = 1 in
                  Msg.equal m (Msg.of_bit sender_id))
                (Inbox.to_array inbox))))
  in
  let inst = Instance.kt0_circulant cycle6 in
  let result = Simulator.run algo inst in
  Alcotest.(check bool) "all delivered correctly" true (Array.for_all Fun.id result.Simulator.outputs)

let test_transcripts () =
  let algo = Bcclb_algorithms.Trivial.chatter ~rounds:3 () in
  let inst = Instance.kt0_circulant cycle6 in
  let r = Simulator.run algo inst in
  let t = r.Simulator.transcripts.(0) in
  Alcotest.(check int) "rounds" 3 (Transcript.rounds t);
  Alcotest.(check string) "sent (degree 2 = even parity)" "000" (Transcript.sent_string t);
  Alcotest.(check int) "bits broadcast" 3 (Transcript.bits_broadcast t);
  Alcotest.(check int) "total bits" 18 (Simulator.total_bits_broadcast r);
  (* Round 1 receives silence; round 2 receives round-1 bits. *)
  Alcotest.(check bool) "round 1 silent" true (Msg.is_silent (Transcript.received t 1 0));
  Alcotest.(check bool) "round 2 hears 0" true (Msg.equal (Transcript.received t 2 0) Msg.zero)

let test_view_details () =
  let inst = Instance.kt1_of_graph cycle6 in
  let v = Instance.view inst 2 in
  (* Vertex 2 has id 3; its KT-1 ports are ordered by the other ids
     [1; 2; 4; 5; 6], so id 2 sits behind port 1. *)
  Alcotest.(check int) "port of id 2" 1 (View.port_of_id v 2);
  Alcotest.(check bool) "port leads back" true (View.neighbor_id v (View.port_of_id v 4) = 4);
  Alcotest.(check bool) "own id has no port" true
    (try
       ignore (View.port_of_id v 3);
       false
     with Not_found -> true);
  (* KT-0 view raises on all_ids. *)
  let v0 = Instance.view (Instance.kt0_circulant cycle6) 0 in
  Alcotest.check_raises "all_ids KT-0" (Invalid_argument "View.all_ids: not available in KT-0")
    (fun () -> ignore (View.all_ids v0))

let test_transcript_bounds () =
  let algo = Bcclb_algorithms.Trivial.chatter ~rounds:2 () in
  let r = Simulator.run algo (Instance.kt0_circulant cycle6) in
  let t = r.Simulator.transcripts.(0) in
  Alcotest.check_raises "round 0" (Invalid_argument "Transcript.sent: round out of range") (fun () ->
      ignore (Transcript.sent t 0));
  Alcotest.check_raises "round past end" (Invalid_argument "Transcript.received: round out of range")
    (fun () -> ignore (Transcript.received t 3 0));
  (* Transcript equality is sensitive to the fingerprint. *)
  let t' =
    Transcript.make ~fingerprint:"other" ~sent:(Transcript.sent_sequence t)
      ~received:(Array.init 2 (fun r -> Array.init 5 (fun p -> Transcript.received t (r + 1) p)))
  in
  Alcotest.(check bool) "fingerprint matters" false (Transcript.equal t t')

(* Randomized parity: sent_string decoded from the packed 2-bit code must
   match the character-by-character construction from the raw Msg array,
   including sequences long past one machine word (40 rounds = 80 bits). *)
let test_packed_sent_code () =
  let module Bits = Bcclb_util.Bits in
  let rng = Rng.create ~seed:77 in
  for _ = 1 to 100 do
    let rounds = 1 + Rng.int rng 40 in
    let sent =
      Array.init rounds (fun _ ->
          match Rng.int rng 3 with 0 -> Msg.silent | 1 -> Msg.zero | _ -> Msg.one)
    in
    let received = Array.map (fun _ -> [||]) sent in
    let t = Transcript.make ~fingerprint:"fp" ~sent ~received in
    let expect = String.init rounds (fun i -> Msg.to_char1 sent.(i)) in
    Alcotest.(check string) "sent_string parity" expect (Transcript.sent_string t);
    let code = Transcript.sent_code t in
    Alcotest.(check int) "code length" (2 * rounds) (Bits.Seq.length code);
    for r = 0 to rounds - 1 do
      Alcotest.(check int) "code1 per round"
        (Msg.code1 sent.(r))
        (Bits.value (Bits.Seq.word code ~pos:(2 * r) ~len:2))
    done
  done

(* run_sent_codes must agree with the full simulator's transcripts. *)
let test_run_sent_codes () =
  let algo = Bcclb_algorithms.Trivial.chatter ~rounds:5 () in
  let inst = Instance.kt0_circulant (Gen.cycle 8) in
  let r = Simulator.run algo inst in
  let codes = Simulator.run_sent_codes algo inst in
  Array.iteri
    (fun v t ->
      let decoded =
        String.init (Transcript.rounds t) (fun i ->
            Msg.char_of_code1 ((codes.(v) lsr (2 * i)) land 3))
      in
      Alcotest.(check string) "codes = transcript" (Transcript.sent_string t) decoded)
    r.Simulator.transcripts

(* The three simulator entries share one engine setup and differ only in
   their recorder, so they must agree wherever their outputs overlap:
   [run_outputs] is [run]'s outputs, and [run_sent_codes] is [run]'s
   transcripts packed 2 bits per round (where codes apply: BCC(1), at
   most 31 rounds). *)
let test_entries_agree () =
  let module A = Bcclb_algorithms in
  let n = 10 in
  let rng = Rng.create ~seed:41 in
  let yes = Gen.random_cycle rng n and no = Gen.random_two_cycles rng n in
  let kt0 = [ Instance.kt0_circulant yes; Instance.kt0_circulant no ] in
  let kt1 = [ Instance.kt1_of_graph yes; Instance.kt1_of_graph no ] in
  let packed_code t =
    let code = ref 0 in
    for r = 1 to Transcript.rounds t do
      code := !code lor (Msg.code1 (Transcript.sent t r) lsl (2 * (r - 1)))
    done;
    !code
  in
  let check (algo : bool Algo.packed) insts =
    List.iteri
      (fun i inst ->
        let what = Printf.sprintf "%s on instance %d" (Algo.name algo) i in
        let seed = 7 + i in
        let full = Simulator.run ~seed algo inst in
        Alcotest.(check (array bool))
          (what ^ ": run_outputs = run")
          full.Simulator.outputs
          (Simulator.run_outputs ~seed algo inst);
        if Algo.bandwidth algo ~n = 1 && 2 * Algo.rounds algo ~n <= Bcclb_util.Bits.max_width then
          Alcotest.(check (array int))
            (what ^ ": run_sent_codes = packed transcripts")
            (Array.map packed_code full.Simulator.transcripts)
            (Simulator.run_sent_codes ~seed algo inst))
      insts
  in
  (* The families bin/run_algo.ml offers, each on its own model. *)
  let mt_bcc1 = { A.Mt_connectivity.s0 = 4; phases = 2; bandwidth = 1 } in
  List.iter (fun algo -> check algo kt0)
    [ A.Discovery.connectivity ~knowledge:Instance.KT0 ~max_degree:2; A.Min_label.connectivity ();
      A.Hashed_discovery.connectivity ~k:6; A.Kt0_compiler.compile (A.Boruvka.connectivity ());
      A.Trivial.always_yes () ];
  List.iter (fun algo -> check algo kt1)
    [ A.Discovery.connectivity ~knowledge:Instance.KT1 ~max_degree:2; A.Boruvka.connectivity ();
      Split.compile (A.Boruvka.connectivity ()); A.Adjacency_matrix.connectivity ();
      A.Agm_connectivity.connectivity (); A.Mt_connectivity.connectivity ();
      A.Mt_connectivity.connectivity ~params:mt_bcc1 () ];
  (* E3's truncated subjects at every t up to the full algorithm. *)
  for t = 0 to Bcclb_core.Kt0_bound.upper_bound_rounds ~n do
    List.iter
      (fun optimist ->
        let family f = f ~knowledge:Instance.KT0 ~max_degree:2 ~rounds:t ~optimist in
        check (family A.Discovery.connectivity_truncated) kt0;
        check (family A.Discovery.connectivity_partial) kt0)
      [ true; false ]
  done;
  (* Hashed discovery cut after every round, collisions (k = 1) included. *)
  List.iter
    (fun k ->
      let (Algo.Packed a) = A.Hashed_discovery.connectivity ~k in
      for t = 0 to 3 * k do
        check (Algo.pack (Algo.truncate ~rounds:t a)) (kt0 @ kt1)
      done)
    [ 1; 3; 6 ]

let test_indistinguishable_from () =
  let algo = Bcclb_algorithms.Trivial.chatter ~rounds:5 () in
  let inst = Instance.kt0_circulant (Gen.cycle 8) in
  let crossed = Instance.cross inst (0, 1) (4, 5) in
  let base = Simulator.run algo inst in
  let pred = Simulator.indistinguishable_from base crossed in
  Alcotest.(check bool) "partial application matches one-shot" true
    (pred (Simulator.run algo crossed));
  Alcotest.(check bool) "self-indistinguishable" true
    (Simulator.indistinguishable_from base inst base)

let test_msg_ordering () =
  Alcotest.(check int) "silent < word" (-1) (Msg.compare Msg.silent Msg.zero);
  Alcotest.(check int) "zero < one" (-1) (Msg.compare Msg.zero Msg.one);
  Alcotest.(check int) "equal" 0 (Msg.compare Msg.one Msg.one);
  Alcotest.(check char) "char of silent" '_' (Msg.to_char1 Msg.silent);
  Alcotest.(check bool) "wide to_char1 raises" true
    (try
       ignore (Msg.to_char1 (Msg.of_int ~width:2 1));
       false
     with Invalid_argument _ -> true)

let test_msg_of_bit_allocates_nothing () =
  (* Every 1-bit emission of every BCC(1) algorithm goes through
     [Msg.of_bit]: it returns the two shared messages. *)
  Alcotest.(check bool) "of_bit true == one" true (Msg.of_bit true == Msg.one);
  Alcotest.(check bool) "of_bit false == zero" true (Msg.of_bit false == Msg.zero);
  let w0 = Gc.minor_words () in
  for i = 1 to 1000 do
    ignore (Sys.opaque_identity (Msg.of_bit (i land 1 = 0)))
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.)) "minor words for 1000 calls" 0. words

let test_problems () =
  Alcotest.(check bool) "system AND" false (Problems.system_decision [| true; false; true |]);
  Alcotest.(check bool) "system AND all" true (Problems.system_decision [| true; true |]);
  Alcotest.(check bool) "two-cycle promise yes" true (Problems.is_two_cycle_input cycle6);
  let rng = Rng.create ~seed:1 in
  Alcotest.(check bool) "two-cycle promise no-instance" true
    (Problems.is_two_cycle_input (Gen.random_two_cycles rng 10));
  Alcotest.(check bool) "three cycles not two-cycle" false
    (Problems.is_two_cycle_input (Gen.multicycle_of_lengths rng 9 [ 3; 3; 3 ]));
  Alcotest.(check bool) "multicycle allows many (len>=4)" true
    (Problems.is_multicycle_input (Gen.multicycle_of_lengths rng 12 [ 4; 4; 4 ]));
  Alcotest.(check bool) "multicycle rejects short cycles" false
    (Problems.is_multicycle_input (Gen.multicycle_of_lengths rng 9 [ 3; 3; 3 ]));
  Alcotest.(check bool) "path not promise" false
    (Problems.is_two_cycle_input (G.of_edges ~n:3 [ (0, 1); (1, 2) ]))

(* ---- Inbox.once: common knowledge computed once per board ---- *)

(* A 2-round toy whose finish asks its board for a value that counts
   how often it was computed. *)
let counting_algo calls =
  let key = Type.Id.make () in
  Algo.pack
    (Algo.bcc1 ~name:"counting" ~rounds:(fun ~n:_ -> 2) ~init:(fun _ -> ())
       ~step:(fun () ~round:_ ~inbox:_ -> ((), Msg.one))
       ~finish:(fun () ~inbox ->
         Inbox.once inbox key (fun () ->
             incr calls;
             !calls)))

let test_once_per_run () =
  let calls = ref 0 in
  let algo = counting_algo calls in
  let inst = Instance.kt0_circulant cycle6 in
  Alcotest.(check (array int)) "one computation, read by every vertex" (Array.make 6 1)
    (Simulator.run_outputs algo inst);
  Alcotest.(check (array int)) "the next run computes its own" (Array.make 6 2)
    (Simulator.run_outputs algo inst);
  Alcotest.(check (array int)) "so does a transcript run" (Array.make 6 3)
    (Simulator.run algo inst).Simulator.outputs

let test_once_keys () =
  let module Board = Bcclb_engine.Topology.Board in
  let board = Board.create () in
  let a = Inbox.of_ports board ~ports:2 and b = Inbox.view board ~row:[| 1; 0 |] in
  let key = Type.Id.make () and other = Type.Id.make () in
  let calls = ref 0 in
  let f () =
    incr calls;
    !calls
  in
  Board.post board [| Msg.zero; Msg.one |];
  Alcotest.(check int) "first request computes" 1 (Inbox.once a key f);
  Alcotest.(check int) "same board, rounds and shift: shared" 1 (Inbox.once b key f);
  Alcotest.(check string) "another key computes" "other" (Inbox.once b other (fun () -> "other"));
  Board.post board [| Msg.one; Msg.one |];
  Alcotest.(check int) "one more round heard computes" 2 (Inbox.once a key f);
  Alcotest.(check int) "a shifted view computes" 3 (Inbox.once (Inbox.shift a ~rounds:1) key f);
  Alcotest.(check int) "same shift, other view: shared" 3 (Inbox.once (Inbox.shift b ~rounds:1) key f);
  Alcotest.(check int) "unshifted again: shared" 2 (Inbox.once b key f);
  Alcotest.check_raises "a raising computation" (Failure "no") (fun () ->
      ignore (Inbox.once a other (fun () -> failwith "no")));
  Alcotest.(check string) "stores nothing" "computed" (Inbox.once b other (fun () -> "computed"));
  Alcotest.(check (pair int int)) "misses, hits" (5, 3) (Board.shared board)

let test_once_split_inner () =
  (* Split's inner rounds are a board per vertex: nothing is shared
     across vertices there, and the run's board is never asked. *)
  let calls = ref 0 in
  let split = Split.compile (counting_algo calls) in
  let misses = Bcclb_obs.Metrics.Counter.v "bcc.shared_misses" in
  let before = Bcclb_obs.Metrics.Counter.local misses in
  let out = Simulator.run_outputs split (Instance.kt0_circulant cycle6) in
  Alcotest.(check int) "every vertex computed its own" 6 !calls;
  Alcotest.(check (list int)) "six computations" [ 1; 2; 3; 4; 5; 6 ]
    (List.sort Int.compare (Array.to_list out));
  Alcotest.(check int) "no miss on the run's board" before (Bcclb_obs.Metrics.Counter.local misses)

let test_components_verifier () =
  let g = Gen.multicycle_of_lengths (Rng.create ~seed:2) 10 [ 4; 6 ] in
  let truth = G.components g in
  Alcotest.(check bool) "truth accepted" true (Problems.components_correct g truth);
  (* Any relabelling is fine. *)
  let relabeled = Array.map (fun l -> l + 1000) truth in
  Alcotest.(check bool) "relabelling accepted" true (Problems.components_correct g relabeled);
  (* Merging two components is not. *)
  let merged = Array.map (fun _ -> 0) truth in
  Alcotest.(check bool) "merged rejected" false (Problems.components_correct g merged);
  (* Splitting one component is not. *)
  let split = Array.copy truth in
  split.(0) <- 999999;
  Alcotest.(check bool) "split rejected" false (Problems.components_correct g split)


let test_split_compiler_boruvka () =
  (* Compile the BCC(2L) Boruvka algorithm down to BCC(1): outputs must
     be identical on arbitrary KT-1 instances. *)
  let inner = Bcclb_algorithms.Boruvka.connectivity () in
  let outer = Split.compile inner in
  Alcotest.(check int) "bandwidth 1" 1 (Algo.bandwidth outer ~n:64);
  let rng = Rng.create ~seed:41 in
  for _ = 1 to 8 do
    let g = Bcclb_graph.Gen.gnp rng 12 0.18 in
    let inst = Instance.kt1_of_graph g in
    let direct = Simulator.run inner inst in
    let split = Simulator.run outer inst in
    Alcotest.(check (array bool)) "same outputs" direct.Simulator.outputs split.Simulator.outputs
  done

let test_split_compiler_rounds () =
  let inner = Bcclb_algorithms.Boruvka.connectivity () in
  let outer = Split.compile inner in
  let n = 64 in
  let b = Algo.bandwidth inner ~n in
  Alcotest.(check int) "round blow-up"
    (Algo.rounds inner ~n * Split.block_len ~b)
    (Algo.rounds outer ~n);
  Alcotest.(check int) "header bits b=1" 1 (Split.header_bits ~b:1);
  Alcotest.(check int) "header bits b=14" 4 (Split.header_bits ~b:14)

let test_split_compiler_identity_on_bcc1 () =
  (* Splitting a BCC(1) algorithm still works (block length 2). *)
  let inner = Bcclb_algorithms.Discovery.connectivity ~knowledge:Instance.KT0 ~max_degree:2 in
  let outer = Split.compile inner in
  let rng = Rng.create ~seed:42 in
  let g = Bcclb_graph.Gen.random_two_cycles rng 10 in
  let inst = Instance.kt0_circulant g in
  Alcotest.(check bool) "same decision" 
    (Problems.system_decision (Simulator.run inner inst).Simulator.outputs)
    (Problems.system_decision (Simulator.run outer inst).Simulator.outputs)

let test_split_preserves_silence_patterns () =
  (* An inner algorithm that alternates silence and words must roundtrip
     exactly through the width-header encoding. *)
  let inner =
    Algo.pack
      { Algo.name = "alternator";
        anonymous = false;
        bandwidth = (fun ~n:_ -> 5);
        rounds = (fun ~n:_ -> 4);
        init = (fun view -> (View.id view, []));
        step =
          (fun (id, log) ~round ~inbox ->
            let received = Array.to_list (Array.map Msg.to_string (Inbox.to_array inbox)) in
            let msg = if (round + id) mod 2 = 0 then Msg.silent else Msg.of_int ~width:(1 + (round mod 5)) round in
            ((id, received :: log), msg));
        finish = (fun (_, log) ~inbox -> List.length log = 4 && Inbox.ports inbox > 0);
        truncates = None }
  in
  let outer = Split.compile inner in
  let inst = Instance.kt0_circulant (Bcclb_graph.Gen.cycle 6) in
  let direct = Simulator.run inner inst in
  let split = Simulator.run outer inst in
  Alcotest.(check (array bool)) "alternator outputs" direct.Simulator.outputs split.Simulator.outputs

let suites =
  [ Alcotest.test_case "instance construction" `Quick test_instance_construction;
    Alcotest.test_case "random wiring" `Quick test_instance_random_wiring;
    Alcotest.test_case "circulant tables shared per n" `Quick test_circulant_tables;
    Alcotest.test_case "KT-1 wiring" `Quick test_kt1_wiring;
    Alcotest.test_case "KT-0 hides ids" `Quick test_kt0_view_hides_ids;
    Alcotest.test_case "independence (Def 3.2)" `Quick test_independence;
    Alcotest.test_case "crossing (Def 3.3)" `Quick test_crossing_structure;
    Alcotest.test_case "crossing errors" `Quick test_crossing_errors;
    Alcotest.test_case "Lemma 3.4 via chatter" `Quick test_lemma_3_4_chatter;
    Alcotest.test_case "crossing distinguished by discovery" `Quick test_crossing_distinguished_by_discovery;
    Alcotest.test_case "bandwidth enforced" `Quick test_simulator_bandwidth_enforced;
    Alcotest.test_case "message delivery" `Quick test_simulator_delivery;
    Alcotest.test_case "transcripts" `Quick test_transcripts;
    Alcotest.test_case "packed sent_code parity" `Quick test_packed_sent_code;
    Alcotest.test_case "run_sent_codes = transcripts" `Quick test_run_sent_codes;
    Alcotest.test_case "simulator entries agree" `Quick test_entries_agree;
    Alcotest.test_case "indistinguishable_from" `Quick test_indistinguishable_from;
    Alcotest.test_case "split compiler: boruvka" `Quick test_split_compiler_boruvka;
    Alcotest.test_case "split compiler: rounds" `Quick test_split_compiler_rounds;
    Alcotest.test_case "split compiler: bcc1 identity" `Quick test_split_compiler_identity_on_bcc1;
    Alcotest.test_case "split compiler: silence patterns" `Quick test_split_preserves_silence_patterns;
    Alcotest.test_case "view details" `Quick test_view_details;
    Alcotest.test_case "transcript bounds" `Quick test_transcript_bounds;
    Alcotest.test_case "msg ordering" `Quick test_msg_ordering;
    Alcotest.test_case "1-bit messages allocate nothing" `Quick test_msg_of_bit_allocates_nothing;
    Alcotest.test_case "problem specs" `Quick test_problems;
    Alcotest.test_case "components verifier" `Quick test_components_verifier;
    Alcotest.test_case "shared values: once per run" `Quick test_once_per_run;
    Alcotest.test_case "shared values: rounds, shift and key" `Quick test_once_keys;
    Alcotest.test_case "shared values: split inner boards" `Quick test_once_split_inner ]

(* A deterministic pseudo-random inner BCC(b) algorithm: message widths
   and bits derived from (id, round, bits heard so far). Used to fuzz the
   Split compiler against the direct simulator. *)
let fuzz_inner ~b ~rounds_n seed =
  Algo.pack
    { Algo.name = Printf.sprintf "fuzz-%d" seed;
      anonymous = false;
      bandwidth = (fun ~n:_ -> b);
      rounds = (fun ~n:_ -> rounds_n);
      init = (fun view -> (View.id view, 0));
      step =
        (fun (id, heard) ~round ~inbox ->
          let heard =
            Array.fold_left (fun acc m -> acc + (Msg.width m * 7) + 1) heard (Inbox.to_array inbox)
          in
          let h = (id * 31) + (round * 101) + (heard * 17) + seed in
          let msg =
            match h mod (b + 1) with
            | 0 -> if h land 1 = 0 then Msg.silent else Msg.of_int ~width:b 0
            | w -> Msg.of_int ~width:w (((h / 7) land max_int) mod (1 lsl w))
          in
          ((id, heard), msg));
      finish =
        (fun (id, heard) ~inbox ->
          let heard =
            Array.fold_left (fun acc m -> acc + (Msg.width m * 7) + 1) heard (Inbox.to_array inbox)
          in
          (id + heard) land 0xFFFF);
      truncates = None }

let qsuites =
  let open QCheck2 in
  [ Test.make ~name:"crossing is an involution on the input graph" ~count:200
      Gen.(pair (8 -- 16) (0 -- 100000))
      (fun (n, seed) ->
        let rng = Rng.create ~seed in
        let g = Bcclb_graph.Gen.random_cycle rng n in
        let inst = Instance.kt0_circulant g in
        (* Find an independent pair on the cycle. *)
        match Bcclb_graph.Cycles.of_graph g with
        | None -> false
        | Some s ->
          let cyc = List.hd (Bcclb_graph.Cycles.cycles s) in
          let e1 = (cyc.(0), cyc.(1)) and e2 = (cyc.(3), cyc.(4)) in
          if not (Instance.independent inst e1 e2) then QCheck2.assume_fail ()
          else begin
            let crossed = Instance.cross inst e1 e2 in
            (* Crossing the two new edges back restores the graph. *)
            let e1' = (fst e1, snd e2) and e2' = (fst e2, snd e1) in
            let restored = Instance.cross crossed e1' e2' in
            G.equal (Instance.input_graph restored) g
          end);
    Test.make ~name:"crossing preserves every view" ~count:200
      Gen.(pair (8 -- 16) (0 -- 100000))
      (fun (n, seed) ->
        let rng = Rng.create ~seed in
        let g = Bcclb_graph.Gen.random_cycle rng n in
        let inst = Instance.kt0_random rng g in
        match Bcclb_graph.Cycles.of_graph g with
        | None -> false
        | Some s ->
          let cyc = List.hd (Bcclb_graph.Cycles.cycles s) in
          let e1 = (cyc.(0), cyc.(1)) and e2 = (cyc.(3), cyc.(4)) in
          if not (Instance.independent inst e1 e2) then QCheck2.assume_fail ()
          else begin
            let crossed = Instance.cross inst e1 e2 in
            ignore (Instance.validate crossed);
            let rec ok v =
              v >= n
              || String.equal
                   (View.fingerprint (Instance.view inst v))
                   (View.fingerprint (Instance.view crossed v))
                 && ok (v + 1)
            in
            ok 0
          end);
    Test.make ~name:"simulator deterministic given seed" ~count:50
      Gen.(pair (6 -- 12) (0 -- 100000))
      (fun (n, seed) ->
        let rng = Rng.create ~seed in
        let g = Bcclb_graph.Gen.random_cycle rng n in
        let inst = Instance.kt0_circulant g in
        let algo = Bcclb_algorithms.Trivial.coin_guess () in
        let r1 = Simulator.run ~seed algo inst and r2 = Simulator.run ~seed algo inst in
        r1.Simulator.outputs = r2.Simulator.outputs);
    Test.make ~name:"public coins agree across vertices" ~count:50
      Gen.(pair (6 -- 12) (0 -- 100000))
      (fun (n, seed) ->
        let rng = Rng.create ~seed in
        let g = Bcclb_graph.Gen.random_cycle rng n in
        let inst = Instance.kt0_circulant g in
        let algo = Bcclb_algorithms.Trivial.coin_guess () in
        let r = Simulator.run ~seed algo inst in
        let first = r.Simulator.outputs.(0) in
        Array.for_all (Bool.equal first) r.Simulator.outputs);
    Test.make ~name:"split compiler = direct on fuzzed BCC(b) algorithms" ~count:60
      Gen.(triple (1 -- 8) (1 -- 5) (0 -- 100000))
      (fun (b, rounds_n, seed) ->
        let rng = Rng.create ~seed in
        let n = 5 + Rng.int rng 6 in
        let g = Bcclb_graph.Gen.random_multicycle rng n in
        let inst = Instance.kt0_circulant g in
        let inner = fuzz_inner ~b ~rounds_n seed in
        let outer = Split.compile inner in
        let direct = Simulator.run inner inst in
        let split = Simulator.run outer inst in
        direct.Simulator.outputs = split.Simulator.outputs) ]
