open Bcclb_bcc
module G = Bcclb_graph.Graph
module Gen = Bcclb_graph.Gen
module Cycles = Bcclb_graph.Cycles
module Rng = Bcclb_util.Rng

let cycle6 = Gen.cycle 6

(* The latest round heard, by port. *)
let latest_row inbox = Array.init (Inbox.ports inbox) (Inbox.latest inbox)

(* The same initial knowledge: views equal but for the public coins. *)
let same_view a b = { a with View.coins = b.View.coins } = b

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

let test_circulant_wiring () =
  (* Default IDs are 1..n: the same instance as passing them. *)
  let rng = Rng.create ~seed:31 in
  List.iter
    (fun g ->
      let n = G.n g in
      let inst = Instance.kt0_circulant g in
      Alcotest.(check bool) "default IDs = 1..n" true
        (Instance.equal inst (Instance.kt0_circulant ~ids:(Array.init n succ) g));
      ignore (Instance.validate inst))
    [ Gen.random_cycle rng 9; Gen.random_two_cycles rng 12; Gen.gnp rng 10 0.4;
      Gen.random_bounded_degree rng 11 3 ];
  (* Crossing tabulates the wiring into its own tables: the instance it
     crossed keeps its wiring, and equality reads through both forms, so
     crossing back restores an equal instance. *)
  let base = Instance.kt0_circulant cycle6 in
  let crossed = Instance.cross base (0, 1) (3, 4) in
  Alcotest.(check bool) "crossing rewired its copy" false (Instance.equal base crossed);
  Alcotest.(check int) "base wiring untouched" 1 (Instance.peer base 0 0);
  Alcotest.(check bool) "crossing back restores it" true
    (Instance.equal base (Instance.cross crossed (0, 4) (3, 1)));
  Alcotest.check_raises "port past end" (Invalid_argument "Instance.peer: no such port") (fun () ->
      ignore (Instance.peer base 0 5));
  Alcotest.check_raises "no port to itself"
    (Invalid_argument "Instance.port_to: no port between these vertices") (fun () ->
      ignore (Instance.port_to base 2 2));
  Alcotest.check_raises "duplicate IDs" (Invalid_argument "Instance.validate: duplicate ID") (fun () ->
      ignore (Instance.kt1_of_graph ~ids:[| 4; 1; 2; 3; 4; 5 |] cycle6));
  (* The census stamp builds the same instance from the cycles, and
     refuses cycles that repeat or miss a vertex, or a 2-cycle. *)
  let g = Gen.random_multicycle rng 10 in
  let stamp = Instance.kt0_circulant_sweep 10 in
  Alcotest.(check bool) "stamp = kt0_circulant" true
    (Instance.equal (stamp (Cycles.cycles (Option.get (Cycles.of_graph g)))) (Instance.kt0_circulant g));
  let cover = Invalid_argument "Instance.kt0_circulant_sweep: cycles do not cover 0..n-1 exactly once" in
  Alcotest.check_raises "repeated vertex" cover (fun () ->
      ignore (stamp [ [| 0; 1; 2; 3 |]; [| 3; 4; 5; 6; 7; 8; 9 |] ]));
  Alcotest.check_raises "missing vertex" cover (fun () ->
      ignore (stamp [ [| 0; 1; 2; 3 |]; [| 4; 5; 6; 7; 8 |] ]));
  Alcotest.check_raises "2-cycle"
    (Invalid_argument "Instance.kt0_circulant_sweep: a cycle is shorter than 3") (fun () ->
      ignore (stamp [ [| 0; 1 |]; [| 2; 3; 4; 5; 6; 7; 8; 9 |] ]))

(* Words [f ()] allocates per vertex of an n-vertex instance, on both
   heaps: an array past 256 words skips the minor heap, so
   [Gc.minor_words] alone would miss the wirings' rings and ID arrays.
   The minor heap is emptied first, so every word promoted during the
   call was allocated by it. *)
let per_vertex n f =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  Gc.minor ();
  let w0 = words () in
  let x = Sys.opaque_identity (f ()) in
  ((words () -. w0) /. float_of_int n, x)

(* Set-up is sized by degree, not by n: a cycle's instance stays under
   64 words a vertex and its n views under 16 at n = 200, well below the
   n words a vertex that a wiring table, a per-port marking or a
   per-view row copy would cost. *)
let test_setup_allocation () =
  let n = 200 in
  let g = Gen.cycle n in
  let inst_words, inst = per_vertex n (fun () -> Instance.kt0_circulant g) in
  let view_words, _ = per_vertex n (fun () -> Array.init n (Instance.view inst)) in
  if inst_words > 64. then
    Alcotest.failf "kt0_circulant: %.1f words per vertex (want <= 64)" inst_words;
  if view_words > 16. then
    Alcotest.failf "n views: %.1f words per vertex (want <= 16)" view_words

(* The computed wirings at n = 2048: a KT-1 instance on a random
   multicycle with its n views, and a circulant instance, each in O(n)
   words — not the 2n² words of a peer and a port_to table, nor a KT-1
   view's copied n-entry ID and neighbour rows. *)
let test_wiring_allocation () =
  let n = 2048 in
  let g = Gen.random_multicycle (Rng.create ~seed:12) n in
  let kt1_words, _ =
    per_vertex n (fun () ->
        let inst = Instance.kt1_of_graph g in
        Array.init n (Instance.view inst))
  in
  if kt1_words > 64. then
    Alcotest.failf "KT-1 instance and n views: %.1f words per vertex (want <= 64)" kt1_words;
  let circulant_words, _ = per_vertex n (fun () -> Instance.kt0_circulant g) in
  if circulant_words > 64. then
    Alcotest.failf "kt0_circulant: %.1f words per vertex (want <= 64)" circulant_words

(* The first pair of input edges [Instance.independent] accepts, trying
   both orientations of the second. *)
let independent_pair inst g =
  let edges = G.edges g in
  List.find_map
    (fun e1 ->
      List.find_map
        (fun (a, b) ->
          List.find_opt (Instance.independent inst e1) [ (a, b); (b, a) ]
          |> Option.map (fun e2 -> (e1, e2)))
        edges)
    edges

(* Distinct IDs in [1, n³]: default, a permutation, descending, 3i + 7
   and random. *)
let id_families rng n =
  let seen = Hashtbl.create n in
  let rec fresh () =
    let id = 1 + Rng.int rng (n * n * n) in
    if Hashtbl.mem seen id then fresh ()
    else begin
      Hashtbl.add seen id ();
      id
    end
  in
  [ Array.init n succ; Array.map succ (Rng.permutation rng n); Array.init n (fun v -> n - v);
    Array.init n (fun i -> (3 * i) + 7); Array.init n (fun _ -> fresh ()) ]

(* Every constructor's wiring against the tabulated reference
   ([Wiring_oracle]): peer, port_to, port rows, input marking and KT-1
   views, then [same_knowledge] across every pair of instances and
   vertices. *)
let test_wiring_oracle () =
  let rng = Rng.create ~seed:41 in
  List.iter
    (fun (n, g) ->
      let built = ref [] in
      let add oracle inst =
        if not (Wiring_oracle.agrees oracle inst) then
          Alcotest.failf "n = %d: instance %d disagrees with its oracle" n (List.length !built);
        built := (oracle, inst) :: !built
      in
      add (Wiring_oracle.circulant g) (Instance.kt0_circulant g);
      add (Wiring_oracle.kt1 g) (Instance.kt1_of_graph g);
      List.iter
        (fun ids ->
          let seed = Rng.int rng 1_000_000 in
          add (Wiring_oracle.circulant ~ids g) (Instance.kt0_circulant ~ids g);
          add (Wiring_oracle.kt1 ~ids g) (Instance.kt1_of_graph ~ids g);
          add
            (Wiring_oracle.random ~ids (Rng.create ~seed) g)
            (Instance.kt0_random ~ids (Rng.create ~seed) g))
        (id_families rng n);
      Option.iter
        (fun s -> add (Wiring_oracle.circulant g) (Instance.kt0_circulant_sweep n (Cycles.cycles s)))
        (Cycles.of_graph g);
      List.iter
        (fun (oracle, inst) ->
          match independent_pair inst g with
          | Some (e1, e2) -> add (Wiring_oracle.cross oracle e1 e2) (Instance.cross inst e1 e2)
          | None -> ())
        (List.filter (fun (o, _) -> not o.Wiring_oracle.kt1) !built);
      List.iter
        (fun (oa, a) ->
          List.iter
            (fun (ob, b) ->
              for i = 0 to (n * n) - 1 do
                let v = i / n and u = i mod n in
                if Instance.same_knowledge a v b u <> Wiring_oracle.same_knowledge oa v ob u then
                  Alcotest.failf "n = %d: same_knowledge %d %d disagrees with the oracle" n v u
              done)
            !built)
        !built)
    [ (2, G.of_edges ~n:2 [ (0, 1) ]); (3, Gen.cycle 3); (7, Gen.random_cycle rng 7);
      (8, Gen.gnp rng 8 0.5); (12, Gen.random_multicycle rng 12); (13, Gen.random_bounded_degree rng 13 3) ]

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
  Alcotest.(check (array int)) "input ports" [| 0; 4 |] (View.input_ports v)

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
    Alcotest.(check bool) "view preserved" true
      (same_view (Instance.view inst v) (Instance.view crossed v))
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
  Alcotest.(check bool) "distinguished" false (Simulator.indistinguishable algo inst crossed);
  (* So is an algorithm whose every vertex broadcasts the same on both
     (whether its ID is at most 4): the rewired ports of vertices 0, 1, 4
     and 5 deliver other bits in round 2. *)
  let low =
    Algo.pack
      (Algo.bcc1 ~name:"low" ~rounds:(fun ~n:_ -> 2)
         ~init:(fun view -> Msg.of_bit (View.id view <= 4))
         ~step:(fun m ~round:_ ~inbox:_ -> (m, m))
         ~finish:(fun _ ~inbox:_ -> true))
  in
  Alcotest.(check bool) "distinguished through the ports" false
    (Simulator.indistinguishable low inst crossed)

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
                (latest_row inbox))))
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
     [1; 2; 4; 5; 6], so id 2 sits behind port 1 and its own id behind
     none. *)
  Alcotest.(check (array int)) "ports in ID order" [| 1; 2; 4; 5; 6 |]
    (Array.init 5 (View.neighbor_id v));
  Alcotest.(check int) "own id's index" 2 (View.index_of_id v 3);
  Alcotest.check_raises "port past end" (Invalid_argument "View.neighbor_id: port out of range")
    (fun () -> ignore (View.neighbor_id v 5));
  Alcotest.check_raises "unknown id" Not_found (fun () -> ignore (View.index_of_id v 7));
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
  Alcotest.check_raises "port past end" (Invalid_argument "Transcript.received: port out of range")
    (fun () -> ignore (Transcript.received t 1 5));
  (* Transcript equality is sensitive to the initial knowledge: the same
     traffic on instances that differ only in IDs is distinguished at
     every vertex, and the same IDs are not. *)
  let on ids = Simulator.run algo (Instance.kt0_circulant ~ids cycle6) in
  let same = on (Array.init 6 succ) and other = on (Array.init 6 (fun v -> 10 + v)) in
  Array.iteri
    (fun v t ->
      Alcotest.(check string) "same traffic" (Transcript.sent_string t)
        (Transcript.sent_string other.Simulator.transcripts.(v));
      Alcotest.(check bool) "same IDs, equal" true (Transcript.equal t same.Simulator.transcripts.(v));
      Alcotest.(check bool) "fingerprint matters" false
        (Transcript.equal t other.Simulator.transcripts.(v)))
    r.Simulator.transcripts;
  (* One round, so nothing is received: only [sent] tells the runs
     apart, and messages compare by width and value, so a 0-bit word
     equals silence. *)
  let once msg =
    (Simulator.run
       (Algo.pack
          (Algo.bcc1 ~name:"once" ~rounds:(fun ~n:_ -> 1) ~init:ignore
             ~step:(fun () ~round:_ ~inbox:_ -> ((), msg))
             ~finish:(fun () ~inbox:_ -> true)))
       (Instance.kt0_circulant cycle6))
      .Simulator.transcripts
  in
  let equal a b = Array.for_all2 Transcript.equal (once a) (once b) in
  Alcotest.(check bool) "0-bit word = silence" true (equal (Msg.of_int ~width:0 0) Msg.silent);
  Alcotest.(check bool) "last broadcast matters" false (equal Msg.zero Msg.one)

(* [Instance.same_knowledge] is view equality but for the coins, without
   the views: on both models, with and without other IDs, after a
   crossing and across vertices. *)
let test_same_knowledge () =
  let rng = Rng.create ~seed:13 in
  let g = Gen.random_cycle rng 8 and c8 = Instance.kt0_circulant (Gen.cycle 8) in
  let insts =
    [ c8; Instance.cross c8 (0, 1) (4, 5); Instance.kt0_circulant g; Instance.kt0_random rng g;
      Instance.kt0_circulant ~ids:(Array.init 8 (fun v -> 20 - v)) g; Instance.kt1_of_graph g;
      Instance.kt1_of_graph ~ids:(Array.init 8 (fun v -> 3 * (v + 1))) g;
      Instance.kt1_of_graph (Gen.cycle 8) ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          for i = 0 to 63 do
            let v = i / 8 and u = i mod 8 in
            Alcotest.(check bool) "same_knowledge = equal views"
              (same_view (Instance.view a v) (Instance.view b u))
              (Instance.same_knowledge a v b u)
          done)
        insts)
    insts

(* sent_string is one Msg.to_char1 per round, read off the board, on a
   run long past one machine word of 2-bit codes: 45 rounds of silence,
   0s and 1s drawn from each vertex's ID and the round. *)
let test_sent_string () =
  let rounds = 45 in
  let char ~id ~round = "_01".[((id * 7) + (round * round)) mod 3] in
  let algo =
    Algo.pack
      (Algo.bcc1 ~name:"mixed"
         ~rounds:(fun ~n:_ -> rounds)
         ~init:View.id
         ~step:(fun id ~round ~inbox:_ ->
           ( id,
             match char ~id ~round with '_' -> Msg.silent | c -> Msg.of_bit (c = '1') ))
         ~finish:(fun _ ~inbox:_ -> true))
  in
  let inst = Instance.kt0_circulant (Gen.cycle 9) in
  let r = Simulator.run algo inst in
  Array.iteri
    (fun v t ->
      let expect = String.init rounds (fun i -> char ~id:(v + 1) ~round:(i + 1)) in
      Alcotest.(check string) "per-round to_char1" expect
        (String.init rounds (fun i -> Msg.to_char1 (Transcript.sent t (i + 1))));
      Alcotest.(check string) "sent_string" expect (Transcript.sent_string t))
    r.Simulator.transcripts

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

(* The simulator entries are reads of one execution, so they must agree
   wherever their outputs overlap:
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
  let a = Inbox.of_ports board ~ports:2 and b = Inbox.view board ~row:(Port_row.of_array [| 1; 0 |]) in
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
            let received = Array.to_list (Array.map Msg.to_string (latest_row inbox)) in
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
    Alcotest.test_case "circulant wiring and census stamp" `Quick test_circulant_wiring;
    Alcotest.test_case "instance and view set-up sized by degree" `Quick test_setup_allocation;
    Alcotest.test_case "wiring set-up at n = 2048 in O(n) words" `Quick test_wiring_allocation;
    Alcotest.test_case "wirings = the tabulated oracle" `Quick test_wiring_oracle;
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
    Alcotest.test_case "sent_string = per-round to_char1" `Quick test_sent_string;
    Alcotest.test_case "same_knowledge = equal views" `Quick test_same_knowledge;
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
            Array.fold_left (fun acc m -> acc + (Msg.width m * 7) + 1) heard (latest_row inbox)
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
            Array.fold_left (fun acc m -> acc + (Msg.width m * 7) + 1) heard (latest_row inbox)
          in
          (id + heard) land 0xFFFF);
      truncates = None }

(* Every constructor's port rows against its wiring: for each vertex the
   view's input ports are strictly ascending, are exactly the ports whose
   far end is an input neighbour, number [View.degree] = the vertex's
   degree in [input_graph], and agree with [View.is_input_port] on every
   port; and [validate] accepts the instance. *)
let rows_agree_with_wiring inst =
  let n = Instance.n inst in
  let g = Instance.input_graph inst in
  let all_ports = List.init (n - 1) Fun.id in
  ignore (Instance.validate inst);
  List.for_all
    (fun v ->
      let view = Instance.view inst v in
      let ports = View.input_ports view in
      (* Ascending and distinct, as [all_ports] is. *)
      let wired =
        List.filter (fun p -> Instance.is_input_edge inst v (Instance.peer inst v p)) all_ports
      in
      Array.to_list ports = wired
      && Array.length ports = View.degree view
      && View.degree view = G.degree g v
      && List.for_all (fun p -> View.is_input_port view p = List.mem p wired) all_ports)
    (List.init n Fun.id)

let qsuites =
  let open QCheck2 in
  [ Test.make ~name:"port rows agree with the wiring under every constructor" ~count:120
      Gen.(triple (0 -- 3) (6 -- 24) (0 -- 100000))
      (fun (family, n, seed) ->
        let rng = Rng.create ~seed in
        let g =
          match family with
          | 0 -> Bcclb_graph.Gen.random_cycle rng n
          | 1 -> Bcclb_graph.Gen.random_multicycle rng n
          | 2 -> Bcclb_graph.Gen.gnp rng n (0.3 +. (0.6 *. Rng.float rng))
          | _ -> Bcclb_graph.Gen.random_bounded_degree rng n (1 + Rng.int rng 5)
        in
        let ids = Array.map (fun i -> (3 * i) + 7) (Rng.permutation rng n) in
        let circulant = Instance.kt0_circulant g in
        let built =
          [ circulant; Instance.kt0_circulant ~ids g; Instance.kt0_random rng g;
            Instance.kt1_of_graph ~ids g ]
          @
          match Cycles.of_graph g with
          | Some s -> [ Instance.kt0_circulant_sweep n (Cycles.cycles s) ]
          | None -> []
        in
        let crossed =
          match independent_pair circulant g with
          | Some (e1, e2) -> [ Instance.cross circulant e1 e2 ]
          | None -> []
        in
        List.for_all
          (fun inst -> rows_agree_with_wiring inst && G.equal (Instance.input_graph inst) g)
          built
        && List.for_all
             (fun inst ->
               rows_agree_with_wiring inst
               && List.for_all
                    (fun v -> G.degree (Instance.input_graph inst) v = G.degree g v)
                    (List.init n Fun.id))
             crossed);
    Test.make ~name:"crossing is an involution on the input graph" ~count:200
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
              v >= n || (same_view (Instance.view inst v) (Instance.view crossed v) && ok (v + 1))
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
