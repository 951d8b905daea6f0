(* Layer kernels: each library's public functions timed in-process on
   Mclock, on inputs drawn from --seed. A row is the median and IQR of
   at least 11 calls after two warm-up calls; allocation is the
   Gc.minor_words delta of the calling domain. Where a layer guarantees
   its answer (exact sparse recovery, framing round-trips, Lemma 3.4,
   one-sided error on YES instances), the kernel checks it and a wrong
   answer counts as a failed operation. *)

module Mclock = Bcclb_obs.Mclock
module Rng = Bcclb_util.Rng
module Bits = Bcclb_util.Bits
module Gen = Bcclb_graph.Gen
module Instance = Bcclb_bcc.Instance
module Algo = Bcclb_bcc.Algo
module Simulator = Bcclb_bcc.Simulator
module Problems = Bcclb_bcc.Problems
module Engine = Bcclb_engine.Engine
module Topology = Bcclb_engine.Topology
module Pool = Bcclb_engine.Pool
module Algos = Bcclb_algorithms
module Core = Bcclb_core
module H = Bcclb_harness
module Ufind = Bcclb_ufind.Ufind

type row = { name : string; unit : string; stats : Perfbench.Stats.t }

type report = { rows : row list; checked : int; failures : string list }

let warmup = 2

(* Runs [f i] for i = 0 .. warmup + calls - 1 and returns the elapsed
   ns and allocated minor words of the calls past the warm-up. *)
let sample ?(calls = 11) f =
  List.filter_map
    (fun i ->
      let w0 = Gc.minor_words () in
      let t0 = Mclock.now_ns () in
      f i;
      let ns = float_of_int (Mclock.now_ns () - t0) in
      let words = Gc.minor_words () -. w0 in
      if i < warmup then None else Some (ns, words))
    (List.init (warmup + calls) Fun.id)

let row name unit xs = { name; unit; stats = Perfbench.Stats.of_list xs }
let per scale xs = List.map (fun x -> x /. scale) xs
let times s = List.map fst s

(* Port p of vertex v leads to [ports.(v).(p)]: a random permutation of
   the other vertices per vertex, as in KT-0. *)
let random_ports rng n =
  Array.init n (fun v ->
      let others = Array.init (n - 1) (fun p -> if p < v then p else p + 1) in
      Rng.shuffle_in_place rng others;
      others)

let truncated ~rounds =
  Algos.Discovery.connectivity_truncated ~knowledge:Instance.KT0 ~max_degree:2 ~rounds
    ~optimist:true

let fresh_seed rng = 1 + Rng.int rng 1_000_000_000

let run ~seed ~scratch =
  let rng = Rng.create ~seed in
  let checked = ref 0 and failures = ref [] in
  let check what ok =
    incr checked;
    if not ok then failures := what :: !failures
  in
  let rows = ref [] in
  let add r = rows := r :: !rows in
  (* ---- engine ---- *)
  let n = 48 and rounds = 36 in
  let ports = random_ports rng n in
  let peer v p = ports.(v).(p) in
  let spec =
    { Engine.n; rounds; step = (fun () ~round:_ ~vertex:_ ~inbox:_ -> ((), 1));
      exchange = Topology.broadcast ~n ~peer }
  in
  let s =
    sample ~calls:51 (fun _ ->
        ignore (Engine.run spec ~init_state:(fun _ -> ()) ~init_inbox:(fun _ -> [||])))
  in
  add (row "engine.round_loop.ns_per_vr" "ns" (per (float_of_int (n * rounds)) (times s)));
  let exchange_row name unit n ~reps ~scale =
    let ports = random_ports rng n in
    let ex = Topology.broadcast ~n ~peer:(fun v p -> ports.(v).(p)) in
    let emits = Array.init n Fun.id in
    let s =
      sample (fun _ ->
          for _ = 1 to reps do
            ignore (ex ~round:1 ~prev:[||] emits)
          done)
    in
    add (row name unit (per (float_of_int reps *. scale) (times s)))
  in
  exchange_row "engine.exchange.us" "us" 48 ~reps:200 ~scale:1e3;
  exchange_row "engine.exchange_n1024.ms" "ms" 1024 ~reps:1 ~scale:1e6;
  let tasks = Array.init 10_000 Fun.id in
  let s = sample (fun _ -> ignore (Pool.map_batch ~num_domains:2 Fun.id tasks)) in
  add (row "engine.pool.us_per_task" "us" (per (10_000. *. 1e3) (times s)));
  (* ---- bcc: the simulator entries mc-sim and census execute ---- *)
  let yes = Instance.kt0_circulant (Gen.random_cycle rng n) in
  let no = Instance.kt0_circulant (Gen.random_two_cycles rng n) in
  let sim_seed = fresh_seed rng in
  let hd k = Algos.Hashed_discovery.connectivity ~k in
  check "hashed discovery answers YES on a one-cycle instance"
    (Problems.system_decision (Simulator.run ~seed:sim_seed (hd 12) yes).outputs);
  let s =
    sample (fun _ ->
        ignore (Simulator.run ~seed:sim_seed (hd 12) yes);
        ignore (Simulator.run ~seed:sim_seed (hd 12) no))
  in
  add (row "bcc.simulator_run.ns_per_vr" "ns" (per (float_of_int (2 * n * 36)) (times s)));
  add (row "bcc.simulator_run.kwords" "kwords" (per 2e3 (List.map snd s)));
  let s =
    sample (fun _ ->
        ignore (Simulator.run_sent_codes ~seed:sim_seed (hd 10) yes);
        ignore (Simulator.run_sent_codes ~seed:sim_seed (hd 10) no))
  in
  add (row "bcc.sent_codes.ns_per_vr" "ns" (per (float_of_int (2 * n * 30)) (times s)));
  let census_insts = Array.init 100 (fun _ -> Instance.kt0_circulant (Gen.random_cycle rng 11)) in
  let t3 = truncated ~rounds:3 in
  let s =
    sample (fun _ -> Array.iter (fun i -> ignore (Simulator.run_sent_codes t3 i)) census_insts)
  in
  add (row "bcc.sent_codes_census.ns_per_vr" "ns" (per (float_of_int (100 * 11 * 3)) (times s)));
  (* ---- algorithms ---- *)
  (match hd 12 with
  | Algo.Packed a ->
    let last = a.rounds ~n in
    let step_ns = Array.make (last + 1) 0 and finish_ns = ref 0 in
    let clocked f =
      let t0 = Mclock.now_ns () in
      let r = f () in
      (r, Mclock.now_ns () - t0)
    in
    let timed =
      Algo.pack
        { a with
          step =
            (fun st ~round ~inbox ->
              let r, dt = clocked (fun () -> a.step st ~round ~inbox) in
              step_ns.(round) <- step_ns.(round) + dt;
              r);
          finish =
            (fun st ~inbox ->
              let r, dt = clocked (fun () -> a.finish st ~inbox) in
              finish_ns := !finish_ns + dt;
              r) }
    in
    let first = ref [] and final = ref [] and finish = ref [] in
    ignore
      (sample (fun i ->
           Array.fill step_ns 0 (last + 1) 0;
           finish_ns := 0;
           ignore (Simulator.run ~seed:sim_seed timed no);
           if i >= warmup then begin
             let mean x = float_of_int x /. float_of_int n in
             first := mean step_ns.(1) :: !first;
             final := mean step_ns.(last) :: !final;
             finish := (mean !finish_ns /. 1e3) :: !finish
           end));
    add (row "algorithms.hashed_discovery.step_ns.first" "ns" !first);
    add (row "algorithms.hashed_discovery.step_ns.last" "ns" !final);
    add (row "algorithms.hashed_discovery.finish_us" "us" !finish));
  let kt1_pair n =
    ( Instance.kt1_of_graph (Gen.random_connected rng n),
      Instance.kt1_of_graph (Gen.random_two_cycles rng n) )
  in
  let run_pair name algo (y, no) =
    let s =
      sample (fun _ ->
          ignore (Simulator.run ~seed:sim_seed algo y);
          ignore (Simulator.run ~seed:sim_seed algo no))
    in
    add (row name "ms" (per 2e6 (times s)))
  in
  run_pair "algorithms.mt.run_ms" (Algos.Mt_connectivity.connectivity ()) (kt1_pair 48);
  run_pair "algorithms.agm.run_ms"
    (Algos.Agm_connectivity.connectivity ~bandwidth:4 ())
    (kt1_pair 24);
  (* ---- detsketch: syndromes over the n = 512 edge universe ---- *)
  let module Gfp = Bcclb_detsketch.Gfp in
  let module Syndrome = Bcclb_detsketch.Syndrome in
  let universe = 512 * 511 / 2 and sparsity = 24 in
  let field = Gfp.for_universe ~universe in
  let r = Syndrome.elements_for ~s:sparsity in
  let coords = Array.init 1000 (fun _ -> Rng.int rng universe) in
  let s =
    sample (fun _ ->
        let t = Syndrome.create ~field ~r in
        Array.iter (fun c -> Syndrome.add t ~coord:c ~weight:1) coords)
  in
  add (row "detsketch.syndrome_add_ns" "ns" (per 1000. (times s)));
  let planted () =
    let seen = Hashtbl.create 64 in
    let rec pick k acc =
      if k = 0 then acc
      else
        let c = Rng.int rng universe in
        if Hashtbl.mem seen c then pick k acc
        else begin
          Hashtbl.add seen c ();
          pick (k - 1) ((c, if Rng.bool rng then 1 else -1) :: acc)
        end
    in
    Array.of_list (List.sort compare (pick sparsity []))
  in
  let vectors = Array.init (warmup + 11) (fun _ -> planted ()) in
  let candidates = Array.init universe Fun.id in
  let decoded = Array.make (Array.length vectors) None in
  let s =
    sample (fun i ->
        let t = Syndrome.create ~field ~r in
        Array.iter (fun (c, w) -> Syndrome.add t ~coord:c ~weight:w) vectors.(i);
        decoded.(i) <- Syndrome.decode t ~s:sparsity ~candidates)
  in
  add (row "detsketch.decode_ms" "ms" (per 1e6 (times s)));
  let ok = Array.mapi (fun i d -> d = Some vectors.(i)) decoded in
  Array.iter (check "syndrome decode recovers the planted 24-sparse vector") ok;
  let oks = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 ok in
  add
    (row "detsketch.decode_ok_ratio" "ratio"
       [ float_of_int oks /. float_of_int (Array.length ok) ]);
  (* ---- sketch: l0 samplers at AGM's parameters for n = 64 ---- *)
  let module L0 = Bcclb_sketch.L0_sampler in
  let universe = 64 * 63 / 2 in
  let check_bits = (Algos.Agm_connectivity.default_params ~n:64).check_bits in
  let trials = 400 in
  let sketches =
    Array.init trials (fun _ ->
        let sk = L0.create ~universe ~check_bits (L0.fresh_spec rng) in
        let members = Hashtbl.create 32 in
        for _ = 1 to 32 do
          let e = Rng.int rng universe in
          if not (Hashtbl.mem members e) then begin
            Hashtbl.add members e ();
            L0.toggle sk e
          end
        done;
        (sk, members))
  in
  let s = sample (fun _ -> Array.iter (fun (sk, _) -> ignore (L0.sample sk)) sketches) in
  add (row "sketch.l0_sample_us" "us" (per (float_of_int trials *. 1e3) (times s)));
  let successes =
    Array.fold_left
      (fun acc (sk, members) ->
        match L0.sample sk with Some e when Hashtbl.mem members e -> acc + 1 | _ -> acc)
      0 sketches
  in
  add (row "sketch.l0_success_ratio" "ratio" [ float_of_int successes /. float_of_int trials ]);
  (* ---- core: the census pipeline, one size below the census
     workload's so the kernels stay a few seconds in all ---- *)
  let arena = ref None in
  let s = sample (fun _ -> arena := Some (Core.Arena.create ~n:9)) in
  add (row "core.arena_create_s" "s" (per 1e9 (times s)));
  let arena = Option.get !arena in
  let probes =
    Array.init 1000 (fun _ ->
        let h = Rng.int rng (Core.Arena.n_one arena) in
        let i = Rng.int rng 9 in
        (Core.Arena.one_cycle arena h, i, (i + 3 + Rng.int rng 4) mod 9))
  in
  let s =
    sample (fun _ -> Array.iter (fun (c, i, j) -> ignore (Core.Arena.cross_key c i j)) probes)
  in
  add (row "core.cross_key_ns" "ns" (per 1000. (times s)));
  let t2 = truncated ~rounds:2 in
  let s =
    sample (fun _ -> ignore (Core.Indist_graph.build_full ~seed:(fresh_seed rng) t2 ~n:9 ()))
  in
  add (row "core.indist_build_full_s" "s" (per 1e9 (times s)));
  let roots = ref [] in
  let s =
    sample (fun i ->
        let root = Filename.concat scratch (Printf.sprintf "orbit-%d" i) in
        roots := root :: !roots;
        ignore (Core.Arena.Orbit.create ~root ~n:10 ()))
  in
  add (row "core.orbit_create_s" "s" (per 1e9 (times s)));
  let store = Core.Arena.Orbit.create ~root:(List.hd !roots) ~n:10 () in
  check "orbit store reopens warm" (Core.Arena.Orbit.warm store);
  let weight () =
    let total = ref 0 in
    Core.Arena.Orbit.iter store (fun _ ~weight -> total := !total + weight);
    !total
  in
  check "orbit weights sum to |V1|" (weight () = Core.Arena.Orbit.total_weight store);
  let s = sample (fun _ -> ignore (weight ())) in
  add (row "core.orbit_iter_s" "s" (per 1e9 (times s)));
  let anonymous = Algos.Adjacency_broadcast.connectivity_truncated ~rounds:2 ~optimist:true in
  let qroot = Filename.concat scratch "quotient" in
  let s =
    sample (fun _ ->
        ignore (Core.Quotient.full_stats ~seed:(fresh_seed rng) ~root:qroot anonymous ~n:9 ()))
  in
  add (row "core.quotient_full_stats_s" "s" (per 1e9 (times s)));
  let t3 = truncated ~rounds:3 in
  let s =
    sample (fun _ ->
        let r =
          Core.Crossing_check.check ~verify:`All t3 ~n:10 ~instances:2 ~wiring:`Circulant
            (Rng.create ~seed:(fresh_seed rng))
        in
        check "Lemma 3.4: no same-label crossing is distinguishable"
          (r.Core.Crossing_check.violations = 0))
  in
  add (row "core.crossing_check_ms" "ms" (per 1e6 (times s)));
  (* ---- harness: the result cache on E3-shaped rows ---- *)
  let module P = H.Params in
  let algos = [| "truncated-optimist"; "truncated-pessimist"; "partial-optimist" |] in
  let entries =
    Array.init 1000 (fun i ->
        let n = 6 + Rng.int rng 3 and t = Rng.int rng 7 and a = algos.(Rng.int rng 3) in
        let params =
          P.v
            [ ("part", P.Str "error"); ("n", P.Int n); ("t", P.Int t); ("algo", P.Str a);
              ("rep", P.Int i) ]
        in
        ( H.Cache.key ~exp_id:"kt0-error" ~version:3 ~params,
          [ H.Experiment.row
              [ ("n", P.Int n); ("t", P.Int t); ("algo", P.Str a);
                ("mu_error", P.Float (Rng.float rng)); ("active_min", P.Int (Rng.int rng 100));
                ("pigeonhole", P.Float (Rng.float rng)) ] ] ))
  in
  let cache = H.Cache.create ~root:(Filename.concat scratch "cache") in
  let s = sample (fun _ -> Array.iter (fun (k, rows) -> H.Cache.store cache k rows) entries) in
  add (row "harness.cache_store_us" "us" (per (1000. *. 1e3) (times s)));
  let hits () =
    Array.fold_left
      (fun acc (k, rows) -> if H.Cache.find cache k = Some rows then acc + 1 else acc)
      0 entries
  in
  check "cache returns every stored row set" (hits () = 1000);
  let s = sample (fun _ -> ignore (hits ())) in
  add (row "harness.cache_find_us" "us" (per (1000. *. 1e3) (times s)));
  (* ---- dist: framing of a 64 KiB payload ---- *)
  let module Wire = Bcclb_dist.Wire in
  let payload = String.init 65536 (fun _ -> Char.chr (Rng.int rng 256)) in
  let frame = Wire.encode payload in
  check "wire frame round-trips" (Wire.decode frame = Ok payload);
  let s = sample (fun _ -> for _ = 1 to 20 do ignore (Wire.encode payload) done) in
  add (row "dist.wire_encode_us" "us" (per 20e3 (times s)));
  let s = sample (fun _ -> for _ = 1 to 20 do ignore (Wire.decode frame) done) in
  add (row "dist.wire_decode_us" "us" (per 20e3 (times s)));
  (* ---- ufind: Alistarh et al.'s random-edge workloads ---- *)
  let size = 1 lsl 16 in
  let edges = Array.init size (fun _ -> (Rng.int rng size, Rng.int rng size)) in
  let s =
    sample (fun _ ->
        let t = Ufind.create size in
        Array.iter (fun (u, v) -> ignore (Ufind.union t u v)) edges)
  in
  add (row "ufind.union_ns" "ns" (per (float_of_int size) (times s)));
  let ops =
    Array.init 2 (fun _ ->
        Array.init size (fun _ -> (Rng.bool rng, Rng.int rng size, Rng.int rng size)))
  in
  let mixed () =
    let t = Ufind.create size in
    ignore
      (Pool.map_batch ~num_domains:2
         (fun d ->
           Array.iter
             (fun (union, u, v) ->
               ignore (if union then Ufind.union t u v else Ufind.same_set t u v))
             ops.(d))
         [| 0; 1 |]);
    t
  in
  check "union-find invariants hold after concurrent unions"
    (Ufind.check_invariants (mixed ()) = Ok ());
  let s = sample (fun _ -> ignore (mixed ())) in
  add (row "ufind.mixed_ns_per_op" "ns" (per (float_of_int (2 * size)) (times s)));
  (* ---- util: packed bit sequences ---- *)
  let words = Array.init 4096 (fun _ -> let w = 1 + Rng.int rng 32 in (w, Rng.int rng (1 lsl w))) in
  let s =
    sample (fun _ ->
        let q = Bits.Seq.create () in
        Array.iter (fun (width, value) -> Bits.Seq.append_word q ~width ~value) words)
  in
  add (row "util.bits_seq.append_ns" "ns" (per 4096. (times s)));
  let a = Bits.Seq.create () and b = Bits.Seq.create () in
  for i = 0 to 4095 do
    let bit = Rng.bool rng in
    Bits.Seq.append_bit a bit;
    Bits.Seq.append_bit b (if i = 4095 then not bit else bit)
  done;
  let s = sample (fun _ -> for _ = 1 to 1000 do ignore (Bits.Seq.compare a b) done) in
  add (row "util.bits_seq.compare_ns" "ns" (per 1000. (times s)));
  { rows = List.rev !rows; checked = !checked; failures = List.rev !failures }
