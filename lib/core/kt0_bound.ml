open Bcclb_bignum
open Bcclb_bcc

(* Quantitative content of §3, packaged for the experiment harness. *)

(* ---- Lemma 3.9: |V2| = |V1| * Theta(log n). ---- *)

type census_row = {
  n : int;
  v1 : Nat.t;  (* closed form (n-1)!/2 *)
  v2 : Nat.t;  (* closed form, sum over splits *)
  v1_enumerated : int option;  (* direct census when feasible *)
  v2_enumerated : int option;
  ratio : float;  (* |V2| / |V1| *)
  predicted : float;  (* H_{n/2} - 3/2, the Lemma 3.9 shape *)
}

let census_row ?(enumerate_to = 9) ~n () =
  let v1 = Combi.one_cycle_count n in
  let v2 = Combi.two_cycle_count n in
  let enum_ok = n <= enumerate_to in
  let count iter =
    let c = ref 0 in
    iter ~n (fun _ -> incr c);
    !c
  in
  { n;
    v1;
    v2;
    v1_enumerated = (if enum_ok then Some (count Census.iter_one_cycles) else None);
    v2_enumerated = (if enum_ok && n >= 6 then Some (count Census.iter_two_cycles) else None);
    ratio = Nat.to_float v2 /. Nat.to_float v1;
    predicted = Bcclb_util.Mathx.harmonic (n / 2) -. 1.5 }

(* ---- Lemma 3.7/3.8 and Theorem 2.1: structure of G^t_{x,y}. ---- *)

type indist_stats = {
  n : int;
  rounds : int;
  x : string;
  y : string;
  v1_count : int;
  v2_count : int;
  edges : int;
  isolated_v1 : int;
  min_live_degree : int;
  max_degree_v1 : int;
  hall_ok : bool;  (* sampled Hall condition for the k below *)
  k : int;
  k_matching_found : bool;
}

let indist_stats ?(seed = 0) ?(samples = 200) ?deepest algo ~n ~rounds ~k rng =
  let g = Indist_graph.build ~seed ?deepest algo ~n () in
  let nl = Array.length g.Indist_graph.v1 in
  let isolated = ref 0 and min_live = ref max_int and max_deg = ref 0 in
  for i = 0 to nl - 1 do
    let d = Indist_graph.degree_v1 g i in
    if d = 0 then incr isolated else min_live := min !min_live d;
    max_deg := max !max_deg d
  done;
  let hall_ok = match Indist_graph.hall_condition_sampled ~samples rng g ~k with Ok () -> true | Error _ -> false in
  let matching = Indist_graph.k_matching g ~k <> None in
  { n;
    rounds;
    x = g.Indist_graph.x;
    y = g.Indist_graph.y;
    v1_count = nl;
    v2_count = Array.length g.Indist_graph.v2;
    edges = Indist_graph.num_edges g;
    isolated_v1 = !isolated;
    min_live_degree = (if !min_live = max_int then 0 else !min_live);
    max_degree_v1 = !max_deg;
    hall_ok;
    k;
    k_matching_found = matching }

(* ---- The orbit frontier: exhaustive full-graph statistics past the
   materialisable census, via the streaming quotient (E2's frontier
   table). ---- *)

type orbit_row = {
  n : int;
  rounds : int;
  v1 : int;
  v2 : int;
  reps : int;
  reduction : float;  (* |V1| / reps, ~n for free orbits *)
  edges : int;
  isolated_v1 : int;
  live_v1 : int;
  min_live_degree : int;
  max_degree_v1 : int;
  warm : bool;
}

let orbit_row ?(seed = 0) ?root ?deepest algo ~n () =
  let s = Quotient.full_stats ~seed ?root ?deepest algo ~n () in
  { n;
    rounds = s.Quotient.rounds;
    v1 = s.Quotient.v1;
    v2 = s.Quotient.v2;
    reps = s.Quotient.reps;
    reduction = float_of_int s.Quotient.v1 /. float_of_int s.Quotient.reps;
    edges = s.Quotient.edges;
    isolated_v1 = s.Quotient.isolated_v1;
    live_v1 = s.Quotient.live_v1;
    min_live_degree = s.Quotient.min_live_degree;
    max_degree_v1 = s.Quotient.max_degree_v1;
    warm = s.Quotient.warm }

(* ---- Theorem 3.1/3.5: error of t-round algorithms under mu. ---- *)

type error_row = {
  n : int;
  t : int;
  algo_name : string;
  mu_error : float;
  largest_active_min : int;  (* min over sampled instances *)
  pigeonhole_floor : float;  (* n / 3^{2t} *)
}

let error_row ?(seed = 0) ~n ~t (make_algo : rounds:int -> bool Algo.packed) rng =
  let algo = make_algo ~rounds:t in
  let report = Hard_distribution.exact_error ~seed algo ~n in
  (* Largest same-label class on a few random one-cycle instances. The
     graphs are drawn sequentially (the rng stream is part of the
     deterministic contract); the independent simulations behind each
     label count run on the pool. *)
  let structures = Array.make 5 None in
  for i = 0 to 4 do
    structures.(i) <- Bcclb_graph.Cycles.of_graph (Bcclb_graph.Gen.random_cycle rng n)
  done;
  let sizes =
    Bcclb_engine.Pool.map_batch
      (function None -> max_int | Some s -> Labels.largest_active_set ~seed algo ~n s)
      structures
  in
  let largest = ref (Array.fold_left min max_int sizes) in
  { n;
    t;
    algo_name = Algo.name algo;
    mu_error = Hard_distribution.error_float report;
    largest_active_min = (if !largest = max_int then 0 else !largest);
    pigeonhole_floor = float_of_int n /. (3.0 ** float_of_int (2 * t)) }

(* The paper's Theorem 3.1 round threshold 0.1 * log_3 n, below which a
   constant error floor is forced. *)
let theorem_3_1_threshold ~n = 0.1 *. log (float_of_int n) /. log 3.0

(* Rounds after which our own discovery upper bound solves TwoCycle
   exactly: the O(log n) ceiling that shows tightness. *)
let upper_bound_rounds ~n = 3 * Bcclb_util.Mathx.ceil_log2 (n + 1)
