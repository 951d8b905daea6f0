(* E3: error of t-round KT-0 algorithms under mu, plus E3b, its
   randomized Monte Carlo twin. Version 3 of E3: cache epoch bumped with
   the orbit-reduced Arena refactor (the certified part's build_full
   dispatch changed; rows are unchanged — the bump keeps the census-
   backed experiment set on one epoch for cross-run comparisons). *)

open Exp_common

let error_algos = [ "truncated-optimist"; "truncated-pessimist"; "partial-optimist" ]

let error_algo_make = function
  | "truncated-optimist" -> truncated_optimist
  | "truncated-pessimist" -> truncated_pessimist
  | "partial-optimist" -> partial_optimist
  | a -> invalid_arg ("kt0-error: unknown algorithm " ^ a)

(* The truncations the error part sweeps at n. Its cells read their
   decisions off one execution of the deepest per instance and decider
   (Hard_distribution.exact_error), and the certified part's measured
   column reads the same executions. *)
let error_ts ~n =
  let tmax = Core.Kt0_bound.upper_bound_rounds ~n in
  List.sort_uniq Int.compare [ 0; 1; 2; 3; 4; 6; tmax / 2; tmax ]

(* The certified part's truncations. Its graphs read their labels off
   the deepest one's codes (Arena.codes), the batch E2's cells share. *)
let certified_ts = [ 0; 1; 2; 3 ]
let certified_deepest = List.fold_left max 0 certified_ts

let kt0_error_grid ns =
  let errors =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun t ->
            List.map (fun a -> P.v [ ps "part" "error"; pi "n" n; pi "t" t; ps "algo" a ]) error_algos)
          (error_ts ~n))
      ns
  in
  let thresholds = List.map (fun n -> P.v [ ps "part" "threshold"; pi "n" n ]) ns in
  let certified =
    List.concat_map
      (fun n -> List.map (fun t -> P.v [ ps "part" "certified"; pi "n" n; pi "t" t ]) certified_ts)
      (Arrayx.take 3 ns)
  in
  let star =
    List.concat_map
      (fun n ->
        if n >= 9 then
          List.map (fun t -> P.v [ ps "part" "star"; pi "n" n; pi "t" t ]) [ 0; 1; 2; 3; 4 ]
        else [])
      ns
  in
  errors @ thresholds @ certified @ star

let kt0_error =
  experiment ~id:"kt0-error" ~version:3
    ~title:"E3  Theorems 3.1/3.5: distributional error of t-round KT-0 algorithms"
    ~doc:"E3: error of t-round KT-0 algorithms under mu"
    ~tables:
      [ { E.name = "";
          columns =
            [ E.icol ~width:3 "n"; E.icol ~width:3 "t"; E.scol ~width:28 ~header:"algorithm" "algo";
              E.fcol ~width:10 ~header:"mu-error" "mu_error";
              E.icol ~width:10 ~header:"active>=" "active_min";
              E.fcol ~width:12 ~prec:3 ~header:"n/3^2t" "pigeonhole" ]
        };
        { E.name = "Theorem 3.1 thresholds and tightness ceilings";
          columns =
            [ E.icol ~width:3 "n"; E.fcol ~width:12 ~prec:2 ~header:"0.1*log3 n" "threshold";
              E.icol ~width:10 ~header:"UB rounds" "ub_rounds" ]
        };
        { E.name = "certified per-algorithm error lower bounds (matching in full G^t)";
          columns =
            [ E.icol ~width:3 "n"; E.icol ~width:3 "t"; E.icol ~width:10 "matching";
              E.fcol ~width:14 ~header:"certified LB" "certified"; E.fcol ~width:12 ~header:"measured" "measured" ]
        };
        { E.name = "star distribution (Theorem 3.5): error of t-round algorithms";
          columns =
            [ E.icol ~width:3 "n"; E.icol ~width:3 "t"; E.fcol ~width:12 ~prec:5 ~header:"star error" "star";
              E.fcol ~width:14 ~prec:5 ~header:"Omega(3^-4t)" "bound" ]
        } ]
    ~notes:
      [ "shape check: error stays >= const for t << log n, collapses to 0 at the O(log n) UB." ]
    ~grid:(kt0_error_grid [ 6; 7; 8 ])
    ~grid_of_ns:kt0_error_grid
    ~n_range:(6, 10)
    (fun p ->
      let n = P.int p "n" in
      match P.str p "part" with
      | "error" ->
        let t = P.int p "t" in
        let rng = Rng.create ~seed:(2000 + n + t) in
        let r =
          Core.Kt0_bound.error_row ~truncations:(error_ts ~n) ~n ~t (error_algo_make (P.str p "algo")) rng
        in
        Core.Kt0_bound.
          [ E.row
              [ pi "n" n; pi "t" t; ps "algo" r.algo_name; pf "mu_error" r.mu_error;
                pi "active_min" r.largest_active_min; pf "pigeonhole" r.pigeonhole_floor ]
          ]
      | "threshold" ->
        [ E.row ~table:"Theorem 3.1 thresholds and tightness ceilings"
            [ pi "n" n; pf "threshold" (Core.Kt0_bound.theorem_3_1_threshold ~n);
              pi "ub_rounds" (Core.Kt0_bound.upper_bound_rounds ~n) ]
        ]
      | "certified" ->
        let t = P.int p "t" in
        let algo = truncated_optimist ~rounds:t in
        let g = Core.Indist_graph.build_full ~deepest:certified_deepest algo ~n () in
        let size, lb = Core.Indist_graph.certified_error_lb g in
        let measured =
          Core.Hard_distribution.error_float
            (Core.Hard_distribution.exact_error ~truncations:(error_ts ~n) algo ~n)
        in
        [ E.row ~table:"certified per-algorithm error lower bounds (matching in full G^t)"
            [ pi "n" n; pi "t" t; pi "matching" size; pf "certified" (Ratio.to_float lb);
              pf "measured" measured ]
        ]
      | "star" ->
        let t = P.int p "t" in
        let algo = truncated_optimist ~rounds:t in
        let e = Core.Hard_distribution.star_error algo ~n in
        [ E.row ~table:"star distribution (Theorem 3.5): error of t-round algorithms"
            [ pi "n" n; pi "t" t; pf "star" (Ratio.to_float e);
              pf "bound" (0.5 *. (3.0 ** float_of_int (-4 * t))) ]
        ]
      | part -> invalid_arg ("kt0-error: unknown part " ^ part))

(* ---------- E3b: randomized Monte Carlo error-vs-rounds trade-off ---------- *)

let kt0_error_rand_grid ns =
  List.concat_map
    (fun n ->
      List.map
        (fun k -> P.v [ pi "n" n; pi "k" k; pi "trials" 200 ])
        [ 1; 2; 3; 4; 6; 8; 10; 12 ])
    ns

let kt0_error_rand =
  experiment ~id:"kt0-error-rand"
    ~title:"E3b Theorem 3.1 (randomized side): hashed discovery, error vs rounds"
    ~doc:"E3b: randomized hashed-discovery error trade-off"
    ~tables:
      [ { E.name = "";
          columns =
            [ E.icol ~width:5 "n"; E.icol ~width:4 "k"; E.icol ~width:7 "rounds";
              E.fcol ~width:12 ~prec:3 ~header:"err(YES)" "err_yes";
              E.fcol ~width:12 ~prec:3 ~header:"err(NO)" "err_no";
              E.fcol ~width:12 ~prec:3 ~header:"pred(NO)" "pred_no" ]
        } ]
    ~notes:
      [ "shape check: err(YES)=0 (one-sided); err(NO) stays constant until k ~ 2 log2 n,";
        "i.e. rounds = Theta(log n) are necessary AND sufficient for constant error." ]
    ~grid:(kt0_error_rand_grid [ 16; 32 ])
    ~grid_of_ns:kt0_error_rand_grid
    (fun p ->
      let n = P.int p "n" and k = P.int p "k" and trials = P.int p "trials" in
      let algo = Algos.Hashed_discovery.connectivity ~k in
      let rng = Rng.create ~seed:(4000 + n + k) in
      let errs_yes = ref 0 and errs_no = ref 0 in
      for seed = 1 to trials do
        let yes = Instance.kt0_circulant (Gen.random_cycle rng n) in
        let no = Instance.kt0_circulant (Gen.random_two_cycles rng n) in
        let run inst = Problems.system_decision (Simulator.run_outputs ~seed algo inst) in
        if not (run yes) then incr errs_yes;
        if run no then incr errs_no
      done;
      [ E.row
          [ pi "n" n; pi "k" k; pi "rounds" (Algo.rounds algo ~n);
            pf "err_yes" (float_of_int !errs_yes /. float_of_int trials);
            pf "err_no" (float_of_int !errs_no /. float_of_int trials);
            pf "pred_no" (Algos.Hashed_discovery.predicted_error ~n ~k) ]
      ])

let experiments = [ kt0_error; kt0_error_rand ]
