open Bcclb_bignum
open Bcclb_bcc

(* The hard distribution μ of §3.1: probability mass 1/2 spread uniformly
   over all one-cycle instances V1, and 1/2 over all two-cycle instances
   V2. Per Lemma 3.9 an individual V1 instance carries Θ(log n) times the
   mass of a V2 instance. Errors are accounted exactly in rationals. *)

type error_report = {
  n : int;
  algo_name : string;
  v1_total : int;
  v1_errors : int;
  v2_total : int;
  v2_errors : int;
  error : Ratio.t;
}

let error_float r = Ratio.to_float r.error

let decide ?(seed = 0) algo inst =
  Problems.system_decision (Simulator.run_outputs ~seed algo inst)

(* Exact distributional error of a decision algorithm over μ: runs the
   algorithm on EVERY census instance. *)
let exact_error ?(seed = 0) algo ~n =
  let v1_errors = ref 0 and v1_total = ref 0 in
  Census.iter_one_cycles ~n (fun s ->
      incr v1_total;
      if not (decide ~seed algo (Census.to_instance s ~n)) then incr v1_errors);
  let v2_errors = ref 0 and v2_total = ref 0 in
  Census.iter_two_cycles ~n (fun s ->
      incr v2_total;
      if decide ~seed algo (Census.to_instance s ~n) then incr v2_errors);
  let half = Ratio.of_ints 1 2 in
  let error =
    Ratio.add
      (Ratio.mul half (Ratio.of_ints !v1_errors !v1_total))
      (Ratio.mul half (Ratio.of_ints !v2_errors !v2_total))
  in
  { n; algo_name = Algo.name algo; v1_total = !v1_total; v1_errors = !v1_errors;
    v2_total = !v2_total; v2_errors = !v2_errors; error }

(* The warm-up star distribution of Theorem 3.5: mass 1/2 on a fixed
   one-cycle instance I, the rest uniform over the crossings I(e, e') of
   an independent edge set S of size floor(n/3) (we take every third
   cycle edge). Returns (YES instance, NO instances). *)
let star_support ~n =
  if n < 9 then invalid_arg "Hard_distribution.star_support: need n >= 9";
  let base = Array.init n Fun.id in
  let positions = List.filter (fun i -> i mod 3 = 0 && i + 3 <= n) (Bcclb_util.Arrayx.range 0 n) in
  let crossings = ref [] in
  List.iter
    (fun i ->
      List.iter
        (fun j ->
          if i < j then begin
            let len1 = j - i and len2 = n - (j - i) in
            if len1 >= 3 && len2 >= 3 then crossings := Census.cross_one_cycle base i j :: !crossings
          end)
        positions)
    positions;
  (Bcclb_graph.Cycles.make [ base ], List.rev !crossings)

let star_error ?(seed = 0) algo ~n =
  let yes, nos = star_support ~n in
  let half = Ratio.of_ints 1 2 in
  let yes_err = if decide ~seed algo (Census.to_instance yes ~n) then Ratio.zero else Ratio.one in
  let no_errs = List.filter (fun s -> decide ~seed algo (Census.to_instance s ~n)) nos in
  Ratio.add (Ratio.mul half yes_err)
    (Ratio.mul half (Ratio.of_ints (List.length no_errs) (List.length nos)))
