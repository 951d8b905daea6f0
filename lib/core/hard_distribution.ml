open Bcclb_bignum
open Bcclb_bcc
module Obs = Bcclb_obs

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

let decide algo inst = Problems.system_decision (Simulator.run_outputs algo inst)

(* One execution of [source] on census item [i] — V1's handles, then
   V2's — read at each round count of [reads]: bit k of the result is
   the system decision of the reads.(k)-round member. *)
let decisions ~reads source arena stamp i =
  let n_one = Arena.n_one arena in
  let cycles =
    if i < n_one then [ Arena.one_cycle arena i ]
    else Bcclb_graph.Cycles.cycles (Arena.two_structure arena (i - n_one))
  in
  let inst = stamp cycles in
  let mask = ref 0 in
  Array.iteri
    (fun k outputs -> if Problems.system_decision outputs then mask := !mask lor (1 lsl k))
    (Simulator.run_members source inst ~rounds:reads);
  !mask

let decisions_id : int array Type.Id.t = Type.Id.make ()

(* Exact distributional error of a decision algorithm over μ: one
   execution per census instance. With [truncations], the executions
   are the family's deepest member's, read at every member's last round
   (Simulator.run_members) and kept as a single-flight pool batch, so
   every member's error reads the same executions. Without, the
   algorithm runs alone and nothing is kept. *)
let exact_error ?truncations algo ~n =
  let arena = Arena.get ~n in
  let items = Arena.n_one arena + Arena.n_two arena in
  let family =
    Option.bind truncations (fun ts ->
        let ts = List.sort_uniq Int.compare ts in
        Option.map (fun deep -> (ts, deep)) (Algo.deepen ~rounds:(List.fold_left max 0 ts) algo))
  in
  let source, reads, batch =
    match family with
    | None -> (algo, [| Algo.rounds algo ~n |], Bcclb_engine.Pool.tabulate items)
    | Some (ts, deep) ->
      if List.length ts >= Sys.int_size then
        invalid_arg "Hard_distribution.exact_error: more truncations than bits in an int";
      let depth = Algo.rounds deep ~n in
      let key =
        Printf.sprintf "hard.exact_error|%d|%s|%s" n (Algo.name deep)
          (String.concat "," (List.map string_of_int ts))
      in
      ( deep,
        Array.of_list (List.map (fun t -> min t depth) ts),
        fun f -> fst (Bcclb_engine.Pool.shared decisions_id ~key items f) )
  in
  let bit =
    match Bcclb_util.Arrayx.find_index (Int.equal (Algo.rounds algo ~n)) reads with
    | Some k -> k
    | None ->
      invalid_arg
        (Printf.sprintf "Hard_distribution.exact_error: %s is not a member of the truncations"
           (Algo.name algo))
  in
  let masks =
    Obs.span "hard.exact_error"
      ~attrs:
        [ ("n", string_of_int n); ("algo", Algo.name source);
          ("rounds", String.concat "," (Array.to_list (Array.map string_of_int reads))) ]
      (fun () ->
        let stamp = Instance.kt0_circulant_sweep n in
        batch (decisions ~reads source arena stamp))
  in
  let v1_total = Arena.n_one arena and v2_total = Arena.n_two arena in
  let v1_errors = ref 0 and v2_errors = ref 0 in
  Array.iteri
    (fun i mask ->
      let yes = mask land (1 lsl bit) <> 0 in
      if i < v1_total then (if not yes then incr v1_errors) else if yes then incr v2_errors)
    masks;
  let half = Ratio.of_ints 1 2 in
  let error =
    Ratio.add
      (Ratio.mul half (Ratio.of_ints !v1_errors v1_total))
      (Ratio.mul half (Ratio.of_ints !v2_errors v2_total))
  in
  { n; algo_name = Algo.name algo; v1_total; v1_errors = !v1_errors; v2_total;
    v2_errors = !v2_errors; error }

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

let star_error algo ~n =
  let yes, nos = star_support ~n in
  let half = Ratio.of_ints 1 2 in
  let yes_err = if decide algo (Census.to_instance yes ~n) then Ratio.zero else Ratio.one in
  let no_errs = List.filter (fun s -> decide algo (Census.to_instance s ~n)) nos in
  Ratio.add (Ratio.mul half yes_err)
    (Ratio.mul half (Ratio.of_ints (List.length no_errs) (List.length nos)))
