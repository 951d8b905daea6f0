open Bcclb_bcc
module Obs = Bcclb_obs

(* Streaming orbit-quotient statistics of the FULL indistinguishability
   graph (Definition 3.6 unioned over labels, edges = Lemma 3.4's
   same-label crossings) at n beyond the materialisable census.

   Neither side of the graph is materialised. The left side streams off
   the segmented orbit store (Arena.Orbit): one record per V₁
   rotation-class representative. Rotations act on the graph as
   automorphisms — for rotation-equivariant transcripts a member's
   degree equals its representative's — so every left-side aggregate is
   a weighted sum over representatives. The right side never appears at
   all: a representative's neighbours are identified by their packed
   canonical keys (computed arithmetically from the arc decomposition)
   and deduplicated per row by sorting, while the global |V₂| and |Tᵢ|
   come from Census's closed forms. Peak memory is one segment plus one
   row: n = 13 streams 18.7M representatives standing for the 239.5M
   instances of V₁ against a 197-billion-strong V₂. *)

let reps_metric = Obs.Metrics.Counter.v "quotient.reps"

type stats = {
  n : int;
  rounds : int;
  v1 : int;
  v2 : int;
  reps : int;
  edges : int;
  isolated_v1 : int;
  live_v1 : int;
  min_live_degree : int;
  max_degree_v1 : int;
  edges_by_smaller : (int * int) list;
  t_i : (int * int) list;
  warm : bool;
}

(* Per-worker partial aggregate over one segment. *)
type partial = {
  mutable p_reps : int;
  mutable p_edges : int;
  mutable p_isolated : int;
  mutable p_live : int;
  mutable p_min_live : int;
  mutable p_max : int;
  p_by_smaller : int array;  (* index: smaller cycle length *)
}

let require_sound algo ~n =
  if not (Arena.rotation_sound algo ~n) then
    invalid_arg
      (Printf.sprintf
         "Quotient: the orbit quotient is sound only for anonymous algorithms (or at rounds = \
          0); %S reads vertex IDs"
         (Algo.name algo));
  Arena.require_codable "Quotient" algo ~n

(* Degree computation for one representative, given its executed codes:
   enumerate independent same-label pairs, identify the crossed
   structure by its packed canonical key (no V₂ table — n <= 13 keys fit
   a word), and deduplicate by sorting the keys in [keys], the chunk's
   scratch row. A key's length field gives its smaller cycle length. *)
let process_rep p keys cyc (sent : int array) ~weight =
  let k = Array.length cyc in
  let m = ref 0 in
  for i = 0 to k - 1 do
    for j = i + 3 to k - 1 do
      if k - (j - i) >= 3 then begin
        let vi = cyc.(i) and ui = cyc.((i + 1) mod k) in
        let vj = cyc.(j) and uj = cyc.((j + 1) mod k) in
        if sent.(vi) = sent.(vj) && sent.(ui) = sent.(uj) then begin
          keys.(!m) <- Arena.cross_key cyc i j;
          incr m
        end
      end
    done
  done;
  let deg = Bcclb_util.Arrayx.sort_uniq_prefix keys !m in
  for idx = 0 to deg - 1 do
    let smaller = Arena.key_smaller_len ~n:k keys.(idx) in
    p.p_by_smaller.(smaller) <- p.p_by_smaller.(smaller) + weight
  done;
  p.p_reps <- p.p_reps + 1;
  p.p_edges <- p.p_edges + (weight * deg);
  if deg = 0 then p.p_isolated <- p.p_isolated + weight
  else begin
    p.p_live <- p.p_live + weight;
    if deg < p.p_min_live then p.p_min_live <- deg
  end;
  if deg > p.p_max then p.p_max <- deg

(* Work units finer than a segment: small n fits one segment entirely,
   and even at n = 13 (71 segments) range-splitting keeps every pool
   worker busy through the tail. *)
let chunk_records = 16384

let full_stats ?(seed = 0) ?root algo ~n () =
  if n < 6 then invalid_arg "Quotient.full_stats: need n >= 6 (V2 is empty below)";
  require_sound algo ~n;
  Obs.span "quotient.full_stats" ~attrs:[ ("n", string_of_int n); ("algo", Algo.name algo) ]
  @@ fun () ->
  let store = Arena.Orbit.get ?root ~n () in
  let chunks = ref [] in
  for si = Arena.Orbit.num_segments store - 1 downto 0 do
    let records = Arena.Orbit.segment_records store si in
    let lo = ref 0 in
    while !lo < records do
      chunks := (si, !lo, min records (!lo + chunk_records)) :: !chunks;
      lo := !lo + chunk_records
    done
  done;
  let stamp = Instance.kt0_circulant_sweep n in
  let partials =
    Bcclb_engine.Pool.map_batch
      (fun (si, lo, hi) ->
        let p =
          { p_reps = 0;
            p_edges = 0;
            p_isolated = 0;
            p_live = 0;
            p_min_live = max_int;
            p_max = 0;
            p_by_smaller = Array.make ((n / 2) + 1) 0 }
        in
        let neighbors = Array.make n (0, 0) in
        (* An n-cycle has n(n-5)/2 crossable pairs. *)
        let keys = Array.make (n * (n - 5) / 2) 0 in
        Arena.Orbit.iter_segment ~lo ~hi store si (fun cyc ~weight ->
            for i = 0 to n - 1 do
              neighbors.(cyc.(i)) <- (cyc.((i + n - 1) mod n), cyc.((i + 1) mod n))
            done;
            let sent = Simulator.run_sent_codes ~seed algo (stamp neighbors) in
            process_rep p keys cyc sent ~weight);
        p)
      (Array.of_list !chunks)
  in
  let reps = Array.fold_left (fun acc p -> acc + p.p_reps) 0 partials in
  Obs.Metrics.Counter.add reps_metric reps;
  let by_smaller = Array.make ((n / 2) + 1) 0 in
  Array.iter
    (fun p -> Array.iteri (fun i w -> by_smaller.(i) <- by_smaller.(i) + w) p.p_by_smaller)
    partials;
  let min_live = Array.fold_left (fun acc p -> min acc p.p_min_live) max_int partials in
  let isolated = Array.fold_left (fun acc p -> acc + p.p_isolated) 0 partials in
  let live = Array.fold_left (fun acc p -> acc + p.p_live) 0 partials in
  assert (reps = Arena.Orbit.n_reps store);
  assert (isolated + live = Census.num_one_cycles ~n);
  { n;
    rounds = Algo.rounds algo ~n;
    v1 = Census.num_one_cycles ~n;
    v2 = Census.num_two_cycles ~n;
    reps;
    edges = Array.fold_left (fun acc p -> acc + p.p_edges) 0 partials;
    isolated_v1 = isolated;
    live_v1 = live;
    min_live_degree = (if min_live = max_int then 0 else min_live);
    max_degree_v1 = Array.fold_left (fun acc p -> max acc p.p_max) 0 partials;
    edges_by_smaller =
      List.filter
        (fun (_, w) -> w > 0)
        (List.mapi (fun i w -> (i, w)) (Array.to_list by_smaller));
    t_i = Census.t_i_closed_form ~n;
    warm = Arena.Orbit.warm store }
