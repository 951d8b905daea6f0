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
   all: distinct crossable pairs of a one-cycle cross to distinct
   two-cycle structures (DESIGN §2g), so a representative's degree is
   its count of same-label pairs, and the global |V₂| and |Tᵢ| come from
   Census's closed forms. Peak memory is one segment: n = 13 streams
   18.4M representatives standing for the 239.5M instances of V₁
   against the 171.1M of V₂. *)

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
}

(* Partial aggregate over one chunk of representatives, for one
   truncation. *)
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

(* Degrees of one representative under every truncation t = 0..depth,
   given the deepest member's codes: count its independent same-label
   pairs (i < j, both arcs >= 3). A pair has the same label at t iff
   both edges' codes agree on their low 2t bits, so the pair counts at
   every t up to the first round where they differ. Crossing (i, j)
   deletes exactly the cycle edges eᵢ and eⱼ and adds two chords, so
   distinct pairs reach distinct structures and the degree is the pair
   count; the neighbour's smaller cycle has min(j − i, k − (j − i))
   vertices. [deg] is scratch, one slot per t. *)
let process_rep ps deg cyc (sent : int array) ~weight =
  let k = Array.length cyc in
  let depth = Array.length ps - 1 in
  Array.fill deg 0 (depth + 1) 0;
  for i = 0 to k - 4 do
    let si = sent.(cyc.(i)) and si' = sent.(cyc.(i + 1)) in
    for j = i + 3 to Int.min (k - 1) (i + k - 3) do
      let differ = (si lxor sent.(cyc.(j))) lor (si' lxor sent.(cyc.((j + 1) mod k))) in
      let smaller = Int.min (j - i) (k - (j - i)) in
      let t = ref 0 in
      while !t <= depth && differ land ((1 lsl (2 * !t)) - 1) = 0 do
        deg.(!t) <- deg.(!t) + 1;
        let by = ps.(!t).p_by_smaller in
        by.(smaller) <- by.(smaller) + weight;
        incr t
      done
    done
  done;
  for t = 0 to depth do
    let p = ps.(t) and deg = deg.(t) in
    p.p_reps <- p.p_reps + 1;
    p.p_edges <- p.p_edges + (weight * deg);
    if deg = 0 then p.p_isolated <- p.p_isolated + weight
    else begin
      p.p_live <- p.p_live + weight;
      if deg < p.p_min_live then p.p_min_live <- deg
    end;
    if deg > p.p_max then p.p_max <- deg
  done

(* Work units finer than a segment: small n fits one segment entirely,
   and even at n = 13 (71 segments) range-splitting keeps every pool
   worker busy through the tail. *)
let chunk_records = 16384

let stream_id : partial array array Type.Id.t = Type.Id.make ()

(* One stream of the orbit store per (n, store, source execution, seed):
   a single-flight pool batch over chunks, each executing the source on
   its representatives and yielding partials for every truncation up to
   the source's depth. Sibling cells read their own truncation's
   partials off the same stream; a sibling that arrives mid-stream
   claims chunks instead of waiting. *)
let stream ~seed ?root source ~n store =
  let depth = Algo.rounds source ~n in
  let chunks = ref [] in
  for si = Arena.Orbit.num_segments store - 1 downto 0 do
    let records = Arena.Orbit.segment_records store si in
    let lo = ref 0 in
    while !lo < records do
      chunks := (si, !lo, min records (!lo + chunk_records)) :: !chunks;
      lo := !lo + chunk_records
    done
  done;
  let chunks = Array.of_list !chunks in
  let stamp = Instance.kt0_circulant_sweep n in
  let key =
    Printf.sprintf "quotient|%d|%s|%s|%d" n (Option.value root ~default:"") (Algo.name source) seed
  in
  fst
    (Bcclb_engine.Pool.shared stream_id ~key (Array.length chunks) (fun ci ->
         let si, lo, hi = chunks.(ci) in
         let ps =
           Array.init (depth + 1) (fun _ ->
               { p_reps = 0;
                 p_edges = 0;
                 p_isolated = 0;
                 p_live = 0;
                 p_min_live = max_int;
                 p_max = 0;
                 p_by_smaller = Array.make ((n / 2) + 1) 0 })
         in
         let deg = Array.make (depth + 1) 0 in
         Arena.Orbit.iter_segment ~lo ~hi store si (fun cyc ~weight ->
             let sent = Simulator.run_sent_codes ~seed source (stamp [ cyc ]) in
             process_rep ps deg cyc sent ~weight);
         Obs.Metrics.Counter.add reps_metric (hi - lo);
         ps))

let full_stats ?(seed = 0) ?root ?deepest algo ~n () =
  if n < 6 then invalid_arg "Quotient.full_stats: need n >= 6 (V2 is empty below)";
  require_sound algo ~n;
  Obs.span "quotient.full_stats" ~attrs:[ ("n", string_of_int n); ("algo", Algo.name algo) ]
  @@ fun () ->
  let store = Arena.Orbit.get ?root ~n () in
  let rounds = Algo.rounds algo ~n in
  let partials =
    Array.map
      (fun ps -> ps.(rounds))
      (stream ~seed ?root (Arena.code_source ?deepest algo ~n) ~n store)
  in
  let reps = Array.fold_left (fun acc p -> acc + p.p_reps) 0 partials in
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
    rounds;
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
    t_i = Census.t_i_closed_form ~n }
