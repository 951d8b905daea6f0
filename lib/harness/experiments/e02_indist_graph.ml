(* E2: indistinguishability graph structure. Version 3: cells dispatch
   through the orbit-reduced Arena paths where sound (identical rows —
   see the parity tests), and a second table streams exhaustive
   full-graph statistics for the anonymous family through the segmented
   orbit store, past the materialisable census (n up to 13 via --n). *)

open Exp_common

(* The materialised G^t_{x,y} needs the interned census (practical to
   n = 10); the streaming orbit frontier reaches Arena.Orbit.max_n. *)
let indist_max_n = 10

(* Every part sweeps these truncations. A cell reads its labels off one
   execution of the deepest — the t-round codes are the low 2t bits of
   the deepest member's — so one run per instance serves the part's
   cells (Arena.codes, Quotient.full_stats); only discovery at t = 0,
   which computes on rotation classes, keeps its own run. *)
let truncations = [ 0; 1; 2; 3 ]
let deepest = List.fold_left max 0 truncations

let indist_grid ns =
  List.concat_map
    (fun n ->
      if n <= indist_max_n then
        List.map (fun t -> P.v [ ps "part" "indist"; pi "n" n; pi "t" t ]) truncations
      else [])
    ns
  @ List.concat_map
      (fun n -> List.map (fun t -> P.v [ ps "part" "orbit"; pi "n" n; pi "t" t ]) truncations)
      ns

let indist_graph =
  experiment ~id:"indist-graph" ~version:3
    ~title:"E2  Lemmas 3.7/3.8 + Theorem 2.1: structure of G^t_{x,y}"
    ~doc:"E2: indistinguishability graph structure + orbit frontier"
    ~tables:
      [ { E.name = "";
          columns =
            [ E.icol ~width:3 "n"; E.icol ~width:3 "t"; E.icol ~width:6 ~header:"|V1|" "v1";
              E.icol ~width:6 ~header:"|V2|" "v2"; E.icol ~width:9 "edges";
              E.icol ~width:9 "isolated"; E.icol ~width:8 ~header:"minDeg" "min_deg";
              E.icol ~width:8 ~header:"maxDeg" "max_deg"; E.icol ~width:5 "k";
              E.bcol ~width:5 ~header:"Hall" "hall"; E.bcol ~width:9 ~header:"k-match" "k_match" ]
        };
        { E.name = "orbit frontier (full graph, anonymous algorithm)";
          columns =
            [ E.icol ~width:3 "n"; E.icol ~width:3 "t"; E.icol ~width:11 ~header:"|V1|" "v1";
              E.icol ~width:14 ~header:"|V2|" "v2"; E.icol ~width:10 "reps";
              E.fcol ~width:7 ~prec:2 ~header:"V1/reps" "reduction"; E.icol ~width:12 "edges";
              E.icol ~width:11 "isolated"; E.icol ~width:8 ~header:"minDeg" "min_deg";
              E.icol ~width:8 ~header:"maxDeg" "max_deg" ]
        } ]
    ~notes:
      [ "note: at t=0 every V1 vertex has degree n(n-5)/2 and |V2|<|V1|, so k=1 Hall fails";
        "globally but every V2 vertex is reachable; as t grows the graph thins out.";
        "orbit frontier: weighted sums over one representative per rotation class, streamed";
        "off the segmented store — V1/reps -> n as orbits become free; feasible to n = 13." ]
    ~grid:(indist_grid [ 6; 7; 8 ])
    ~grid_of_ns:indist_grid
    ~n_range:(6, Core.Arena.Orbit.max_n)
    (fun p ->
      let n = P.int p "n" and t = P.int p "t" in
      match P.str p "part" with
      | "indist" ->
        let rng = Rng.create ~seed:(1000 + n + t) in
        let algo = truncated_optimist ~rounds:t in
        let s = Core.Kt0_bound.indist_stats ~deepest algo ~n ~rounds:t ~k:1 rng in
        Core.Kt0_bound.
          [ E.row
              [ pi "n" n; pi "t" t; pi "v1" s.v1_count; pi "v2" s.v2_count; pi "edges" s.edges;
                pi "isolated" s.isolated_v1; pi "min_deg" s.min_live_degree;
                pi "max_deg" s.max_degree_v1; pi "k" s.k; pb "hall" s.hall_ok;
                pb "k_match" s.k_matching_found ]
          ]
      | "orbit" ->
        let algo = anonymous_optimist ~rounds:t in
        let r = Core.Kt0_bound.orbit_row ~deepest algo ~n () in
        Core.Kt0_bound.
          [ E.row ~table:"orbit frontier (full graph, anonymous algorithm)"
              [ pi "n" n; pi "t" t; pi "v1" r.v1; pi "v2" r.v2; pi "reps" r.reps;
                pf "reduction" r.reduction; pi "edges" r.edges; pi "isolated" r.isolated_v1;
                pi "min_deg" r.min_live_degree; pi "max_deg" r.max_degree_v1 ]
          ]
      | part -> invalid_arg ("indist-graph: unknown part " ^ part))

let experiments = [ indist_graph ]
