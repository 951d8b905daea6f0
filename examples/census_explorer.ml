(* Explore the instance census and the indistinguishability graph of the
   §3 lower bound at a small, fully enumerable size.

     dune exec examples/census_explorer.exe
*)

module Core = Bcclb_core
module Cycles = Bcclb_graph.Cycles
module Nat = Bcclb_bignum.Nat
module Combi = Bcclb_bignum.Combi

let () =
  let n = 7 in
  (* V1 and V2, exhaustively. *)
  let v1 = Core.Census.one_cycles ~n and v2 = Core.Census.two_cycles ~n in
  Printf.printf "n=%d: |V1| = %d (closed form %s), |V2| = %d (closed form %s)\n" n (Array.length v1)
    (Nat.to_string (Combi.one_cycle_count n))
    (Array.length v2)
    (Nat.to_string (Combi.two_cycle_count n));
  assert (Nat.to_string (Combi.one_cycle_count n) = string_of_int (Array.length v1));
  assert (Nat.to_string (Combi.two_cycle_count n) = string_of_int (Array.length v2));
  Format.printf "a one-cycle instance : %a@." Cycles.pp v1.(0);
  Format.printf "a two-cycle instance : %a@." Cycles.pp v2.(0);

  (* The indistinguishability graph after t rounds of a truncated
     algorithm: its left degrees shrink as the algorithm talks more. *)
  List.iter
    (fun t ->
      let algo =
        Bcclb_algorithms.Discovery.connectivity_truncated ~knowledge:Bcclb_bcc.Instance.KT0
          ~max_degree:2 ~rounds:t ~optimist:true
      in
      let g = Core.Indist_graph.build algo ~n () in
      let isolated = ref 0 in
      Array.iteri (fun i _ -> if Core.Indist_graph.degree_v1 g i = 0 then incr isolated) g.Core.Indist_graph.v1;
      Printf.printf "t=%d: label (x,y)=(%S,%S), %d edges, %d isolated one-cycle instances\n" t
        g.Core.Indist_graph.x g.Core.Indist_graph.y (Core.Indist_graph.num_edges g) !isolated)
    [ 0; 1; 2; 3 ];

  (* The exact error a truncated algorithm makes under the hard
     distribution mu — the quantity Theorem 3.1 lower-bounds. The full
     round budget makes none. *)
  let full = Core.Kt0_bound.upper_bound_rounds ~n in
  List.iter
    (fun t ->
      let algo =
        Bcclb_algorithms.Discovery.connectivity_truncated ~knowledge:Bcclb_bcc.Instance.KT0
          ~max_degree:2 ~rounds:t ~optimist:true
      in
      let r = Core.Hard_distribution.exact_error algo ~n in
      Printf.printf "t=%2d: mu-error = %s (%.4f)\n" t
        (Bcclb_bignum.Ratio.to_string r.Core.Hard_distribution.error)
        (Core.Hard_distribution.error_float r);
      if t = full then assert (Core.Hard_distribution.error_float r = 0.))
    [ 0; 2; 4; full ];
  print_endline "census_explorer: OK"
