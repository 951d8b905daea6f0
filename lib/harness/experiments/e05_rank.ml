(* E5: rank certificates for M^n and E^n. *)

open Exp_common

let rank =
  let module Pm = Bcclb_linalg.Partition_matrix in
  let module Sp = Bcclb_partition.Set_partition in
  let module Tp = Bcclb_partition.Two_partition in
  experiment ~id:"rank" ~title:"E5  Theorem 2.3 / Lemma 4.1: rank(M^n) = B_n, rank(E^n) = r"
    ~doc:"E5: rank certificates for M^n and E^n"
    ~tables:
      [ { E.name = "";
          columns =
            [ E.scol ~width:8 "matrix"; E.icol ~width:4 "n"; E.icol ~width:10 ~header:"dim" "dim";
              E.icol ~width:8 "rank"; E.bcol ~width:6 "full";
              E.fcol ~width:12 ~prec:2 ~header:"lb bits" "lb_bits";
              E.icol ~width:10 ~header:"ub bits" "ub_bits" ]
        } ]
    ~notes:[ "full=true certifies full rank over Q (mod-p certificate)." ]
    ~grid:
      (List.map (fun n -> P.v [ ps "matrix" "M"; pi "n" n; pi "samples" 20 ]) [ 1; 2; 3; 4; 5; 6 ]
      @ List.map (fun n -> P.v [ ps "matrix" "E"; pi "n" n; pi "samples" 20 ]) [ 2; 4; 6; 8; 10 ])
    (fun p ->
      let n = P.int p "n" and samples = P.int p "samples" and matrix = P.str p "matrix" in
      let rng = Rng.create ~seed:(500 + (2 * n) + String.length matrix mod 2) in
      let m, sample =
        match matrix with
        | "M" -> (Pm.m_matrix ~n, Sp.random_crp)
        | "E" -> (Pm.e_matrix ~n, Tp.random)
        | m -> invalid_arg ("rank: unknown matrix " ^ m)
      in
      let r = Core.Kt1_bound.rank_row ~n ~matrix:m ~sample rng ~samples in
      Core.Kt1_bound.
        [ E.row
            [ ps "matrix" (matrix ^ "^n"); pi "n" n; pi "dim" r.dimension; pi "rank" r.rank;
              pb "full" r.full; pf "lb_bits" r.lb_bits; pi "ub_bits" r.ub_bits ]
        ])

let experiments = [ rank ]
