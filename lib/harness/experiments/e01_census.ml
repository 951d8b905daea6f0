(* E1: Lemma 3.9 census ratio. *)

open Exp_common

let census =
  experiment ~id:"census" ~title:"E1  Lemma 3.9: |V2| = |V1| * Theta(log n)"
    ~doc:"E1: Lemma 3.9 census ratio"
    ~tables:
      [ { E.name = "";
          columns =
            [ E.icol ~width:4 "n"; E.scol ~width:22 ~header:"|V1|" "v1";
              E.scol ~width:22 ~header:"|V2|" "v2"; E.fcol ~width:10 "ratio";
              E.fcol ~width:10 ~header:"H(n/2)-1.5" "predicted";
              E.scol ~width:8 ~header:"enum V1" "enum_v1"; E.scol ~width:8 ~header:"enum V2" "enum_v2" ]
        } ]
    ~notes:[ "shape check: ratio/(H(n/2)-1.5) should be ~constant (Theta(log n))." ]
    ~grid:(grid1 "n" [ 6; 7; 8; 9; 10; 12; 16; 24; 32; 48; 64 ])
    ~grid_of_ns:(grid1 "n")
    (fun p ->
      let n = P.int p "n" in
      let r = Core.Kt0_bound.census_row ~n in
      let enum = function Some v -> string_of_int v | None -> "-" in
      Core.Kt0_bound.
        [ E.row
            [ pi "n" n; ps "v1" (Nat.to_string r.v1); ps "v2" (Nat.to_string r.v2);
              pf "ratio" r.ratio; pf "predicted" r.predicted;
              ps "enum_v1" (enum r.v1_enumerated); ps "enum_v2" (enum r.v2_enumerated) ]
        ])

let experiments = [ census ]
