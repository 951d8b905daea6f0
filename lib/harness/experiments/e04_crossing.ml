(* E4: Lemma 3.4 checked by execution. Version 3: alongside the sampled
   random-instance sweep, an exhaustive census-weighted mode covers every
   independent pair of every V1 instance through one representative per
   rotation class (Crossing_check.check_reps, anonymous algorithm) —
   violations must be 0 over the weighted totals too. *)

open Exp_common

let verify_of_param = function
  | "all" -> `All
  | v -> (
    match int_of_string_opt v with
    | Some k when k >= 0 -> `Sampled k
    | _ -> invalid_arg ("crossing: verify must be \"all\" or a sample count, got " ^ v))

let crossing_grid ns =
  List.concat_map
    (fun n ->
      (* Full re-execution where the quadratic pair sweep is cheap; the
         sampled knob demonstrates its cost model above that. *)
      let verify = if n <= 10 then "all" else "16" in
      List.concat_map
        (fun w ->
          List.map
            (fun t -> P.v [ pi "n" n; ps "wiring" w; pi "t" t; pi "instances" 2; ps "verify" verify ])
            [ 0; 3; 6 ])
        [ "circulant"; "random" ])
    ns
  (* Exhaustive weighted mode: enumeration is per rotation class but the
     counts cover the whole census, so keep it to sizes where the class
     count is small. *)
  @ List.concat_map
      (fun n ->
        if n <= 9 then
          List.map
            (fun t -> P.v [ ps "mode" "reps"; pi "n" n; pi "t" t; ps "verify" "4" ])
            [ 0; 2; 4 ]
        else [])
      ns

let report_fields ~n ~t ~wname (r : Bcclb_core.Crossing_check.report) =
  [ pi "n" n; pi "t" t; ps "wiring" wname; pi "crossable" r.crossable_pairs;
    pi "same_label" r.same_label_pairs; pi "indist" r.indistinguishable;
    pi "violations" r.violations; pi "diff_dist" r.distinguishable_diff_label;
    pi "executed" r.executed; pi "verified" r.verified ]

let crossing =
  experiment ~id:"crossing" ~version:3
    ~title:"E4  Lemma 3.4: crossings of same-label pairs are indistinguishable"
    ~doc:"E4: Lemma 3.4 checked by execution"
    ~tables:
      [ { E.name = "";
          columns =
            [ E.icol ~width:3 "n"; E.icol ~width:3 "t"; E.scol ~width:10 "wiring";
              E.icol ~width:10 "crossable"; E.icol ~width:10 ~header:"same-lbl" "same_label";
              E.icol ~width:12 ~header:"indist" "indist";
              E.icol ~width:12 ~header:"VIOLATIONS" "violations";
              E.icol ~width:10 ~header:"diff-dist" "diff_dist";
              E.icol ~width:9 ~header:"executed" "executed";
              E.icol ~width:9 ~header:"verified" "verified" ]
        };
        { E.name = "exhaustive census, weighted over rotation classes (anonymous algorithm)";
          columns =
            [ E.icol ~width:3 "n"; E.icol ~width:3 "t"; E.scol ~width:10 "wiring";
              E.icol ~width:10 "crossable"; E.icol ~width:10 ~header:"same-lbl" "same_label";
              E.icol ~width:12 ~header:"indist" "indist";
              E.icol ~width:12 ~header:"VIOLATIONS" "violations";
              E.icol ~width:10 ~header:"diff-dist" "diff_dist";
              E.icol ~width:9 ~header:"executed" "executed";
              E.icol ~width:9 ~header:"verified" "verified" ]
        } ]
    ~notes:
      [ "Lemma 3.4 holds iff VIOLATIONS = 0 everywhere. verified < same-lbl means the";
        "remaining pairs were counted indistinguishable by the lemma, not re-executed.";
        "The weighted table accounts every independent pair of every census instance";
        "while executing one representative per rotation class." ]
    ~grid:(crossing_grid [ 8; 10; 12 ])
    ~grid_of_ns:crossing_grid
    ~n_range:(6, 15)
    (fun p ->
      let n = P.int p "n" and t = P.int p "t" in
      let verify = verify_of_param (P.str p "verify") in
      match P.find_opt p "mode" with
      | Some (P.Str "reps") ->
        let algo = anonymous_optimist ~rounds:t in
        let r = Core.Crossing_check.check_reps ~verify algo ~n in
        [ E.row ~table:"exhaustive census, weighted over rotation classes (anonymous algorithm)"
            (report_fields ~n ~t ~wname:"circulant" r) ]
      | Some v -> invalid_arg ("crossing: unknown mode " ^ P.value_to_display v)
      | None ->
        let instances = P.int p "instances" in
        let wname = P.str p "wiring" in
        let wiring =
          match wname with
          | "circulant" -> `Circulant
          | "random" -> `Random
          | w -> invalid_arg ("crossing: unknown wiring " ^ w)
        in
        let rng = Rng.create ~seed:(3000 + n + t) in
        let algo = truncated_optimist ~rounds:t in
        let r = Core.Crossing_check.check ~verify algo ~n ~instances ~wiring rng in
        [ E.row (report_fields ~n ~t ~wname r) ])

let experiments = [ crossing ]
