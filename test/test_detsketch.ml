open Bcclb_detsketch
module Rng = Bcclb_util.Rng

let all_coords universe = Array.init universe (fun e -> e)

let test_gfp_field () =
  let f = Gfp.for_universe ~universe:190 in
  Alcotest.(check bool) "prime exceeds universe" true (Gfp.prime f > 190);
  Alcotest.(check int) "smallest such prime" 191 (Gfp.prime f);
  Alcotest.(check int) "element bits" 8 (Gfp.element_bits f);
  Alcotest.(check bool) "memoized" true (Gfp.for_universe ~universe:190 == f);
  Alcotest.(check int) "signed small" 3 (Gfp.signed f 3);
  Alcotest.(check int) "signed negative" (-1) (Gfp.signed f (Gfp.prime f - 1));
  Alcotest.(check int) "inverse" 1 (Gfp.mul f 17 (Gfp.inv f 17));
  Alcotest.check_raises "composite rejected" (Invalid_argument "Gfp.of_prime: not prime")
    (fun () -> ignore (Gfp.of_prime 91))

let test_syndrome_empty () =
  let f = Gfp.for_universe ~universe:100 in
  let t = Syndrome.create ~field:f ~r:(Syndrome.elements_for ~s:3) in
  Alcotest.(check bool) "zero" true (Syndrome.is_zero t);
  match Syndrome.decode t ~s:3 ~candidates:(all_coords 100) with
  | Some [||] -> ()
  | _ -> Alcotest.fail "empty decodes to empty support"

let check_exact ~universe ~s entries =
  let f = Gfp.for_universe ~universe in
  let t = Syndrome.create ~field:f ~r:(Syndrome.elements_for ~s) in
  List.iter (fun (coord, weight) -> Syndrome.add t ~coord ~weight) entries;
  let expect = List.sort compare (List.filter (fun (_, w) -> w <> 0) entries) in
  match Syndrome.decode t ~s ~candidates:(all_coords universe) with
  | None -> Alcotest.fail "decode failed on an in-budget vector"
  | Some got -> Alcotest.(check (list (pair int int))) "exact recovery" expect (Array.to_list got)

let test_syndrome_exact_recovery () =
  check_exact ~universe:50 ~s:1 [ (42, 1) ];
  check_exact ~universe:50 ~s:3 [ (0, 1); (17, -1); (49, 1) ];
  check_exact ~universe:300 ~s:4 [ (5, 2); (7, -3); (123, 5); (299, 1) ];
  (* Full budget. *)
  check_exact ~universe:100 ~s:5 [ (1, 1); (2, -1); (3, 1); (4, -1); (5, 1) ];
  (* The edge universe of n = 512 vertices, s = 24 random +-1 entries. *)
  let universe = 512 * 511 / 2 in
  let rng = Rng.create ~seed:99 in
  let planted = Hashtbl.create 32 in
  while Hashtbl.length planted < 24 do
    let c = Rng.int rng universe in
    if not (Hashtbl.mem planted c) then Hashtbl.add planted c (if Rng.bool rng then 1 else -1)
  done;
  check_exact ~universe ~s:24 (Hashtbl.fold (fun c w acc -> (c, w) :: acc) planted [])

let test_syndrome_random_recovery () =
  let rng = Rng.create ~seed:1055 in
  let universe = 400 in
  let s = 6 in
  for _ = 1 to 100 do
    let size = Rng.int rng (s + 1) in
    let tbl = Hashtbl.create 8 in
    while Hashtbl.length tbl < size do
      let c = Rng.int rng universe in
      if not (Hashtbl.mem tbl c) then
        Hashtbl.add tbl c (if Rng.int rng 2 = 0 then 1 else -1)
    done;
    check_exact ~universe ~s (Hashtbl.fold (fun c w acc -> (c, w) :: acc) tbl [])
  done

let test_syndrome_linearity () =
  let f = Gfp.for_universe ~universe:200 in
  let r = Syndrome.elements_for ~s:4 in
  let direct = Syndrome.create ~field:f ~r in
  let merged = Syndrome.create ~field:f ~r in
  List.iter
    (fun (c, w) ->
      Syndrome.add direct ~coord:c ~weight:w;
      let single = Syndrome.create ~field:f ~r in
      Syndrome.add single ~coord:c ~weight:w;
      Syndrome.merge_into ~into:merged single)
    [ (3, 1); (90, -1); (150, 1) ];
  Alcotest.(check bool) "merge of singletons = direct" true (Syndrome.equal direct merged);
  (* An edge internal to a merged vertex set cancels: +1 from one
     endpoint's sketch, -1 from the other's. *)
  let a = Syndrome.create ~field:f ~r and b = Syndrome.create ~field:f ~r in
  Syndrome.add a ~coord:77 ~weight:1;
  Syndrome.add b ~coord:77 ~weight:(-1);
  Syndrome.merge_into ~into:a b;
  Alcotest.(check bool) "internal edge cancels" true (Syndrome.is_zero a);
  (* Subtraction is just a negative-weight add. *)
  let c = Syndrome.create ~field:f ~r in
  Syndrome.add c ~coord:12 ~weight:1;
  Syndrome.add c ~coord:12 ~weight:(-1);
  Alcotest.(check bool) "remove cancels" true (Syndrome.is_zero c)

let test_syndrome_never_lies_near_budget () =
  (* Sparsity s+1 .. s+3 vectors must fail loudly, never decode to a
     wrong (≤ s)-sparse answer: the 3 extra check elements at work. *)
  let rng = Rng.create ~seed:2811 in
  let universe = 300 in
  let s = 4 in
  for over = 1 to 3 do
    for _ = 1 to 50 do
      let tbl = Hashtbl.create 8 in
      while Hashtbl.length tbl < s + over do
        let c = Rng.int rng universe in
        if not (Hashtbl.mem tbl c) then
          Hashtbl.add tbl c (if Rng.int rng 2 = 0 then 1 else -1)
      done;
      let f = Gfp.for_universe ~universe in
      let t = Syndrome.create ~field:f ~r:(Syndrome.elements_for ~s) in
      Hashtbl.iter (fun coord weight -> Syndrome.add t ~coord ~weight) tbl;
      match Syndrome.decode t ~s ~candidates:(all_coords universe) with
      | None -> ()
      | Some _ -> Alcotest.fail "decoded an over-budget vector"
    done
  done

let test_syndrome_candidate_restriction () =
  let universe = 120 in
  let f = Gfp.for_universe ~universe in
  let t = Syndrome.create ~field:f ~r:(Syndrome.elements_for ~s:2) in
  Syndrome.add t ~coord:30 ~weight:1;
  Syndrome.add t ~coord:60 ~weight:(-1);
  (match Syndrome.decode t ~s:2 ~candidates:[| 10; 30; 60; 90 |] with
  | Some [| (30, 1); (60, -1) |] -> ()
  | _ -> Alcotest.fail "decode within candidate set");
  (* Support not fully inside the candidate set: refuse, don't invent. *)
  match Syndrome.decode t ~s:2 ~candidates:[| 10; 30; 90 |] with
  | None -> ()
  | Some _ -> Alcotest.fail "decoded with a missing candidate"

let test_syndrome_serialization () =
  let universe = 250 in
  let f = Gfp.for_universe ~universe in
  let r = Syndrome.elements_for ~s:3 in
  let t = Syndrome.create ~field:f ~r in
  List.iter (fun (c, w) -> Syndrome.add t ~coord:c ~weight:w) [ (8, 1); (99, -1); (249, 1) ];
  let bits = Syndrome.to_bits t in
  Alcotest.(check int) "length" (Syndrome.serialized_bits t) (String.length bits);
  Alcotest.(check int) "r * element_bits" (r * Gfp.element_bits f) (String.length bits);
  Alcotest.(check bool) "only 0/1" true (String.for_all (fun ch -> ch = '0' || ch = '1') bits);
  let t' = Syndrome.of_bits ~field:f ~r bits in
  Alcotest.(check bool) "roundtrip" true (Syndrome.equal t t');
  Alcotest.(check string) "stable bits" bits (Syndrome.to_bits t')

let suites =
  [ Alcotest.test_case "gfp field sizing" `Quick test_gfp_field;
    Alcotest.test_case "empty syndrome" `Quick test_syndrome_empty;
    Alcotest.test_case "exact recovery" `Quick test_syndrome_exact_recovery;
    Alcotest.test_case "random exact recovery" `Quick test_syndrome_random_recovery;
    Alcotest.test_case "linearity + cancellation" `Quick test_syndrome_linearity;
    Alcotest.test_case "never lies near budget" `Quick test_syndrome_never_lies_near_budget;
    Alcotest.test_case "candidate restriction" `Quick test_syndrome_candidate_restriction;
    Alcotest.test_case "serialization" `Quick test_syndrome_serialization ]

let qsuites =
  let open QCheck2 in
  [ Test.make ~name:"syndrome exact recovery (random +-1 vectors)" ~count:300
      Gen.(pair (0 -- 1_000_000) (1 -- 5))
      (fun (seed, size) ->
        let rng = Rng.create ~seed in
        let universe = 80 in
        let f = Gfp.for_universe ~universe in
        let t = Syndrome.create ~field:f ~r:(Syndrome.elements_for ~s:5) in
        let tbl = Hashtbl.create 8 in
        while Hashtbl.length tbl < size do
          let c = Rng.int rng universe in
          if not (Hashtbl.mem tbl c) then Hashtbl.add tbl c (if Rng.int rng 2 = 0 then 1 else -1)
        done;
        Hashtbl.iter (fun coord weight -> Syndrome.add t ~coord ~weight) tbl;
        match Syndrome.decode t ~s:5 ~candidates:(Array.init universe (fun e -> e)) with
        | None -> false
        | Some got ->
          Array.length got = Hashtbl.length tbl
          && Array.for_all (fun (c, w) -> Hashtbl.find_opt tbl c = Some w) got) ]
