open Bcclb_linalg
open Bcclb_bignum
open Bcclb_partition
module Rng = Bcclb_util.Rng

let zmod = Zmod.create ()

(* [Zmod.rank] eliminates its argument in place: a matrix that is
   checked again after ranking is ranked through a copy. *)
let copy m = Array.map Array.copy m

(* Reference Gaussian elimination over Z_p through the public field
   operations, every step reduced: the oracle for [Zmod.rank]. *)
let oracle_rank t m =
  let rows = Array.length m in
  if rows = 0 then 0
  else begin
    let cols = Array.length m.(0) in
    let m = Array.map (fun row -> Array.map (Zmod.normalize t) row) m in
    let rank = ref 0 in
    let row = ref 0 in
    let col = ref 0 in
    while !row < rows && !col < cols do
      let pivot = ref (-1) in
      (try
         for r = !row to rows - 1 do
           if m.(r).(!col) <> 0 then begin
             pivot := r;
             raise Exit
           end
         done
       with Exit -> ());
      if !pivot = -1 then incr col
      else begin
        let p = !pivot in
        if p <> !row then begin
          let tmp = m.(p) in
          m.(p) <- m.(!row);
          m.(!row) <- tmp
        end;
        let inv_pivot = Zmod.inv t m.(!row).(!col) in
        for r = !row + 1 to rows - 1 do
          if m.(r).(!col) <> 0 then begin
            let factor = Zmod.mul t m.(r).(!col) inv_pivot in
            for c = !col to cols - 1 do
              m.(r).(c) <- Zmod.sub t m.(r).(c) (Zmod.mul t factor m.(!row).(c))
            done
          end
        done;
        incr rank;
        incr row;
        incr col
      end
    done;
    !rank
  end

(* The entry the matrices must hold: 1 iff P ∨ Q is the one-block
   partition, by the generic union-find join. *)
let join_entry p q = if Set_partition.is_coarsest (Set_partition.join p q) then 1 else 0

let test_zmod_arith () =
  let p = Zmod.prime zmod in
  Alcotest.(check int) "normalize neg" (p - 1) (Zmod.normalize zmod (-1));
  Alcotest.(check int) "add wrap" 0 (Zmod.add zmod (p - 1) 1);
  Alcotest.(check int) "inv" 1 (Zmod.mul zmod 12345 (Zmod.inv zmod 12345));
  Alcotest.(check int) "pow fermat" 1 (Zmod.pow zmod 2 (p - 1));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () -> ignore (Zmod.inv zmod 0));
  Alcotest.(check bool) "31-bit prime is prime" true (Zmod.is_probable_prime 2147483647);
  Alcotest.(check bool) "9 not prime" false (Zmod.is_probable_prime 9)

let test_zmod_rank () =
  Alcotest.(check int) "identity" 3 (Zmod.rank zmod [| [| 1; 0; 0 |]; [| 0; 1; 0 |]; [| 0; 0; 1 |] |]);
  Alcotest.(check int) "dependent rows" 2
    (Zmod.rank zmod [| [| 1; 2; 3 |]; [| 2; 4; 6 |]; [| 1; 0; 1 |] |]);
  Alcotest.(check int) "zero matrix" 0 (Zmod.rank zmod [| [| 0; 0 |]; [| 0; 0 |] |]);
  Alcotest.(check int) "wide" 2 (Zmod.rank zmod [| [| 1; 0; 5; 7 |]; [| 0; 1; 2; 3 |] |]);
  Alcotest.(check int) "empty" 0 (Zmod.rank zmod [||])

let test_zmod_rank_wraps () =
  (* [[1, 1], [1, 1 + p]] has rank 2 over Q but rank 1 mod p. *)
  List.iter
    (fun p ->
      let m = [| [| 1; 1 |]; [| 1; 1 + p |] |] and t = Zmod.create ~p () in
      Alcotest.(check int) (Printf.sprintf "rank mod %d" p) 1 (Zmod.rank t (copy m));
      Alcotest.(check int) (Printf.sprintf "oracle mod %d" p) 1 (oracle_rank t m);
      Alcotest.(check int) (Printf.sprintf "rank over Q, p = %d" p) 2 (Bareiss.rank_int m))
    [ 2; 7; Zmod.default_prime ]

let test_bareiss_rank () =
  Alcotest.(check int) "identity" 3 (Bareiss.rank_int [| [| 1; 0; 0 |]; [| 0; 1; 0 |]; [| 0; 0; 1 |] |]);
  Alcotest.(check int) "dependent" 2 (Bareiss.rank_int [| [| 1; 2; 3 |]; [| 2; 4; 6 |]; [| 1; 0; 1 |] |]);
  Alcotest.(check int) "rank 1" 1 (Bareiss.rank_int [| [| 2; 4 |]; [| 3; 6 |] |])

let zint = Alcotest.testable Zint.pp Zint.equal

let test_bareiss_det () =
  Alcotest.check zint "det 2x2" (Zint.of_int (-2)) (Bareiss.det_int [| [| 1; 2 |]; [| 3; 4 |] |]);
  Alcotest.check zint "det singular" Zint.zero (Bareiss.det_int [| [| 1; 2 |]; [| 2; 4 |] |]);
  Alcotest.check zint "det needs swap" (Zint.of_int (-1)) (Bareiss.det_int [| [| 0; 1 |]; [| 1; 0 |] |]);
  (* Vandermonde on 2,3,5: det = (3-2)(5-2)(5-3) = 6. *)
  Alcotest.check zint "vandermonde" (Zint.of_int 6)
    (Bareiss.det_int [| [| 1; 2; 4 |]; [| 1; 3; 9 |]; [| 1; 5; 25 |] |])

let test_partition_matrix_small () =
  (* n=2: partitions (0)(1) and (0,1). Join with (0,1) is always 1;
     (0)(1) v (0)(1) = (0)(1) != 1. M^2 = [[0,1],[1,1]], rank 2 = B_2. *)
  let m = Partition_matrix.m_matrix ~n:2 in
  Alcotest.(check int) "M^2 size" 2 (Array.length m);
  Alcotest.(check int) "rank M^2" 2 (Zmod.rank zmod m);
  let m3 = Partition_matrix.m_matrix ~n:3 in
  Alcotest.(check int) "M^3 size" 5 (Array.length m3);
  Alcotest.(check int) "rank M^3 = B_3" 5 (Zmod.rank zmod (copy m3));
  Alcotest.(check int) "bareiss agrees" 5 (Bareiss.rank_int m3)

let test_matrices_match_join () =
  (* Full rank alone does not prove a matrix right: check every entry. *)
  let check name index m =
    let index = Array.of_list index in
    Alcotest.(check int) (name ^ " dim") (Array.length index) (Array.length m);
    let wrong = ref 0 in
    Array.iteri
      (fun i p -> Array.iteri (fun j q -> if m.(i).(j) <> join_entry p q then incr wrong) index)
      index;
    Alcotest.(check int) (name ^ " entries that differ from the join") 0 !wrong
  in
  for n = 1 to 6 do
    check (Printf.sprintf "M^%d" n) (Set_partition.all ~n) (Partition_matrix.m_matrix ~n)
  done;
  List.iter
    (fun n -> check (Printf.sprintf "E^%d" n) (Two_partition.all ~n) (Partition_matrix.e_matrix ~n))
    [ 2; 4; 6; 8 ]

let test_theorem_2_3 () =
  (* rank(M^n) = B_n for n = 1..6 mod p, and exactly for n <= 4. *)
  List.iter
    (fun (n, bell) ->
      let m = Partition_matrix.m_matrix ~n in
      Alcotest.(check int) (Printf.sprintf "dim M^%d" n) bell (Array.length m);
      Alcotest.(check int) (Printf.sprintf "rank M^%d mod p" n) bell (Zmod.rank zmod (copy m));
      if n <= 4 then Alcotest.(check int) (Printf.sprintf "rank M^%d exact" n) bell (Bareiss.rank_int m))
    [ (1, 1); (2, 2); (3, 5); (4, 15); (5, 52); (6, 203) ]

let test_lemma_4_1 () =
  (* rank(E^n) = r = n!/(2^{n/2} (n/2)!) for n = 2..10 mod p, and exactly
     for n <= 6. *)
  List.iter
    (fun (n, r) ->
      let e = Partition_matrix.e_matrix ~n in
      Alcotest.(check int) (Printf.sprintf "dim E^%d" n) r (Array.length e);
      Alcotest.(check int) (Printf.sprintf "rank E^%d mod p" n) r (Zmod.rank zmod (copy e));
      if n <= 6 then Alcotest.(check int) (Printf.sprintf "rank E^%d exact" n) r (Bareiss.rank_int e))
    [ (2, 1); (4, 3); (6, 15); (8, 105); (10, 945) ]

let suites =
  [ Alcotest.test_case "zmod arithmetic" `Quick test_zmod_arith;
    Alcotest.test_case "zmod rank" `Quick test_zmod_rank;
    Alcotest.test_case "zmod rank drops mod p" `Quick test_zmod_rank_wraps;
    Alcotest.test_case "bareiss rank" `Quick test_bareiss_rank;
    Alcotest.test_case "bareiss det" `Quick test_bareiss_det;
    Alcotest.test_case "partition matrix small" `Quick test_partition_matrix_small;
    Alcotest.test_case "M^n, E^n entries = join" `Quick test_matrices_match_join;
    Alcotest.test_case "Theorem 2.3: rank(M^n)=B_n" `Slow test_theorem_2_3;
    Alcotest.test_case "Lemma 4.1: rank(E^n)=r" `Slow test_lemma_4_1 ]

let qsuites =
  let open QCheck2 in
  let gen_matrix =
    Gen.(
      pair (pair (1 -- 6) (1 -- 6)) (0 -- 1_000_000) >|= fun ((rows, cols), seed) ->
      let rng = Rng.create ~seed in
      Array.init rows (fun _ -> Array.init cols (fun _ -> Rng.int_in_range rng ~lo:(-5) ~hi:5)))
  in
  [ Test.make ~name:"bareiss rank = zmod rank (random small)" ~count:300 gen_matrix (fun m ->
        Bareiss.rank_int m = Zmod.rank zmod (copy m));
    Test.make ~name:"zmod rank = oracle mod 2, 3, 7, 101, 2^31-1" ~count:300
      Gen.(
        triple (pair (1 -- 12) (1 -- 12)) (oneofl [ 2; 3; 7; 101; Zmod.default_prime ]) (0 -- 1_000_000))
      (fun ((rows, cols), p, seed) ->
        let rng = Rng.create ~seed in
        let m = Array.init rows (fun _ -> Array.init cols (fun _ -> Rng.int_in_range rng ~lo:(-50) ~hi:50)) in
        let t = Zmod.create ~p () in
        Zmod.rank t (copy m) = oracle_rank t m);
    Test.make ~name:"rank bounded by dims" ~count:300 gen_matrix (fun m ->
        let r = Zmod.rank zmod m in
        r <= Array.length m && (Array.length m = 0 || r <= Array.length m.(0)));
    Test.make ~name:"det zero iff rank deficient" ~count:200
      Gen.(pair (1 -- 5) (0 -- 1_000_000))
      (fun (n, seed) ->
        let rng = Rng.create ~seed in
        let m = Array.init n (fun _ -> Array.init n (fun _ -> Rng.int_in_range rng ~lo:(-3) ~hi:3)) in
        let d = Bareiss.det_int m in
        Zint.is_zero d = (Bareiss.rank_int m < n));
    Test.make ~name:"duplicating a row preserves rank" ~count:200 gen_matrix (fun m ->
        let m' = Array.append m [| Array.copy m.(0) |] in
        Bareiss.rank_int m' = Bareiss.rank_int m) ]
