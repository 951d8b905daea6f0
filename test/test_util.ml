open Bcclb_util

let check = Alcotest.(check int)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_copy () =
  let a = Rng.create ~seed:7 in
  let _ = Rng.int a 10 in
  let b = Rng.copy a in
  for _ = 1 to 50 do
    check "copy replays" (Rng.int a 97) (Rng.int b 97)
  done

let test_rng_bounds () =
  let r = Rng.create ~seed:1 in
  for _ = 1 to 1000 do
    let x = Rng.int r 7 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 7);
    let y = Rng.int_in_range r ~lo:(-3) ~hi:3 in
    Alcotest.(check bool) "in range" true (y >= -3 && y <= 3)
  done

let test_rng_permutation () =
  let r = Rng.create ~seed:3 in
  let p = Rng.permutation r 20 in
  let sorted = Array.copy p in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 20 Fun.id) sorted

let test_rng_uniformity () =
  (* Bucket-count sanity: each of 10 buckets gets 10% +/- 2%. *)
  let r = Rng.create ~seed:99 in
  let counts = Array.make 10 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    let x = Rng.int r 10 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int trials in
      Alcotest.(check bool) "roughly uniform" true (frac > 0.08 && frac < 0.12))
    counts

let test_ilog2 () =
  check "ilog2 1" 0 (Mathx.ilog2 1);
  check "ilog2 2" 1 (Mathx.ilog2 2);
  check "ilog2 3" 1 (Mathx.ilog2 3);
  check "ilog2 1024" 10 (Mathx.ilog2 1024);
  check "ilog2 1025" 10 (Mathx.ilog2 1025);
  check "ceil 1" 0 (Mathx.ceil_log2 1);
  check "ceil 3" 2 (Mathx.ceil_log2 3);
  check "ceil 1024" 10 (Mathx.ceil_log2 1024);
  check "ceil 1025" 11 (Mathx.ceil_log2 1025);
  Alcotest.check_raises "ilog2 0" (Invalid_argument "Mathx.ilog2: argument must be positive") (fun () ->
      ignore (Mathx.ilog2 0))

let test_binomial () =
  check "C(5,2)" 10 (Mathx.binomial 5 2);
  check "C(10,0)" 1 (Mathx.binomial 10 0);
  check "C(10,10)" 1 (Mathx.binomial 10 10);
  check "C(10,11)" 0 (Mathx.binomial 10 11);
  check "C(10,-1)" 0 (Mathx.binomial 10 (-1));
  check "C(52,5)" 2598960 (Mathx.binomial 52 5)

let test_harmonic () =
  Alcotest.(check bool) "H_0 = 0" true (Mathx.float_eq (Mathx.harmonic 0) 0.0);
  Alcotest.(check bool) "H_1 = 1" true (Mathx.float_eq (Mathx.harmonic 1) 1.0);
  Alcotest.(check bool) "H_4 = 25/12" true (Mathx.float_eq (Mathx.harmonic 4) (25.0 /. 12.0))

let test_pow_isqrt () =
  check "2^10" 1024 (Mathx.pow 2 10);
  check "3^0" 1 (Mathx.pow 3 0);
  check "isqrt 0" 0 (Mathx.isqrt 0);
  check "isqrt 15" 3 (Mathx.isqrt 15);
  check "isqrt 16" 4 (Mathx.isqrt 16);
  check "isqrt 17" 4 (Mathx.isqrt 17)

let test_bits_roundtrip () =
  let b = Bits.of_string "01101" in
  check "width" 5 (Bits.width b);
  check "value" 0b01101 (Bits.value b);
  Alcotest.(check string) "string" "01101" (Bits.to_string b);
  Alcotest.(check bool) "bit 0" true (Bits.bit b 0);
  Alcotest.(check bool) "bit 1" false (Bits.bit b 1);
  Alcotest.(check bool) "bit 2" true (Bits.bit b 2)

let test_bits_append_slice () =
  let a = Bits.of_string "10" and b = Bits.of_string "011" in
  let c = Bits.append a b in
  check "append width" 5 (Bits.width c);
  Alcotest.(check bool) "low bits are a" true (Bits.equal (Bits.slice c ~pos:0 ~len:2) a);
  Alcotest.(check bool) "high bits are b" true (Bits.equal (Bits.slice c ~pos:2 ~len:3) b)

let test_bits_bool () =
  Alcotest.(check bool) "of_bool true" true (Bits.to_bool (Bits.of_bool true));
  Alcotest.(check bool) "of_bool false" false (Bits.to_bool (Bits.of_bool false));
  Alcotest.check_raises "to_bool wide" (Invalid_argument "Bits.to_bool: width is not 1") (fun () ->
      ignore (Bits.to_bool (Bits.of_string "10")))

let test_bits_invalid () =
  Alcotest.check_raises "width too large" (Invalid_argument "Bits.make: width out of range") (fun () ->
      ignore (Bits.make ~width:63 ~value:0));
  Alcotest.check_raises "value too wide" (Invalid_argument "Bits.make: value does not fit in width")
    (fun () -> ignore (Bits.make ~width:2 ~value:4))

let test_seq_append_roundtrip () =
  let s = Bits.Seq.create () in
  check "empty length" 0 (Bits.Seq.length s);
  Bits.Seq.append_bit s true;
  Bits.Seq.append_bit s false;
  Bits.Seq.append_word s ~width:3 ~value:0b101;
  check "length" 5 (Bits.Seq.length s);
  Alcotest.(check bool) "bit 0" true (Bits.Seq.get s 0);
  Alcotest.(check bool) "bit 1" false (Bits.Seq.get s 1);
  Alcotest.(check bool) "bit 2" true (Bits.Seq.get s 2);
  Alcotest.(check bool) "bit 3" false (Bits.Seq.get s 3);
  Alcotest.(check bool) "bit 4" true (Bits.Seq.get s 4);
  Alcotest.(check string) "to_string" "10101" (Bits.Seq.to_string s);
  let w = Bits.Seq.word s ~pos:2 ~len:3 in
  Alcotest.(check bool) "word readback" true (Bits.equal w (Bits.make ~width:3 ~value:0b101))

let test_seq_long () =
  (* Sequences well past one machine word: 200 bits with a recognisable pattern. *)
  let s = Bits.Seq.create () in
  for i = 0 to 199 do
    Bits.Seq.append_bit s (i mod 3 = 0)
  done;
  check "long length" 200 (Bits.Seq.length s);
  for i = 0 to 199 do
    if Bits.Seq.get s i <> (i mod 3 = 0) then Alcotest.failf "bit %d wrong" i
  done;
  let str = Bits.Seq.to_string s in
  check "string length" 200 (String.length str);
  let rt = Bits.Seq.of_string str in
  Alcotest.(check bool) "of_string/to_string roundtrip" true (Bits.Seq.equal s rt);
  check "roundtrip hash" (Bits.Seq.hash s) (Bits.Seq.hash rt);
  check "roundtrip compare" 0 (Bits.Seq.compare s rt);
  (* Cross-word reads: every 50-bit window decodes consistently with get. *)
  for pos = 0 to 150 do
    let w = Bits.Seq.word s ~pos ~len:50 in
    for k = 0 to 49 do
      if Bits.bit w k <> Bits.Seq.get s (pos + k) then
        Alcotest.failf "window pos=%d bit %d wrong" pos k
    done
  done

let test_seq_slice_copy () =
  let s = Bits.Seq.of_string "110010111010001" in
  let sl = Bits.Seq.slice s ~pos:3 ~len:7 in
  check "slice length" 7 (Bits.Seq.length sl);
  for k = 0 to 6 do
    Alcotest.(check bool) "slice bit" (Bits.Seq.get s (3 + k)) (Bits.Seq.get sl k)
  done;
  let c = Bits.Seq.copy s in
  Alcotest.(check bool) "copy equal" true (Bits.Seq.equal s c);
  Bits.Seq.append_bit c true;
  Alcotest.(check bool) "copy independent" false (Bits.Seq.equal s c);
  check "original length unchanged" 15 (Bits.Seq.length s)

let test_seq_of_bits () =
  let b = Bits.of_string "101100" in
  let s = Bits.Seq.of_bits b in
  check "of_bits length" 6 (Bits.Seq.length s);
  Alcotest.(check string) "of_bits string" "101100" (Bits.Seq.to_string s);
  let s2 = Bits.Seq.create () in
  Bits.Seq.append s2 b;
  Alcotest.(check bool) "append = of_bits" true (Bits.Seq.equal s s2)

let test_seq_order () =
  (* compare is length-first, then lexicographic on packed words (low bits first);
     we only rely on it being a total order consistent with equal. *)
  let a = Bits.Seq.of_string "101" and b = Bits.Seq.of_string "1010" in
  Alcotest.(check bool) "unequal lengths differ" false (Bits.Seq.equal a b);
  check "compare antisym" 0 (compare (Bits.Seq.compare a b) (-Bits.Seq.compare b a));
  Alcotest.(check bool) "shorter first" true (Bits.Seq.compare a b < 0);
  Alcotest.check_raises "get out of range" (Invalid_argument "Bits.Seq.get: index out of range")
    (fun () -> ignore (Bits.Seq.get a 3))

let test_arrayx () =
  let a = [| 1; 2; 3; 4 |] in
  Arrayx.swap a 0 3;
  Alcotest.(check (array int)) "swap" [| 4; 2; 3; 1 |] a;
  Alcotest.(check (array int)) "rotate" [| 3; 4; 1; 2 |] (Arrayx.rotate_left [| 1; 2; 3; 4 |] 2);
  Alcotest.(check (array int)) "rotate neg" [| 4; 1; 2; 3 |] (Arrayx.rotate_left [| 1; 2; 3; 4 |] (-1));
  let b = [| 5; 6; 7 |] in
  Arrayx.rev_in_place b;
  Alcotest.(check (array int)) "rev" [| 7; 6; 5 |] b;
  check "sum" 10 (Arrayx.sum [| 1; 2; 3; 4 |]);
  let sorted = [| 1; 3; 4; 8; 9 |] in
  Alcotest.(check (list bool)) "mem_sorted"
    [ false; true; false; true; true; false; true; true; false ]
    (List.map (Arrayx.mem_sorted sorted) [ 0; 1; 2; 3; 4; 5; 8; 9; 10 ]);
  Alcotest.(check bool) "mem_sorted on []" false (Arrayx.mem_sorted [||] 0);
  Alcotest.(check (list int)) "range" [ 2; 3; 4 ] (Arrayx.range 2 5);
  Alcotest.(check (list int)) "take" [ 1; 2 ] (Arrayx.take 2 [ 1; 2; 3 ])

let suites =
  [ Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng copy" `Quick test_rng_copy;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng permutation" `Quick test_rng_permutation;
    Alcotest.test_case "rng uniformity" `Quick test_rng_uniformity;
    Alcotest.test_case "ilog2" `Quick test_ilog2;
    Alcotest.test_case "binomial" `Quick test_binomial;
    Alcotest.test_case "harmonic" `Quick test_harmonic;
    Alcotest.test_case "pow/isqrt" `Quick test_pow_isqrt;
    Alcotest.test_case "bits roundtrip" `Quick test_bits_roundtrip;
    Alcotest.test_case "bits append/slice" `Quick test_bits_append_slice;
    Alcotest.test_case "bits bool" `Quick test_bits_bool;
    Alcotest.test_case "bits invalid" `Quick test_bits_invalid;
    Alcotest.test_case "bit-seq append roundtrip" `Quick test_seq_append_roundtrip;
    Alcotest.test_case "bit-seq long" `Quick test_seq_long;
    Alcotest.test_case "bit-seq slice/copy" `Quick test_seq_slice_copy;
    Alcotest.test_case "bit-seq of_bits" `Quick test_seq_of_bits;
    Alcotest.test_case "bit-seq order" `Quick test_seq_order;
    Alcotest.test_case "arrayx" `Quick test_arrayx ]

let qsuites =
  let open QCheck2 in
  [ Test.make ~name:"bits string roundtrip" ~count:500
      Gen.(string_size ~gen:(oneofl [ '0'; '1' ]) (0 -- 30))
      (fun s -> Bits.to_string (Bits.of_string s) = s);
    Test.make ~name:"bit-seq string roundtrip" ~count:300
      Gen.(string_size ~gen:(oneofl [ '0'; '1' ]) (0 -- 200))
      (fun s -> Bits.Seq.to_string (Bits.Seq.of_string s) = s);
    Test.make ~name:"bit-seq append_word vs string model" ~count:300
      Gen.(list_size (0 -- 20) (pair (1 -- 10) (0 -- 1023)))
      (fun chunks ->
        (* Build the sequence word-wise and a reference string bit-wise; both views
           must agree (to_string is MSB-first, so the model prepends). *)
        let s = Bits.Seq.create () in
        let model = Buffer.create 64 in
        List.iter
          (fun (w, v) ->
            let v = v land ((1 lsl w) - 1) in
            Bits.Seq.append_word s ~width:w ~value:v;
            for k = 0 to w - 1 do
              Buffer.add_char model (if (v lsr k) land 1 = 1 then '1' else '0')
            done)
          chunks;
        let expect =
          let b = Buffer.contents model in
          String.init (String.length b) (fun i -> b.[String.length b - 1 - i])
        in
        Bits.Seq.to_string s = expect
        && Bits.Seq.equal s (Bits.Seq.of_string expect)
        && Bits.Seq.hash s = Bits.Seq.hash (Bits.Seq.of_string expect));
    Test.make ~name:"isqrt spec" ~count:1000
      Gen.(0 -- 1_000_000)
      (fun n ->
        let s = Mathx.isqrt n in
        (s * s <= n) && (s + 1) * (s + 1) > n);
    Test.make ~name:"rotate_left inverse" ~count:500
      Gen.(pair (array_size (1 -- 20) (0 -- 100)) (0 -- 40))
      (fun (a, k) ->
        let n = Array.length a in
        Arrayx.rotate_left (Arrayx.rotate_left a k) (n - (k mod n)) = a);
    Test.make ~name:"sort_uniq_prefix = List.sort_uniq on the prefix" ~count:500
      Gen.(pair (array_size (0 -- 40) (0 -- 12)) (0 -- 40))
      (fun (a, len) ->
        let len = min len (Array.length a) in
        let tail = Array.sub a len (Array.length a - len) in
        let expect = List.sort_uniq Int.compare (Array.to_list (Array.sub a 0 len)) in
        let d = Arrayx.sort_uniq_prefix a len in
        Array.to_list (Array.sub a 0 d) = expect
        && Array.sub a len (Array.length a - len) = tail) ]
