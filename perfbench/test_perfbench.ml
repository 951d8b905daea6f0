(* The bench's own logic: output digests and their verdicts, span
   self-time rollup, and the quartiles behind every reported IQR. *)

open Perfbench

let sha256 () =
  let check input expected = Alcotest.(check string) "digest" expected (Sha256.hex input) in
  check "" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
  check "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
  (* 55 and 56 bytes straddle the one-block padding limit. *)
  check (String.make 55 'a') "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318";
  check (String.make 56 'a') "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a";
  check
    (String.init 1000 (fun i -> Char.chr (97 + (i mod 26))))
    "915e53a44c18b19bb06ba5b3f5fcaf1dc4651e8404c63425cfc6174e74659d87"

(* A results directory as the experiments CLI leaves it: one JSONL file
   per experiment plus the manifest. *)
let results_dir () =
  let dir = Filename.temp_file "perfbench-test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let write name s =
    let oc = open_out_bin (Filename.concat dir name) in
    output_string oc s;
    close_out oc
  in
  write "kt0-error.jsonl" "{\"experiment\":\"kt0-error\",\"fields\":{\"n\":6}}\n";
  write "kt0-error-rand.jsonl" "{\"experiment\":\"kt0-error-rand\",\"fields\":{\"err_no\":1}}\n";
  write "manifest.json" "{\"schema\": \"bcclb-run-manifest-v2\", \"cells_total\": 2}\n";
  (dir, write)

let verdict_of dir expect status =
  match Check.verdict expect ~status ~results:dir with Ok _ -> "ok" | Error e -> e

let check_outputs () =
  let dir, write = results_dir () in
  let digest = Check.results_digest dir in
  (* Experiment-id order: "kt0-error" sorts before "kt0-error-rand",
     although "kt0-error-rand.jsonl" sorts before "kt0-error.jsonl". *)
  Alcotest.(check string) "id order"
    (Sha256.hex
       "{\"experiment\":\"kt0-error\",\"fields\":{\"n\":6}}\n\
        {\"experiment\":\"kt0-error-rand\",\"fields\":{\"err_no\":1}}\n")
    digest;
  let expect = { Check.sha256 = digest; cells = 2 } in
  Alcotest.(check string) "pinned outputs pass" "ok" (verdict_of dir expect 0);
  Alcotest.(check string) "nonzero exit fails" "exit 3" (verdict_of dir expect 3);
  Alcotest.(check string) "signal fails" "killed by signal 9" (verdict_of dir expect (-9));
  Alcotest.(check string) "wrong cell count fails" "wrong cell count: 2, expected 5"
    (verdict_of dir { expect with cells = 5 } 0);
  write "kt0-error.jsonl" "{\"experiment\":\"kt0-error\",\"fields\":{\"n\":7}}\n";
  let doctored = verdict_of dir expect 0 in
  Alcotest.(check bool) "doctored JSONL fails" true
    (String.starts_with ~prefix:"digest mismatch" doctored);
  Sys.remove (Filename.concat dir "manifest.json");
  Alcotest.(check string) "missing manifest fails" "missing manifest" (verdict_of dir expect 0);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let span ~name ~start ~dur ~tid ~id ~parent () =
  Printf.sprintf
    "{\"name\":%S,\"start_ns\":%d,\"dur_ns\":%d,\"pid\":7,\"tid\":%d,\"id\":%d,\"parent\":%d,\"depth\":0,\"attrs\":{}}"
    name start dur tid id parent

let rollup () =
  let log =
    String.concat "\n"
      [ (* A 100 ns root with a child [10, 50) on its own domain and two
           overlapping children [20, 50) and [40, 70) on a second one:
           together they cover [10, 70), so the root keeps 40 ns. *)
        span ~name:"runner.experiment" ~start:0 ~dur:100 ~tid:0 ~id:1 ~parent:0 ();
        span ~name:"pool.batch" ~start:10 ~dur:40 ~tid:0 ~id:2 ~parent:1 ();
        span ~name:"runner.cell" ~start:20 ~dur:30 ~tid:1 ~id:3 ~parent:1 ();
        span ~name:"runner.cell" ~start:40 ~dur:30 ~tid:1 ~id:4 ~parent:1 ();
        (* Nested under pool.batch: 15 ns of its 40. *)
        span ~name:"indist.build" ~start:15 ~dur:15 ~tid:0 ~id:5 ~parent:2 ();
        (* A child outliving its parent counts up to the parent's end:
           runner.cell id 4 ends at 70, its child runs [60, 90). *)
        span ~name:"arena.build" ~start:60 ~dur:30 ~tid:1 ~id:6 ~parent:4 () ]
  in
  let self = Rollup.self_seconds (Rollup.of_jsonl log) in
  let ns name = Float.round (List.assoc name self *. 1e9) in
  Alcotest.(check (float 0.)) "root" 40. (ns "runner.experiment");
  Alcotest.(check (float 0.)) "nested" 25. (ns "pool.batch");
  Alcotest.(check (float 0.)) "clamped child" 50. (ns "runner.cell");
  Alcotest.(check (float 0.)) "leaf" 15. (ns "indist.build");
  Alcotest.(check (float 0.)) "outliving leaf" 30. (ns "arena.build");
  let truncated = "{\"name\":\"x\",\"start_ns\":0,\"id\":1,\"parent\":0}" in
  Alcotest.check_raises "malformed line" (Failure ("span log: missing dur_ns in " ^ truncated))
    (fun () -> ignore (Rollup.of_jsonl truncated))

let quartiles () =
  let s = Stats.of_list [ 5.; 1.; 4.; 2.; 3.; 9.; 7.; 8.; 6.; 10. ] in
  Alcotest.(check (float 1e-12)) "median" 5.5 s.median;
  Alcotest.(check (float 1e-12)) "q1" 2.75 s.q1;
  Alcotest.(check (float 1e-12)) "q3" 8.25 s.q3;
  let two = Stats.of_list [ 3.; 1. ] in
  Alcotest.(check (float 1e-12)) "q1 of two" 0.5 two.q1;
  Alcotest.(check (float 1e-12)) "single sample has no spread" 0. (Stats.iqr (Stats.of_list [ 4. ]))

let () =
  Alcotest.run "perfbench"
    [ ( "perfbench",
        [ Alcotest.test_case "sha256 vectors" `Quick sha256;
          Alcotest.test_case "output check on a doctored JSONL" `Quick check_outputs;
          Alcotest.test_case "span self-time rollup" `Quick rollup;
          Alcotest.test_case "python-compatible quartiles" `Quick quartiles ] ) ]
