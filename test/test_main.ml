let q = List.map QCheck_alcotest.to_alcotest

(* The dist end-to-end tests re-exec this very binary as their worker
   processes (same-executable contract of the Marshal audit in
   Bcclb_dist.Msg): when the flag variable is set, this process is a
   worker, not a test run — connect and serve, never touch alcotest. *)
let () =
  match Sys.getenv_opt Test_dist.worker_env with
  | Some address when address <> "" -> Test_dist.worker_main address
  | _ -> (
    (* Listen-mode variant: a pre-started roster worker for the
       `Roster end-to-end tests. *)
    match Sys.getenv_opt Test_dist.listen_env with
    | Some spec when spec <> "" ->
      Test_dist.worker_main_listen spec;
      exit 0
    | _ -> ())

let () =
  Alcotest.run "bcclb"
    [ ("util", Test_util.suites @ q Test_util.qsuites);
      ("bignum", Test_bignum.suites @ q Test_bignum.qsuites);
      ("graph", Test_graph.suites @ q Test_graph.qsuites);
      ("partition", Test_partition.suites @ q Test_partition.qsuites);
      ("linalg", Test_linalg.suites @ q Test_linalg.qsuites);
      ("bcc", Test_bcc.suites @ q Test_bcc.qsuites);
      ("algorithms", Test_algorithms.suites @ q Test_algorithms.qsuites);
      ("comm", Test_comm.suites @ q Test_comm.qsuites);
      ("info", Test_info.suites @ q Test_info.qsuites);
      ("core", Test_core.suites @ q Test_core.qsuites);
      ("plschemes", Test_plschemes.suites @ q Test_plschemes.qsuites);
      ("rcc", Test_rcc.suites @ q Test_rcc.qsuites);
      ("sketch", Test_sketch.suites @ q Test_sketch.qsuites);
      ("detsketch", Test_detsketch.suites @ q Test_detsketch.qsuites);
      ("engine", Test_engine.suites @ q Test_engine.qsuites);
      ("harness", Test_harness.suites @ q Test_harness.qsuites);
      ("obs", Test_obs.suites @ q Test_obs.qsuites);
      ("dist", Test_dist.suites @ q Test_dist.qsuites);
      ("ufind", Test_ufind.suites @ q Test_ufind.qsuites);
      ("orbit", Test_orbit.suites @ q Test_orbit.qsuites) ]
