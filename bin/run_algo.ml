(* A command-line driver: run any implemented BCC algorithm on a
   generated instance and report the outcome, rounds, and traffic.

     dune exec bin/run_algo.exe -- --algo discovery-kt0 --graph two-cycles -n 32
*)

open Cmdliner
module Instance = Bcclb_bcc.Instance
module Simulator = Bcclb_bcc.Simulator
module Problems = Bcclb_bcc.Problems
module Gen = Bcclb_graph.Gen
module Graph = Bcclb_graph.Graph
module Rng = Bcclb_util.Rng

type spec = { algo_name : string; knowledge : Instance.knowledge; build : unit -> bool Bcclb_bcc.Algo.packed }

let algos =
  [ ( "discovery-kt0",
      { algo_name = "discovery-kt0";
        knowledge = Instance.KT0;
        build = (fun () -> Bcclb_algorithms.Discovery.connectivity ~knowledge:Instance.KT0 ~max_degree:2) } );
    ( "discovery-kt1",
      { algo_name = "discovery-kt1";
        knowledge = Instance.KT1;
        build = (fun () -> Bcclb_algorithms.Discovery.connectivity ~knowledge:Instance.KT1 ~max_degree:2) } );
    ( "min-label",
      { algo_name = "min-label";
        knowledge = Instance.KT0;
        build = (fun () -> Bcclb_algorithms.Min_label.connectivity ()) } );
    ( "boruvka",
      { algo_name = "boruvka";
        knowledge = Instance.KT1;
        build = (fun () -> Bcclb_algorithms.Boruvka.connectivity ()) } );
    ( "boruvka-bcc1",
      { algo_name = "boruvka-bcc1";
        knowledge = Instance.KT1;
        build = (fun () -> Bcclb_bcc.Split.compile (Bcclb_algorithms.Boruvka.connectivity ())) } );
    ( "adjacency-matrix",
      { algo_name = "adjacency-matrix";
        knowledge = Instance.KT1;
        build = (fun () -> Bcclb_algorithms.Adjacency_matrix.connectivity ()) } );
    ( "hashed-k6",
      { algo_name = "hashed-k6";
        knowledge = Instance.KT0;
        build = (fun () -> Bcclb_algorithms.Hashed_discovery.connectivity ~k:6) } );
    ( "boruvka-kt0",
      { algo_name = "boruvka-kt0";
        knowledge = Instance.KT0;
        build = (fun () -> Bcclb_algorithms.Kt0_compiler.compile (Bcclb_algorithms.Boruvka.connectivity ())) } );
    ( "agm",
      { algo_name = "agm";
        knowledge = Instance.KT1;
        build = (fun () -> Bcclb_algorithms.Agm_connectivity.connectivity ()) } );
    ( "mt",
      { algo_name = "mt";
        knowledge = Instance.KT1;
        build = (fun () -> Bcclb_algorithms.Mt_connectivity.connectivity ()) } );
    ( "mt-bcc1",
      { algo_name = "mt-bcc1";
        knowledge = Instance.KT1;
        build =
          (* The 1-bit variant of the same deterministic protocol:
             Theta(log n) rounds, the frontier's other endpoint. *)
          (fun () ->
            Bcclb_algorithms.Mt_connectivity.connectivity
              ~params:{ Bcclb_algorithms.Mt_connectivity.s0 = 4; phases = 2; bandwidth = 1 }
              ()) } );
    ( "always-yes",
      { algo_name = "always-yes"; knowledge = Instance.KT0; build = Bcclb_algorithms.Trivial.always_yes } ) ]

let graphs = [ "cycle"; "two-cycles"; "multicycle"; "gnp"; "connected"; "bounded-degree" ]

let build_graph rng kind n =
  match kind with
  | "cycle" -> Gen.random_cycle rng n
  | "two-cycles" -> Gen.random_two_cycles rng n
  | "multicycle" -> Gen.random_multicycle rng n
  | "gnp" -> Gen.gnp rng n (2.0 /. float_of_int n)
  | "connected" -> Gen.random_connected rng n
  | "bounded-degree" -> Gen.random_bounded_degree rng n 2
  | other -> invalid_arg (Printf.sprintf "unknown graph kind %S" other)

let report spec graph_kind n g algo result =
  let decision = Problems.system_decision result.Simulator.outputs in
  let truth = Graph.is_connected g in
  Printf.printf "algorithm   : %s\n" (Bcclb_bcc.Algo.name algo);
  Printf.printf "model       : %s, bandwidth %d\n"
    (match spec.knowledge with Instance.KT0 -> "KT-0" | Instance.KT1 -> "KT-1")
    (Bcclb_bcc.Algo.bandwidth algo ~n);
  Printf.printf "instance    : %s, n=%d, %d edges, %d components\n" graph_kind n (Graph.num_edges g)
    (Graph.num_components g);
  Printf.printf "rounds      : %d\n" result.Simulator.rounds_used;
  Printf.printf "bits sent   : %d (all vertices)\n" (Simulator.total_bits_broadcast result);
  Printf.printf "decision    : %s (ground truth: %s) -> %s\n"
    (if decision then "CONNECTED" else "DISCONNECTED")
    (if truth then "CONNECTED" else "DISCONNECTED")
    (if decision = truth then "CORRECT" else "WRONG");
  0

let run algo_key graph_kind n seed =
  match List.assoc_opt algo_key algos with
  | None ->
    Printf.eprintf "unknown algorithm %S; choose from: %s\n" algo_key
      (String.concat ", " (List.map fst algos));
    1
  | Some spec -> (
    (* A family refuses an input outside its promise when it is built or
       initialised: report that in one line, not as an uncaught
       exception. *)
    match
      let rng = Rng.create ~seed in
      let g = build_graph rng graph_kind n in
      let inst =
        match spec.knowledge with
        | Instance.KT0 -> Instance.kt0_circulant g
        | Instance.KT1 -> Instance.kt1_of_graph g
      in
      let algo = spec.build () in
      (g, algo, Simulator.run ~seed algo inst)
    with
    | exception Invalid_argument msg ->
      Printf.eprintf "run_algo: %s\n" msg;
      1
    | g, algo, result -> report spec graph_kind n g algo result)

let algo_arg =
  Arg.(value & opt string "discovery-kt0"
       & info [ "algo"; "a" ] ~docv:"NAME"
           ~doc:(Printf.sprintf "Algorithm: %s" (String.concat ", " (List.map fst algos))))

let graph_arg =
  Arg.(value & opt string "two-cycles"
       & info [ "graph"; "g" ] ~docv:"KIND" ~doc:(Printf.sprintf "Instance kind: %s" (String.concat ", " graphs)))

let n_arg = Arg.(value & opt int 32 & info [ "n" ] ~doc:"Number of vertices")
let seed_arg = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Random seed (instance and public coins)")

let () =
  let term = Term.(const run $ algo_arg $ graph_arg $ n_arg $ seed_arg) in
  let info = Cmd.info "run_algo" ~doc:"Run a BCC algorithm on a generated instance" in
  exit (Cmd.eval' (Cmd.v info term))
