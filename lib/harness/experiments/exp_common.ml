(* Shared prelude of the E1..E14 experiment modules: module aliases, the
   param-field shorthands, the Experiment.t constructor and the truncated
   KT-0 algorithm families every §3 experiment quantifies over. Every
   cell derives all randomness from its own parameters (per-cell seeds),
   so a cell's rows are a pure function of (id, version, params) — the
   cache-key contract — and sweeps are byte-identical for any
   BCCLB_NUM_DOMAINS. Bump an experiment's [version] whenever its cell
   semantics change. *)

module E = Experiment
module P = Params
module Core = Bcclb_core
module Rng = Bcclb_util.Rng
module Nat = Bcclb_bignum.Nat
module Ratio = Bcclb_bignum.Ratio
module Mathx = Bcclb_util.Mathx
module Arrayx = Bcclb_util.Arrayx
module Instance = Bcclb_bcc.Instance
module Simulator = Bcclb_bcc.Simulator
module Problems = Bcclb_bcc.Problems
module Algo = Bcclb_bcc.Algo
module Gen = Bcclb_graph.Gen
module Graph = Bcclb_graph.Graph
module Algos = Bcclb_algorithms
module Pls = Bcclb_plschemes

let pi k v = (k, P.Int v)
let pf k v = (k, P.Float v)
let pb k v = (k, P.Bool v)
let ps k v = (k, P.Str v)
let grid1 key xs = List.map (fun x -> P.v [ pi key x ]) xs

let experiment ~id ~title ~doc ?(version = 1) ~tables ?(notes = []) ~grid ?grid_of_ns ?n_range cell =
  { E.id; title; doc; version; tables; notes; default_grid = grid; grid_of_ns; n_range; cell }

let truncated_optimist ~rounds =
  Algos.Discovery.connectivity_truncated ~knowledge:Instance.KT0 ~max_degree:2 ~rounds
    ~optimist:true

let truncated_pessimist ~rounds =
  Algos.Discovery.connectivity_truncated ~knowledge:Instance.KT0 ~max_degree:2 ~rounds
    ~optimist:false

let partial_optimist ~rounds =
  Algos.Discovery.connectivity_partial ~knowledge:Instance.KT0 ~max_degree:2 ~rounds
    ~optimist:true

(* The anonymous (ID-oblivious) family: transcripts are rotation-
   equivariant, so these are the algorithms the orbit-reduced census
   paths (Indist_graph's rotation atlas, Quotient, Crossing_check.check_reps)
   quantify over. *)
let anonymous_optimist ~rounds =
  Algos.Adjacency_broadcast.connectivity_truncated ~rounds ~optimist:true
