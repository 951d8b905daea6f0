(* The end-to-end workloads: real `experiments` command lines, each run
   cold in a fresh working directory. Their inputs are the experiments'
   own parameter grids and per-cell seeds, which the pinned digests in
   golden.json fix; --seed feeds only the layer kernels. Why each one
   exists is in BENCHMARK.json and README.md. *)

type t = {
  name : string;
  select : string list;  (** What the command computes. *)
  flags : string list;  (** How: backend, parallelism, cache. *)
  golden : string;  (** Key of the pinned output digest. *)
}

let all =
  [ { name = "all-cold"; select = [ "all" ]; flags = [ "--jobs"; "2" ]; golden = "all" };
    { name = "all-roster";
      select = [ "all" ];
      flags = [ "--jobs"; "2"; "--backend"; "procs"; "--workers"; "2" ];
      golden = "all" };
    { name = "mc-sim";
      select = [ "run"; "kt0-error-rand"; "-n"; "48" ];
      flags = [ "--no-cache"; "--jobs"; "1" ];
      golden = "mc-sim" };
    { name = "census";
      select = [ "run"; "indist-graph"; "-n"; "10,11" ];
      flags = [ "--no-cache"; "--jobs"; "2" ];
      golden = "census" } ]

let find name = List.find_opt (fun w -> w.name = name) all

let args w = w.select @ w.flags

(* Set-up probe: the workload's flags on E1 (11 cells, ~40 ms of
   sweep), so the time spent outside the sweep can be sampled several
   times per run. *)
let probe_args w = [ "run"; "census" ] @ w.flags
let probe_golden = "probe"
