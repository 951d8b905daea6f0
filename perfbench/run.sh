#!/usr/bin/env bash
# Build the experiments CLI and the benchmark from source, then run the
# benchmark with every argument given here. Run from the repository
# root, e.g.
#   bash perfbench/run.sh --workload mc-sim --seed 7 --seconds 20 --trace 0
# The build cache is disabled so that building writes only under _build/.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet bin/experiments.exe perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
