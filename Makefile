.PHONY: all build test check experiments clean

all: build

build:
	dune build

test:
	dune runtest

# The tier-1 gate: what CI runs. Stray trace files from local --trace
# runs, dist sockets from killed runs, and the arena orbit spill segments
# (results/cache/arena — content-addressed, always rebuildable) are
# cleaned up so they never end up in commits. After the tests,
# tools/unused_exports fails the gate on any lib/**/*.mli value that no
# other compilation unit references; it reads the .cmt/.cmti files that
# `dune build @check` writes.
check:
	rm -f *.trace.json *.trace.jsonl *.sock
	rm -rf results/cache/arena e15-*
	dune build && dune runtest
	dune build @check ./tools/unused_exports.exe
	./_build/default/tools/unused_exports.exe _build/default

experiments:
	dune exec bin/experiments.exe -- all

clean:
	dune clean
