#!/usr/bin/env bash
# Build the benchmark from source and run it.  Run from the root of a
# checkout of the repository; every argument is passed to the
# benchmark (see perfbench/README.md):
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/bench_main.ml ]; then
  echo "perfbench: run from the root of a checkout (dune-project, lib/ and perfbench/ are needed)" >&2
  exit 2
fi

dune build --root . --display quiet ./perfbench/bench_main.exe >&2

PERFBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export PERFBENCH_COMMIT
exec ./_build/default/perfbench/bench_main.exe "$@"
