#!/usr/bin/env bash
# Builds the benchmark harness and the mascc CLI from source, then runs
# the harness from the repository root with the given arguments:
#   bash perfbench/run.sh --workload compile-kernels --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
# The shared dune cache lives outside the repository; keep the build inside.
DUNE_CACHE=disabled dune build --root . --display quiet \
  ./perfbench/main.exe ./bin/mascc.exe 1>&2
# Not exec: the harness reads the peak resident set of the processes it
# waited for (cli-compile), which must not include this build.
./_build/default/perfbench/main.exe "$@"
