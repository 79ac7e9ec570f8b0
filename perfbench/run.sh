#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#
#   bash perfbench/run.sh --workload fleet --seed 42 --seconds 20 --trace 0
#   bash perfbench/run.sh smoke
#
# Build output goes to stderr, so the last line of stdout stays the
# benchmark's JSON result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

if [ ! -f dune-project ]; then
  echo "perfbench: run from a source checkout of the repository" >&2
  exit 2
fi

dune build --root . ./perfbench/perf.exe 1>&2
exec ./_build/default/perfbench/perf.exe "$@"
