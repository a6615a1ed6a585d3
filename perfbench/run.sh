#!/usr/bin/env bash
# Build rwt and the benchmark from this checkout's sources, then run one
# workload:
#
#   bash perfbench/run.sh --workload corpus|sweep|serve --seed N \
#     --seconds S --trace 0|1
#
# Run it from the root of a checkout of the repository. Build products go
# to .bench_build, scratch files to .bench_work (removed after each run),
# traces to .bench_out. The last line of stdout is the result object.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -f bin/rwt.ml ] || [ ! -d lib ]; then
  echo "perfbench: no rwt sources here (dune-project, bin/rwt.ml, lib/); run from a checkout of the repository" >&2
  exit 2
fi
if ! command -v dune > /dev/null 2>&1; then
  eval "$(opam env 2> /dev/null)" || true
fi
# the build must write nothing outside the checkout
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build ./bin/rwt.exe ./perfbench/main.exe 1>&2
exec .bench_build/default/perfbench/main.exe --rwt .bench_build/default/bin/rwt.exe "$@"
