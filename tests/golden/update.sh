#!/bin/sh
# Regenerate the golden files from the current sn40l_run, bench and
# example builds.
#
#   tests/golden/update.sh [build-dir]     (default: build)
#
# Run it from the repository root after building. A change that moves
# a golden file says in its description which fields moved and why.
set -eu
build=${1:-build}
golden=$(cd "$(dirname "$0")" && pwd)
bin=$(cd "$build" && pwd)/tools/sn40l_run
bench=$(cd "$build" && pwd)/bench
examples=$(cd "$build" && pwd)/examples
test -x "$bin" || { echo "no sn40l_run under $build/tools" >&2; exit 1; }
for cmd in "$golden"/*.cmd; do
  name=$(basename "$cmd" .cmd)
  cmake -DBIN="$bin" -DBENCH_DIR="$bench" \
        -DEXAMPLES_DIR="$examples" -DCASE="$name" \
        -DGOLDEN_DIR="$golden" \
        -DWORK_DIR="$build/golden/$name" -DUPDATE=ON \
        -P "$golden/golden_case.cmake"
  echo "updated $name"
done
