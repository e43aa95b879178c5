#!/usr/bin/env bash
# po_bench: build the benchmark, then run it (bench/po_bench/README.md).
#
#   bench/po_bench/run.sh [--seed=42] [--seconds=30] [--out=DIR] [--trace] [--smoke]
#       every workload, each in its own process
#   bench/po_bench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#       one workload; the last line of stdout is its JSON summary
#   bench/po_bench/run.sh compare BASE.json... -- CHANGE.json...
#   bench/po_bench/run.sh calibrate RESULT.json... --out FILE [--freeze]
#
# Paths are relative to the repository root, where the script runs. Build
# output goes to stderr; the build lives in build-bench/po_bench.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-bench/po_bench"

if [[ ! -f "$root/CMakeLists.txt" ]]; then
  echo "po_bench: the engine sources are missing from $root" >&2
  exit 2
fi
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target po_bench -j "$(nproc)" >&2
bin="$build/po_bench"

cd "$root"
case "${1:-}" in
  compare | calibrate) exec "$bin" "$@" ;;
esac

git_sha="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
git_dirty=0
if [[ "$git_sha" != unknown && -n "$(git --no-optional-locks status --porcelain 2>/dev/null)" ]]; then
  git_dirty=1
fi

for arg in "$@"; do
  if [[ "$arg" == --workload || "$arg" == --workload=* ]]; then
    exec "$bin" run --git-sha "$git_sha" --git-dirty "$git_dirty" "$@"
  fi
done

status=0
for workload in rec_burst credit_long mixed_http; do
  "$bin" run --workload "$workload" --git-sha "$git_sha" --git-dirty "$git_dirty" "$@" ||
    status=1
done
exit "$status"
