#!/usr/bin/env bash
# End-to-end service benchmark: the one command.
#
#   bench/e2e/run.sh [--workload W] [--seed N] [--trace [0|1]] [--smoke]
#                    [--out DIR] [--seconds 20]
#
# Builds bench/e2e (and the library from src/) as its own CMake project in
# build/e2e, then runs each workload in its own process: all four by
# default, or only W. Each run prints "workload metric value unit" lines,
# writes a results JSON under build/e2e/results (or DIR), and ends with one
# JSON line: {"correct", "attempted", "failed", "metrics"}. --trace runs the
# per-layer variant. The run length is fixed at 20 s, because every
# workload's size scales with it; --seconds is accepted only with that
# value, for callers that state it. --smoke shortens every run to about one
# second and writes its results under build/e2e/results-smoke instead.
set -euo pipefail

# Default path only: no environment knob may switch a tier or a feature.
unset RADLOC_SIMD RADLOC_SCORING_CACHE RADLOC_THREADS RADLOC_SMOKE RADLOC_TRIALS

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build/e2e"

workload=all
seed=1
seconds=20
trace=0
out=

die() { echo "run.sh: $*" >&2; exit 2; }

while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) [[ $# -ge 2 ]] || die "--workload needs a value"; workload="$2"; shift 2 ;;
    --seed) [[ $# -ge 2 ]] || die "--seed needs a value"; seed="$2"; shift 2 ;;
    --seconds)
      [[ $# -ge 2 && "$2" == 20 ]] || die "the run length is fixed at 20 s (--smoke for 1 s)"
      shift 2 ;;
    --trace)
      if [[ $# -ge 2 && ( "$2" == 0 || "$2" == 1 ) ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    --smoke) seconds=1; shift ;;
    --out) [[ $# -ge 2 ]] || die "--out needs a value"; out="$2"; shift 2 ;;
    *) die "unknown argument: $1" ;;
  esac
done
[[ "$seed" =~ ^[0-9]+$ ]] || die "--seed must be a non-negative integer"
if [[ -z "$out" ]]; then
  if [[ "$seconds" == 20 ]]; then out="$build/results"; else out="$build/results-smoke"; fi
fi

[[ -f "$root/src/CMakeLists.txt" ]] || die "library sources not found at $root/src"

# Build (serialized where flock exists, so concurrent invocations share one
# build tree). The compiler's temporaries stay inside the checkout too.
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
{
  if command -v flock > /dev/null; then flock 9; fi
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
  fi
  cmake --build "$build" -j 4 >&2
} 9>"$build/.lock"

# GIT_CEILING_DIRECTORIES keeps git from finding a repository above a
# checkout that is not one itself.
commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" \
  git -C "$root" describe --always --dirty 2>/dev/null || echo unknown)"

run_one() {
  "$build/e2e_bench" --workload "$1" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" --out "$out" --commit "$commit"
}

if [[ "$workload" != all ]]; then
  run_one "$workload"
else
  status=0
  for w in fleet wide-area console dwell-burst; do
    run_one "$w" || status=1
  done
  exit "$status"
fi
