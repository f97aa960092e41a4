#!/bin/sh
# Perf smoke: guard the single-thread wave-engine throughput.
#
# Builds host_engine_scaling in a dedicated Release tree (build-perf/),
# runs it at a small workload scale, extracts the 1-thread wall-clock
# of the delta-merge pagerank family from BENCH_engine.json, and
# compares it against a locally recorded baseline: >10% slower fails.
# The baseline is recorded on the first run (or whenever the smoke
# scale changes) and ratcheted down when a run comes in faster, so the
# check is self-calibrating per machine — no committed numbers, no
# cross-host noise.
#
# The bench's own >1.5x speedup gate (exit 2) is ignored here: at smoke
# scale on arbitrary CI hosts it measures the container, not the code.
# Determinism failures (exit 1) still fail the smoke.
#
# Usage (from the repo root):
#     ci/perf_smoke.sh             # build + run + compare
#     ci/perf_smoke.sh --if-enabled  # ctest entry point: exit 77
#                                    # (skip) unless DIGRAPH_CI_PERF=1
#
# Knobs: DIGRAPH_PERF_SMOKE_SCALE (default 0.05),
#        DIGRAPH_PERF_SMOKE_TOLERANCE (default 1.10 = +10%).
set -eu

if [ "${1:-}" = "--if-enabled" ]; then
    shift
    if [ "${DIGRAPH_CI_PERF:-0}" != "1" ]; then
        echo "perf_smoke: DIGRAPH_CI_PERF!=1, skipping" >&2
        exit 77
    fi
fi

cd "$(dirname "$0")/.."

SCALE="${DIGRAPH_PERF_SMOKE_SCALE:-0.05}"
TOLERANCE="${DIGRAPH_PERF_SMOKE_TOLERANCE:-1.10}"

cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-perf -j "$(nproc)" --target host_engine_scaling

cd build-perf
status=0
DIGRAPH_BENCH_SCALE="$SCALE" ./bench/host_engine_scaling || status=$?
if [ "$status" != 0 ] && [ "$status" != 2 ]; then
    echo "perf_smoke: bench failed (status $status)" >&2
    exit 1
fi

# First result row of the first family (pagerank_delta, 1 thread).
wall=$(awk -F'"wall_seconds": ' '/"engine_threads": 1,/ {
           split($2, a, ","); print a[1]; exit
       }' BENCH_engine.json)
if [ -z "$wall" ]; then
    echo "perf_smoke: could not read wall_seconds from BENCH_engine.json" >&2
    exit 1
fi

baseline_file="perf_smoke_baseline.txt"
base_scale=""
base_wall=""
if [ -f "$baseline_file" ]; then
    read -r base_scale base_wall < "$baseline_file"
fi
if [ "$base_scale" != "$SCALE" ] || [ -z "$base_wall" ]; then
    printf '%s %s\n' "$SCALE" "$wall" > "$baseline_file"
    echo "perf_smoke: recorded baseline ${wall}s (scale $SCALE)"
    exit 0
fi

regressed=$(awk -v w="$wall" -v b="$base_wall" -v t="$TOLERANCE" \
    'BEGIN { print (w > b * t) ? 1 : 0 }')
if [ "$regressed" = 1 ]; then
    echo "perf_smoke: FAIL — 1-thread wall ${wall}s exceeds baseline" \
         "${base_wall}s by more than $TOLERANCE" >&2
    exit 1
fi

improved=$(awk -v w="$wall" -v b="$base_wall" \
    'BEGIN { print (w < b) ? 1 : 0 }')
if [ "$improved" = 1 ]; then
    printf '%s %s\n' "$SCALE" "$wall" > "$baseline_file"
    echo "perf_smoke: pass — ${wall}s (baseline ratcheted from ${base_wall}s)"
else
    echo "perf_smoke: pass — ${wall}s (baseline ${base_wall}s)"
fi
