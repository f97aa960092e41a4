#!/bin/sh
# Race-check the parallel wave execution engine under ThreadSanitizer.
#
# Builds the repo in a dedicated tree (build-tsan/) with
# -DDIGRAPH_SANITIZE=thread and runs the engine test binaries — the
# parallel suite already exercises engine_threads in {2, 4} and the
# hardware-concurrency path, test_job_manager races N whole jobs
# against each other over one shared substrate, test_graph_service
# races the inter-job scheduler (grants, wave-boundary preemption,
# dynamic thread reallocation) against running engines,
# test_wave_kernels drives the lock-free delta commit against its
# ordered-replay oracle, test_multisource runs the K-wide lane
# engine (lane delta commit, lane ordered replay, lane-precise
# activation) at engine_threads {1, 2, 4}, and test_substrate_epochs
# races live-graph update jobs (SubstrateCatalog::append deriving the
# next epoch) against queries pinned to older epochs at session_threads
# {1, 2, 4}, so any data race in the wave compute body / commitDeltas /
# the barrier replay / the job pool / the epoch pin-retire lifecycle
# shows up here.
#
# Usage (from the repo root):
#     ci/tsan.sh               # configure + build + run
#     ci/tsan.sh -R Waves      # extra args are passed through to ctest
#     ci/tsan.sh --if-enabled  # ctest entry point: exit 77 (skip)
#                              # unless DIGRAPH_CI_SANITIZE=1
set -eu

if [ "${1:-}" = "--if-enabled" ]; then
    shift
    if [ "${DIGRAPH_CI_SANITIZE:-0}" != "1" ]; then
        echo "tsan: DIGRAPH_CI_SANITIZE!=1, skipping" >&2
        exit 77
    fi
fi

cd "$(dirname "$0")/.."

cmake -B build-tsan -S . -DDIGRAPH_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build-tsan -j "$(nproc)" \
    --target test_engine_parallel test_engine_features \
    test_engine_convergence test_evolving_incremental \
    test_graph_service test_substrate_epochs test_job_manager \
    test_wave_kernels test_multisource concurrent_jobs live_ingest

if [ "$#" -gt 0 ]; then
    ctest --test-dir build-tsan --output-on-failure "$@"
else
    ctest --test-dir build-tsan --output-on-failure \
        -R 'test_engine_(parallel|features|convergence)|test_evolving_incremental|test_graph_service|test_substrate_epochs|test_job_manager|test_wave_kernels|test_multisource|bench_jobs_smoke|bench_live_smoke'
fi
