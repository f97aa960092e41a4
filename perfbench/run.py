#!/usr/bin/env python3
r"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload pagerank_hub --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout. The first call configures and builds
perfbench/ (the library sources under src/ plus the perfbench program) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable is
unset; later calls reuse that tree. Build output goes to standard error, so
the last line of standard output is the program's JSON result. Scratch files
(update batches, the durable store) live in a per-run directory under the
build tree and are removed afterwards; traced runs leave their chrome trace
in <build tree>/traces/.

Extra flags after the standard four are passed to the program unchanged
(--smoke selects tiny graphs for the benchmark's own tests).
"""

import argparse
import os
import shutil
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["pagerank_hub", "query_stream",
                                 "live_updates"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args, extra = parser.parse_known_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: no library sources at %s/src; run from a full "
              "checkout" % root, file=sys.stderr)
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    binary = os.path.join(build_dir, "perfbench")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=root).returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(step),
                  file=sys.stderr)
            return 2

    tmp_dir = os.path.join(build_dir, "run-%d" % os.getpid())
    out_dir = os.path.join(build_dir, "traces")
    shutil.rmtree(tmp_dir, ignore_errors=True)
    os.makedirs(tmp_dir)
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--tmp-dir", tmp_dir, "--out-dir", out_dir] + extra
    try:
        # The program's stdout is passed through untouched; its exit
        # status is ours.
        return subprocess.run(cmd, cwd=root).returncode
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
