#!/usr/bin/env python3
"""Builds the perfbench driver from this checkout's sources and runs it.

    python3 perfbench/run.py --workload capture|sweep|archive --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; build output goes to stderr so
that the driver's JSON result stays the last line of stdout.  Exits non-zero
without a result when the library sources are missing or the build fails.
"""
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(root, build_root, "perfbench")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print("perfbench: build failed: %s" % err, file=sys.stderr)
            return 1
        if done.returncode != 0:
            print("perfbench: build step failed: %s" % " ".join(cmd), file=sys.stderr)
            return 1
    binary = os.path.join(build, "perfbench")
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=root,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
