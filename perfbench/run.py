#!/usr/bin/env python3
"""Builds and runs the marketplace benchmark from the root of a checkout.

    python3 perfbench/run.py --workload billing|quote|batch --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The harness (perfbench/src) is built with CMake against the optshare
sources in the same checkout, into $CARGO_TARGET_DIR (default
.bench_build). A fresh build runs the harness self-tests once before the
first measurement. Build output goes to stderr; the harness's own stdout
(run record, diagnostics, then the one-line JSON result) passes through.
Exits non-zero when the sources are missing, the build or self-tests fail,
or the harness reports a failed request or a correctness violation.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The harness must answer within the driver's 180 s per run.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures and builds the harness; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isfile(
        os.path.join(ROOT, "src", "service", "marketplace_server.h")
    ):
        log("the optshare sources are not next to perfbench/; nothing to build")
        sys.exit(2)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    binary = os.path.join(build_dir, "perfbench")
    fresh = not os.path.isfile(binary)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            sys.exit(1)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(1)
    if fresh and "--self-test" not in sys.argv[1:]:
        if subprocess.run([binary, "--self-test"], cwd=ROOT, stdout=sys.stderr).returncode != 0:
            log("self-tests failed")
            sys.exit(1)
    return binary


def main():
    binary = build()
    try:
        result = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"the run did not finish within {RUN_TIMEOUT_S} s")
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
