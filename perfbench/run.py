#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Workloads: cold_pipeline, serve_hot, serve_fleet, serve_churn (see
perfbench/README.md). The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), generated inputs and traces to
$CARGO_TARGET_DIR/perfbench-data. Build output and the self-test go to
stderr; the benchmark's own output goes to stdout, whose last line is
the JSON result. Exits nonzero, without a result, when the checkout
has no sources to build.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(command, timeout=None):
    """Runs a build or test step with its output on stderr."""
    result = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                            stderr=sys.stderr, timeout=timeout)
    return result.returncode == 0


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt next to perfbench/; "
             "run from the root of a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not run_logged(configure):
            fail("cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    if not run_logged(["cmake", "--build", build_dir, "-j", jobs]):
        fail("build failed")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    build(build_dir)

    if not run_logged([os.path.join(build_dir, "perfbench_selftest")],
                      timeout=60):
        fail("self-test failed")
    if sys.argv[1:] == ["--self-test"]:
        return 0

    command = [os.path.join(build_dir, "perfbench")] + sys.argv[1:] + [
        "--data-dir", os.path.join(target, "perfbench-data")]
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the benchmark on timeout.
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
