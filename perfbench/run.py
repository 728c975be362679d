#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload inference|sgd|matmul --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and the traced run's spans to .bench_out/. The last line of stdout is the
benchmark's JSON result; build output goes to stderr.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: the program's sources (src/) are missing\n")
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    make = ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"]
    return subprocess.run(make, stdout=sys.stderr).returncode == 0


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        sys.stderr.write("perfbench: build failed\n")
        return 2
    args = list(argv)
    if "--selftest" not in args:
        trace_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(trace_dir, exist_ok=True)
        args += ["--trace-dir", trace_dir]
    try:
        return subprocess.run([os.path.join(build_dir, "perfbench")] + args,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
