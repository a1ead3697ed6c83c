#!/usr/bin/env python3
"""Builds and runs the Decibel benchmark.

    python3 perfbench/run.py --workload agentic|curation_load|version_reads \
        --seed N --seconds S --trace 0|1 [--size full|small] \
        [--fault none|row|drop]

Run from the root of a checkout. The first run configures and builds
perfbench/ (and the decibel library it links) into $CARGO_TARGET_DIR, or
.bench_build/ when that is unset; later runs reuse the build. Build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result. Data directories and traces are written under the
build directory and removed or overwritten by the next run.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "perfbench")
    binary = os.path.join(cmake_dir, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", cmake_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(cmake_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure, ["cmake", "--build", cmake_dir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["agentic", "curation_load", "version_reads"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--size", choices=["full", "small"], default="full")
    parser.add_argument("--fault", choices=["none", "row", "drop"],
                        default="none")
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    data_root = os.path.join(build_dir, "perfbench-data", args.workload)
    shutil.rmtree(data_root, ignore_errors=True)
    trace_out = os.path.join(build_dir, "perfbench-traces",
                             "%s-seed%d.jsonl" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--size", args.size, "--fault", args.fault,
           "--data-root", data_root, "--trace-out", trace_out]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 3
    shutil.rmtree(data_root, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
