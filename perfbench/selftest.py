#!/usr/bin/env python3
"""The benchmark's own tests, at small size: a broken benchmark shows in
seconds rather than after a full run.

    python3 perfbench/selftest.py

Run from the root of a checkout. Checks that
  - every workload, untraced and traced, runs to its end with correct=true,
    no failed operation, and exactly the metrics BENCHMARK.json names;
  - the same seed gives the same inputs (identical operation counts);
  - a deliberately wrong answer (one returned row corrupted, or dropped)
    fed to the checker fails the run on every workload;
  - in a directory holding only BENCHMARK.json and perfbench/, the command
    fails without printing a result.
Exits 0 when all pass.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["agentic", "curation_load", "version_reads"]


def run(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {"0": {m["name"] for m in spec["end_to_end"]},
             "1": {m["name"] for m in spec["per_layer"]}}
    failures = []

    def expect(ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        attempted = []
        for trace in ("0", "1", "0"):
            code, res, err = run(["--workload", workload, "--seed", "7",
                                  "--seconds", "1", "--trace", trace,
                                  "--size", "small"])
            good = (code == 0 and res is not None and res["correct"] is True
                    and res["failed"] == 0 and res["attempted"] >= 1
                    and set(res["metrics"]) == names[trace])
            expect(good, "%s trace=%s runs clean" % (workload, trace))
            if not good:
                sys.stderr.write(err[-2000:])
            if res is not None and trace == "0":
                attempted.append(res["attempted"])
        expect(len(attempted) == 2 and attempted[0] == attempted[1],
               "%s same seed, same operations" % workload)
        for fault in ("row", "drop"):
            code, res, _ = run(["--workload", workload, "--seed", "7",
                                "--seconds", "1", "--trace", "0",
                                "--size", "small", "--fault", fault])
            expect(code != 0 and res is not None and res["correct"] is False,
                   "%s wrong answer (%s) fails the run" % (workload, fault))

    # Only BENCHMARK.json and the benchmark's files: no program to build.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env_dir = os.environ.pop("CARGO_TARGET_DIR", None)
    code, res, _ = run(["--workload", "agentic", "--seed", "1", "--seconds",
                        "1", "--trace", "0"], cwd=bare)
    if env_dir is not None:
        os.environ["CARGO_TARGET_DIR"] = env_dir
    expect(code != 0 and res is None, "bare directory fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
