#!/usr/bin/env python3
"""Reference figures: runs every workload of BENCHMARK.json on seeds
1..N untraced and prints, per workload and end-to-end metric, the median,
the quartiles and the spread (interquartile range over median, as
statistics.quantiles(values, n=4) gives the quartiles); then three
untraced/traced pairs for the tracing overhead: how much longer the timed
parts take traced (untraced steps_per_s over traced; median, min and max
of the pairs).

    python3 perfbench/reference.py [--runs 10] [--seconds S]

Run from the root of a checkout; it calls perfbench/run.py like any user.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", trace]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        sys.exit("%s seed %d failed:\n%s" % (workload, seed, proc.stderr))
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    print("| workload | metric | unit | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for w in spec["workloads"]:
        values = {}
        failed = []
        for seed in range(1, args.runs + 1):
            res = run(w["name"], seed, args.seconds, "0")
            failed.append("%d/%d" % (res["failed"], res["attempted"]))
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            print("| %s | %s | %s | %.6g | %.6g | %.6g | %.3f | %.2f |" %
                  (w["name"], m["name"], m["unit"], med, q1, q3,
                   (q3 - q1) / med if med else 0.0, m["bound"]))
        # Overhead from adjacent untraced/traced pairs, so that machine
        # drift between distant runs does not enter the ratio.
        ratios = []
        for seed in (1, 2, 3):
            plain = run(w["name"], seed, args.seconds, "0")["metrics"]
            traced = run(w["name"], seed, args.seconds, "1")["metrics"]
            ratios.append(plain["steps_per_s"]["value"] /
                          traced["trace.steps_per_s"]["value"])
        print("| %s | tracing overhead on steps_per_s, 3 pairs | %% | %.1f "
              "| %.1f | %.1f | | |" %
              (w["name"], 100 * (statistics.median(ratios) - 1),
               100 * (min(ratios) - 1), 100 * (max(ratios) - 1)))
        print("| %s | failed/attempted per run | | %s | | | | |" %
              (w["name"], " ".join(failed)), flush=True)


if __name__ == "__main__":
    main()
