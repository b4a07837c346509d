#!/usr/bin/env python3
"""Seed spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S]

Runs perfbench/run.py once per (workload, seed) with tracing off and prints,
for each workload and metric, the median and the quartile spread
(Q3 - Q1) / median over the seeds, with quartiles as
statistics.quantiles(values, n=4) gives them, next to the metric's bound
from BENCHMARK.json. A spread at or above a third of the bound is flagged.
Exits non-zero if a run fails or reports incorrect output.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("run failed: %s seed %d (exit %d)"
                 % (workload, seed, out.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("incorrect output: %s seed %d" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            runs.append(run_once(workload, seed, args.seconds))
            print("  %s seed %d: %s" % (workload, seed, json.dumps(runs[-1])),
                  file=sys.stderr, flush=True)
        print("\n%s (%d seeds, %gs runs)" % (workload, len(runs), args.seconds))
        print("| metric | median | spread | bound | flag |")
        print("|---|---|---|---|---|")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < bound / 3 else "WIDE"
            print("| %s | %.6g | %.4f | %.2f | %s |"
                  % (name, med, spread, bound, flag), flush=True)


if __name__ == "__main__":
    main()
