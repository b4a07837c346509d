#!/usr/bin/env python3
"""Perf smoke gate over bench_micro_scheduler's gated benchmark families.

Usage: check_perf.py <bench_json> <baseline_json>

Reads the google-benchmark JSON for each gated benchmark pair
(naive Arg(0) / optimized Arg(1)) and enforces two gates per pair:

  1. machine-independent: the optimized path must deliver at least the
     family's MIN_RATIO multiple of the naive items/sec on the same
     machine, same run (2x for the heartbeat scans, 10x for the
     datacenter-scale flow-solver family);
  2. baseline floor: optimized throughput, in reference units, must not
     regress more than 20% below the checked-in baseline.

Reference units: each gated benchmark times perfbench's host reference
kernel (no simulator code) right before and right after its loop, and
reports the mean as its "reference_s" counter. Items/sec times that is
the number of items done in one kernel run. A host twice as slow halves
the one and doubles the other, so the product can be compared with a
baseline recorded on another host, or on this one in another speed
state.

Gated pairs: the homogeneous saturated scan (BM_PnaHeartbeatSaturated),
the heterogeneous-cluster blended-cost scan (BM_PnaHeartbeatHetero),
and the 1k-host fat-tree flow-event throughput case
(BM_FlowEventsFatTree1k, incremental component-local solver vs the
naive whole-network progressive filling).

Single benchmarks in SINGLES get only the baseline-floor gate (no /0
vs /1 ratio requirement): BM_PnaHeartbeatTraced/0 pins the cost of the
tracing-disabled heartbeat path — its /1 sibling attaches the causal
tracer and is expected to run at ~1x, so a ratio gate would be
meaningless there. BM_ReduceCostEvaluator pins one PNA reduce decision
(the unassigned-reduce snapshot, the offered node's cost and the Eq. 5
average per reduce, hop distances over a 1024-host free set); it has no
naive twin to compare with.

Flake resistance: run the benchmark binary with
--benchmark_repetitions=N (tools/ci.sh uses 5). Each repetition emits a
separate "iteration" entry per benchmark name; this script takes the
MEDIAN across repetitions before applying any gate, so up to two
descheduled repetitions of five cannot fail (or pollute) the gate.
Three repetitions left the heartbeat families spreading about +-15%,
BM_ReduceCostEvaluator +-13% and the naive side of
BM_FlowEventsFatTree1k +-30% between runs. Reports produced without
repetitions still work — the median of one value is that value.

PNATS_PERF_REGEN=1 (or a missing baseline file) rewrites the baseline
from the current run instead of comparing: do this when an intentional
perf change lands, or when the reference kernel changes.
"""
import json
import os
import statistics
import sys

MAX_REGRESSION = 0.20   # measured must stay within 20% of the baseline

# Benchmark families gated as naive(/0) vs optimized(/1) pairs, with the
# minimum optimized/naive ratio each family must clear.
PAIRS = {
    "BM_PnaHeartbeatSaturated": 2.0,
    "BM_PnaHeartbeatHetero": 2.0,
    "BM_FlowEventsFatTree1k": 10.0,
}

# Individual benchmarks gated only against the checked-in baseline.
SINGLES = ["BM_PnaHeartbeatTraced/0", "BM_ReduceCostEvaluator"]


def median_of(report, name, key):
    """Median of key(entry) across repetitions of `name` (aggregates
    skipped)."""
    values = []
    for bench in report.get("benchmarks", []):
        if bench.get("name") != name:
            continue
        # With --benchmark_repetitions, per-rep entries carry
        # run_type "iteration" and synthetic _mean/_median/_stddev rows
        # carry "aggregate" (and a distinct name, but be strict anyway).
        if bench.get("run_type", "iteration") != "iteration":
            continue
        try:
            values.append(key(bench))
        except KeyError as missing:
            sys.exit(f"check_perf: benchmark '{name}' reports no {missing}")
    if not values:
        sys.exit(f"check_perf: benchmark '{name}' missing from report")
    return statistics.median(values)


def items_per_second(report, name):
    """Median items/sec across repetitions of `name`."""
    return median_of(report, name, lambda b: float(b["items_per_second"]))


def items_per_reference(report, name):
    """Median items per reference-kernel run across repetitions of `name`
    (each repetition scaled by its own kernel time)."""
    return median_of(report, name, lambda b: (
        float(b["items_per_second"]) * float(b["reference_s"])))


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    bench_path, baseline_path = sys.argv[1], sys.argv[2]
    with open(bench_path) as f:
        report = json.load(f)

    measured_floors = {}
    for family, min_ratio in PAIRS.items():
        naive = items_per_second(report, f"{family}/0")
        opt = items_per_second(report, f"{family}/1")
        measured_floors[f"{family}/1"] = items_per_reference(
            report, f"{family}/1")
        ratio = opt / naive if naive > 0 else float("inf")
        print(f"check_perf: {family}: naive {naive:,.0f} items/s, "
              f"optimized {opt:,.0f} items/s, ratio {ratio:.1f}x "
              f"(need >= {min_ratio:.1f}x)")
        if ratio < min_ratio:
            sys.exit(f"check_perf: FAIL - {family} optimized/naive ratio "
                     f"{ratio:.2f}x is below the required {min_ratio:.1f}x")

    for name in SINGLES:
        measured_floors[name] = items_per_reference(report, name)
        print(f"check_perf: {name}: "
              f"{items_per_second(report, name):,.0f} items/s")

    regen = os.environ.get("PNATS_PERF_REGEN", "0") not in ("", "0")
    if regen or not os.path.exists(baseline_path):
        with open(baseline_path, "w") as f:
            json.dump({name: {"items_per_reference": v}
                       for name, v in measured_floors.items()}, f, indent=2)
            f.write("\n")
        print(f"check_perf: baseline written to {baseline_path}")
        return

    with open(baseline_path) as f:
        baseline = json.load(f)
    for name, measured in measured_floors.items():
        if name not in baseline:
            sys.exit(f"check_perf: FAIL - '{name}' missing from baseline "
                     f"{baseline_path} (PNATS_PERF_REGEN=1 to add it)")
        ref = float(baseline[name]["items_per_reference"])
        floor = ref * (1.0 - MAX_REGRESSION)
        print(f"check_perf: {name}: {measured:,.1f} items per reference "
              f"run, baseline {ref:,.1f}, floor {floor:,.1f}")
        if measured < floor:
            sys.exit(f"check_perf: FAIL - {name} {measured:,.1f} items per "
                     f"reference run regresses >{MAX_REGRESSION:.0%} below "
                     f"baseline {ref:,.1f} "
                     f"(PNATS_PERF_REGEN=1 to accept a new baseline)")
    print("check_perf: OK")


if __name__ == "__main__":
    main()
