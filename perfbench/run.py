#!/usr/bin/env python3
"""Build the benchmark from source if needed, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to .bench_build/perfbench
(CMake, Ninja when available); its output goes to stderr so that the last
line of stdout stays the benchmark's JSON result. Scratch files (the
generated trace) go to .bench_build/tmp and are removed by the benchmark.
Exits non-zero without a result when the build or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TMP = os.path.join(ROOT, ".bench_build", "tmp")
BINARY = os.path.join(BUILD, "pnats_perfbench")


def run_quiet(cmd, env):
    """Run a build step with its output on stderr; exit on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                          stderr=sys.stderr)
    if proc.returncode != 0:
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
        sys.exit(3)


def build():
    os.makedirs(TMP, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMP)  # compiler scratch stays inside
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", SOURCE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD, "--target", "pnats_perfbench",
               "-j", jobs], env)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build()
    proc = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--tmp-dir", TMP],
        cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
