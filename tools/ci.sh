#!/usr/bin/env bash
# Single-entry CI pipeline:
#   1. tier-1: configure (warnings are errors) + build + ctest (the gate
#      every change must pass; it includes tests/cli_test.cpp, which runs
#      the pnats_sim and trace_analyze binaries)
#   2. telemetry smoke: a small streaming run must produce parseable
#      JSONL + Chrome-trace output (validated with python3 when present)
#   3. trace smoke: a --trace-out run must produce a causal trace that
#      trace_analyze accepts (per-job blame buckets summing to the
#      measured response time, shares summing to ~100%)
#   4. perf smoke: bench_micro_scheduler's gated families must keep the
#      optimized path ahead of the naive path (2x for the saturated
#      heartbeat scans, 10x for the 1k-host fat-tree flow solver) and
#      within 20% of tools/perf_baseline.json, in units of a host
#      reference kernel timed in the same run (PNATS_PERF_REGEN=1
#      refreshes it); each family runs 5 repetitions and the gate
#      compares medians, so two descheduled runs cannot flake the gate;
#      the tracing-disabled heartbeat (BM_PnaHeartbeatTraced/0) and one
#      PNA reduce decision (BM_ReduceCostEvaluator) are gated against the
#      same baseline
#   5. perfbench smoke: the benchmark package (perfbench/) builds and
#      passes its self-test
#   6. ASan/UBSan build of the test suite (PNATS_SANITIZE=asan), catching
#      memory and UB bugs the plain build cannot
#   7. TSan build running the fast-vs-naive equivalence suite (the
#      free-slot index and its N_m counts under the threaded drivers)
#      plus the flow-solver differential suite (its parallel model
#      exercises the threaded component sweep); TSAN=1 widens this to
#      the full test suite
# Between 3 and 4 run the admission, tenant, hetero, chaos and
# trace-replay smokes (the last four include a `bench_paper <study>_quick`
# row whose CSV must match its reference in tests/golden/bench/ byte for
# byte), the k=32 fat-tree smoke (8192-host streams of 600 and 1200 s
# must drain under a peak-RSS bound), then the bench_paper smoke: --help lists 26 distinct rows, an
# unknown row exits 2, the two rows that need no simulation write their
# CSVs, `bench_paper extended_baselines fault_tolerance` (six schedulers
# on the paper's mixed batch; stragglers, speculation and TaskTracker
# failures on it) match their references in tests/golden/bench/ byte for
# byte, every `bench_paper <row>` the docs name is a listed row, and every
# build/bench/<binary> the docs name is one the build defines and produced.
#
# Every step runs even when an earlier one failed; the script then lists
# the failed steps and exits non-zero.
#
# Run from the repository root: ./tools/ci.sh
# Build trees: build/ (tier-1), build-asan/, build-tsan/,
# .bench_build/perfbench/ (shared with perfbench/run.py). A tree that is
# already configured keeps its generator; a new one uses Ninja when present.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

# Set GENERATOR to the -G flags for build tree $1: the generator recorded in
# its CMakeCache.txt (CMake refuses to switch an existing tree's generator),
# else Ninja when available, else CMake's default.
generator_for() {
  local cache="$1/CMakeCache.txt" gen=""
  [[ -f "$cache" ]] && gen="$(sed -n 's/^CMAKE_GENERATOR:INTERNAL=//p' "$cache")"
  GENERATOR=()
  if [[ -n "$gen" ]]; then
    GENERATOR=(-G "$gen")
  elif command -v ninja >/dev/null 2>&1; then
    GENERATOR=(-G Ninja)
  fi
}

SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT

# Each step is a function run by run_step below. The bodies stay at
# column 0 so their heredocs keep working.
step_tier1() {
echo "==> tier-1: configure + build + ctest"
generator_for build
cmake -B build -S . "${GENERATOR[@]}" -DPNATS_WARNINGS_AS_ERRORS=ON
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"
}

step_telemetry() {
echo "==> telemetry smoke: exporters produce parseable output"
./build/tools/pnats_sim --arrivals poisson --rate 240 --duration 600 \
  --nodes 8 --job-scale 0.02 --warmup 100 --log-level warn --quiet \
  --telemetry-out "$SMOKE_DIR/telemetry.jsonl" \
  --perfetto-out "$SMOKE_DIR/perfetto.json"
test -s "$SMOKE_DIR/telemetry.jsonl"
test -s "$SMOKE_DIR/perfetto.json"
grep -q '"type":"sample"' "$SMOKE_DIR/telemetry.jsonl"
grep -q '"pna.map.p"' "$SMOKE_DIR/telemetry.jsonl"
grep -q '"traceEvents"' "$SMOKE_DIR/perfetto.json"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$SMOKE_DIR" <<'PY'
import json, sys
d = sys.argv[1]
with open(d + "/telemetry.jsonl") as f:
    lines = [json.loads(l) for l in f]
assert any(o["type"] == "sample" for o in lines), "no sample rows"
assert any(o["type"] == "counter" for o in lines), "no counters"
assert any(o["type"] == "histogram" for o in lines), "no histograms"
trace = json.load(open(d + "/perfetto.json"))
assert trace["traceEvents"], "empty perfetto trace"
print(f"telemetry smoke: {len(lines)} jsonl lines, "
      f"{len(trace['traceEvents'])} trace events")
PY
fi
}

step_trace() {
echo "==> trace smoke: causal trace analyzable, blame partition exact"
# A saturated stream (past the ~600-650 jobs/h knee of this setup) with
# the causal tracer on: trace_analyze re-checks every job's blame
# partition (queue+network+compute+retry == response) and exits non-zero
# on any mismatch; the python gate asserts the aggregate shares sum to
# ~100% of total response time.
./build/tools/pnats_sim --arrivals poisson --rate 780 --duration 600 \
  --nodes 12 --job-scale 0.05 --warmup 100 --seed 42 \
  --log-level warn --quiet --trace-out "$SMOKE_DIR/causal.jsonl"
test -s "$SMOKE_DIR/causal.jsonl"
grep -q '"type":"span"' "$SMOKE_DIR/causal.jsonl"
grep -q '"type":"decision"' "$SMOKE_DIR/causal.jsonl"
grep -q '"type":"blame"' "$SMOKE_DIR/causal.jsonl"
./build/tools/trace_analyze "$SMOKE_DIR/causal.jsonl" --top 3
if command -v python3 >/dev/null 2>&1; then
  python3 - "$SMOKE_DIR/causal.jsonl" <<'PY'
import json, sys
blames = [json.loads(l) for l in open(sys.argv[1])
          if '"type":"blame"' in l]
assert blames, "no blame records in the causal trace"
total = sum(b["response"] for b in blames)
share = sum(b["queue"] + b["network"] + b["compute"] + b["retry"]
            for b in blames) / total
assert abs(share - 1.0) < 1e-6, f"blame shares sum to {share:.6f}, not 1"
print(f"trace smoke: {len(blames)} blamed jobs, "
      f"shares sum to {100.0 * share:.4f}% of {total:.0f}s response")
PY
fi
}

step_admission() {
echo "==> admission smoke: overload sheds load, light load admits everything"
# Past the saturation knee (900 jobs/h vs a ~600-650 knee on this
# 12-node/5%-scale setup) the static-threshold policy must reject a
# nonzero slice of the offered load; far below the knee it must be
# invisible (zero rejections, zero deferrals).
HI_OUT="$(./build/tools/pnats_sim --arrivals poisson --rate 900 \
  --duration 600 --nodes 12 --job-scale 0.05 --warmup 100 --seed 42 \
  --admission static-threshold --admission-threshold 12 \
  --log-level warn --quiet)"
echo "$HI_OUT" | grep -q 'policy=static-threshold'
echo "$HI_OUT" | grep -Eq 'rejected=[1-9][0-9]* '
LO_OUT="$(./build/tools/pnats_sim --arrivals poisson --rate 150 \
  --duration 600 --nodes 12 --job-scale 0.05 --warmup 100 --seed 42 \
  --admission static-threshold --admission-threshold 12 \
  --log-level warn --quiet)"
echo "$LO_OUT" | grep -q 'rejected=0 (0.0%) deferred=0'
echo "admission smoke: threshold policy rejects past the knee only"
}

step_tenant() {
echo "==> tenant smoke: two-tenant stream reports per-tenant slices"
# A steady Poisson tenant and a bursty MMPP neighbour: the summary must
# print one parseable line per tenant, and the tenant slices must sum to
# the aggregate submitted/completed counts on the steady-state line.
MT_OUT="$(./build/tools/pnats_sim --tenants 2 \
  --tenant-rates 150,300 --tenant-processes poisson,mmpp \
  --tenant-weights 4,1 --tenant-quotas 4,1 --admission-threshold 24 \
  --scheduler fair --fair-order weighted \
  --duration 600 --nodes 12 --job-scale 0.05 --warmup 100 --seed 42 \
  --log-level warn --quiet)"
echo "$MT_OUT" | grep -Eq 'tenant 0 submitted=[0-9]+ completed=[0-9]+'
echo "$MT_OUT" | grep -Eq 'tenant 1 submitted=[0-9]+ completed=[0-9]+'
if command -v python3 >/dev/null 2>&1; then
  python3 - <<PY
import re
out = '''$MT_OUT'''
agg = re.search(r"submitted=(\d+) completed=(\d+)", out)
slices = re.findall(r"tenant \d+ submitted=(\d+) completed=(\d+)", out)
assert agg and len(slices) == 2, "missing aggregate or tenant lines"
assert sum(int(s) for s, _ in slices) == int(agg.group(1)), "submitted sum"
assert sum(int(c) for _, c in slices) == int(agg.group(2)), "completed sum"
print("tenant smoke: slices sum to aggregate "
      f"({agg.group(1)} submitted, {agg.group(2)} completed)")
PY
fi
echo "==> tenant smoke: quick isolation bench runs"
./build/bench/bench_paper tenant_isolation_quick >/dev/null
cmp bench_out/tenant_isolation_quick.csv tests/golden/bench/tenant_isolation_quick.csv
echo "tenant smoke: bench_out/tenant_isolation_quick.csv matches its reference"
}

step_hetero() {
echo "==> hetero smoke: fast/slow classes run end-to-end"
# A two-class cluster must print one parseable summary line per class,
# and every finished map must be attributed to exactly one class.
HET_OUT="$(./build/tools/pnats_sim --batch grep --nodes 12 --seed 42 \
  --node-classes fast:1,slow:1 --class-speeds 2,0.5 --class-slots 6/3,2/1 \
  --class-links 2,0.5 --log-level warn --quiet)"
echo "$HET_OUT" | grep -Eq 'class fast +nodes=[0-9]+ speed=2\.00 slots=6/3'
echo "$HET_OUT" | grep -Eq 'class slow +nodes=[0-9]+ speed=0\.50 slots=2/1'
./build/tools/pnats_sim --batch grep --nodes 12 --seed 42 \
  --scheduler unrelated --node-classes fast:1,slow:1 --class-speeds 2,0.5 \
  --log-level warn --quiet | grep -q '^unrelated: completed=yes'
if command -v python3 >/dev/null 2>&1; then
  python3 - <<PY
import re
out = '''$HET_OUT'''
nodes = [int(n) for n in re.findall(r"class \w+ +nodes=(\d+)", out)]
maps = [int(m) for m in re.findall(r"maps=(\d+)", out)]
assert sum(nodes) == 12, f"class sizes {nodes} do not cover the cluster"
assert sum(maps) > 0, "no per-class map attribution"
print(f"hetero smoke: {nodes} nodes per class, {sum(maps)} maps attributed")
PY
fi
echo "==> hetero smoke: quick heterogeneity sweep runs"
./build/bench/bench_paper hetero_sweep_quick >/dev/null
cmp bench_out/hetero_sweep_quick.csv tests/golden/bench/hetero_sweep_quick.csv
echo "hetero smoke: bench_out/hetero_sweep_quick.csv matches its reference"
}

step_chaos() {
echo "==> chaos smoke: degraded network drains with stall retries"
# A 1.2x-knee stream under link cuts, switch faults and surges with the
# stall watchdog on: the run must drain cleanly (exit 0 / drained=yes),
# the chaos summary must report non-zero cuts and stall retries, and the
# causal trace must stay analyzable (blame partition exact) with the
# stall-kill retries inside it.
CH_OUT="$(./build/tools/pnats_sim --arrivals poisson --rate 720 \
  --duration 600 --nodes 12 --racks 4 --job-scale 0.05 --warmup 100 \
  --seed 42 --link-mtbf 60 --link-repair 45 --switch-mtbf 400 \
  --surge 150 --surge-util 0.6 --net-repair-jitter 0.3 \
  --stall-timeout 30 --blacklist \
  --log-level warn --quiet --trace-out "$SMOKE_DIR/chaos.jsonl")"
echo "$CH_OUT" | grep -q 'drained=yes'
echo "$CH_OUT" | grep -Eq 'links_cut=[1-9]'
echo "$CH_OUT" | grep -Eq 'stall_timeouts=[1-9][0-9]*'
echo "$CH_OUT" | grep -Eq 'retries=[1-9][0-9]*'
test -s "$SMOKE_DIR/chaos.jsonl"
./build/tools/trace_analyze "$SMOKE_DIR/chaos.jsonl" --top 3 >/dev/null
echo "chaos smoke: stream drained with non-zero stall retries"
echo "==> chaos smoke: quick degraded-network bench runs"
./build/bench/bench_paper degraded_network_quick >/dev/null
cmp bench_out/degraded_network_quick.csv tests/golden/bench/degraded_network_quick.csv
echo "chaos smoke: bench_out/degraded_network_quick.csv matches its reference"
}

step_trace_replay() {
echo "==> trace-replay smoke: generated trace streams through the replay path"
# Synthesize a SWIM-style production trace, replay it through the
# memory-bounded streaming path (--stream-trace), and require the run to
# drain with per-tenant summary lines (the generator maps users to
# tenants). The trace header must be the canonical 8-column form.
GEN_OUT="$(./build/tools/pnats_sim --gen-trace "$SMOKE_DIR/prod_trace.csv" \
  --rate 400 --duration 1800 --job-scale 0.05 --gen-users 4 --seed 7)"
echo "$GEN_OUT" | grep -q 'generated trace written'
test -s "$SMOKE_DIR/prod_trace.csv"
head -1 "$SMOKE_DIR/prod_trace.csv" \
  | grep -q '^time,name,kind,gb,maps,reduces,tenant,weight$'
TR_OUT="$(./build/tools/pnats_sim --arrivals trace \
  --arrival-trace "$SMOKE_DIR/prod_trace.csv" --stream-trace \
  --duration 1800 --warmup 300 --nodes 12 --racks 3 --job-scale 0.05 \
  --seed 42 --scheduler pna --log-level warn --quiet)"
echo "$TR_OUT" | grep -q 'drained=yes'
echo "$TR_OUT" | grep -Eq 'tenant [0-9]+ submitted='
echo "trace-replay smoke: streamed replay drained with per-tenant summary"
echo "==> trace-replay smoke: quick trace-replay bench runs"
./build/bench/bench_paper trace_replay_quick >/dev/null
cmp bench_out/trace_replay_quick.csv tests/golden/bench/trace_replay_quick.csv
echo "trace-replay smoke: bench_out/trace_replay_quick.csv matches its reference"
}

step_fat_tree_k32() {
echo "==> k=32 fat-tree smoke: 8192 hosts drain in bounded memory"
# Routes and hop distances are arithmetic on host coordinates, so the
# topology holds no per-host-pair state (a route table for 8192 hosts
# would take ~6.9 GB), and the event loop recycles its callback slots, so
# memory follows the events pending at once, not the stream's length. The
# peak RSS of each stream, read through getrusage(RUSAGE_CHILDREN) in its
# own python process, measured 23 MiB (D=600) and 30 MiB (D=1200) on a
# 4-vCPU Xeon; a callback table that kept every slot after a long-lived
# early event took 87 and 159 MiB.
for duration in 600 1200; do
K32_ARGS=(--fat-tree 32 --arrivals poisson --rate 60 --duration "$duration"
  --job-scale 0.02 --seed 42 --log-level warn --quiet)
if command -v python3 >/dev/null 2>&1; then
  python3 - "${K32_ARGS[@]}" <<'PY'
import resource, subprocess, sys
run = subprocess.run(["./build/tools/pnats_sim"] + sys.argv[1:],
                     capture_output=True, text=True, timeout=120)
assert run.returncode == 0, run.stdout + run.stderr
assert "drained=yes" in run.stdout, run.stdout
peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
assert peak_mib <= 128, f"peak RSS {peak_mib:.1f} MiB > 128 MiB bound"
duration = sys.argv[sys.argv.index("--duration") + 1]
print(f"k=32 smoke (D={duration}): drained, peak RSS {peak_mib:.1f} MiB "
      "(bound 128 MiB)")
PY
else
  ./build/tools/pnats_sim "${K32_ARGS[@]}" | grep -q 'drained=yes'
  echo "k=32 smoke (D=$duration): python3 unavailable, RSS bound skipped"
fi
done
}

step_bench_paper() {
echo "==> bench_paper smoke: row table, bad row, no-simulation rows, baselines, doc names"
# --help lists one "  <row>  <figure>: <caption>" line per row; the rows
# must be 26 distinct names. An unknown row exits 2. Table II and Fig. 3
# need no simulation, so they are cheap enough to run here. The extended
# baselines row (FIFO, Fair, Coupling, LARTS, MinCost and PNA on the
# paper's mixed batch, a few seconds) pins every baseline scheduler's
# placements at paper scale, and the fault tolerance row (Fair and PNA on
# the 60-node mixed batch under stragglers, speculative backups and
# TaskTracker failures, about a second) pins the engine's attempt
# lifecycle: each CSV must match its reference. Every
# `bench_paper <row>` the docs name must be a listed row (the same
# doc-drift idea as cli_test's flag check), and every build/bench/<name>
# they name must be an executable bench/CMakeLists.txt defines and the
# build produced (a stale binary left in build/ does not count).
DOCS=(README.md EXPERIMENTS.md docs/*.md .claude/skills/verify/SKILL.md)
PAPER_ROWS="$(./build/bench/bench_paper --help | awk '/^  [a-z]/ {print $1}')"
test "$(echo "$PAPER_ROWS" | wc -l)" -eq 26
test "$(echo "$PAPER_ROWS" | sort -u | wc -l)" -eq 26
BAD_ROW_STATUS=0
./build/bench/bench_paper no_such_row >/dev/null 2>&1 || BAD_ROW_STATUS=$?
test "$BAD_ROW_STATUS" -eq 2
rm -f bench_out/table2_workload.csv bench_out/fig3_datasize_cdf.csv
./build/bench/bench_paper table2_workload fig3_datasize_cdf >/dev/null
test -s bench_out/table2_workload.csv
test -s bench_out/fig3_datasize_cdf.csv
./build/bench/bench_paper extended_baselines fault_tolerance >/dev/null
for row in extended_baselines fault_tolerance; do
  cmp "bench_out/$row.csv" "tests/golden/bench/$row.csv"
done
DOC_ROWS="$(grep -ohE 'bench_paper( +[a-z][a-z0-9]*_[a-z0-9_]*)+' \
  "${DOCS[@]}" | tr -s ' ' '\n' | grep -v '^bench_paper$' | sort -u)"
test -n "$DOC_ROWS"
for row in $DOC_ROWS; do
  if ! echo "$PAPER_ROWS" | grep -qx "$row"; then
    echo "docs name bench_paper $row, which --help does not list"
    exit 1
  fi
done
DOC_BINS="$(grep -ohE 'build/bench/[a-z_0-9]+' "${DOCS[@]}" \
  | sed 's|.*/||' | sort -u)"
test -n "$DOC_BINS"
for bin in $DOC_BINS; do
  if ! grep -q "^add_executable($bin " bench/CMakeLists.txt \
      || ! test -x "build/bench/$bin"; then
    echo "docs name build/bench/$bin, which the build does not produce"
    exit 1
  fi
done
echo "bench_paper smoke: 26 rows; extended_baselines and fault_tolerance" \
  "match their references;" \
  "docs name $(echo "$DOC_ROWS" | wc -l) of them and" \
  "$(echo "$DOC_BINS" | wc -l) bench binaries"
}

step_perf() {
echo "==> perf smoke: optimized vs naive gated benchmark families"
./build/bench/bench_micro_scheduler \
  --benchmark_filter='BM_PnaHeartbeat(Saturated|Hetero|Traced)|BM_FlowEventsFatTree1k|BM_ReduceCostEvaluator' \
  --benchmark_repetitions=5 \
  --benchmark_format=json >"$SMOKE_DIR/perf.json"
if command -v python3 >/dev/null 2>&1; then
  python3 tools/check_perf.py "$SMOKE_DIR/perf.json" tools/perf_baseline.json
else
  echo "perf smoke: python3 unavailable, ratio/baseline gates skipped"
fi
}

step_perfbench() {
echo "==> perfbench smoke: benchmark package builds and self-tests"
# Its own CMake package: an API change can pass tier-1 and break it.
generator_for .bench_build/perfbench
cmake -S perfbench -B .bench_build/perfbench "${GENERATOR[@]}"
cmake --build .bench_build/perfbench -j "$JOBS" --target perfbench_selftest
./.bench_build/perfbench/perfbench_selftest
}

step_asan() {
echo "==> sanitizer pass: ASan/UBSan test suite"
generator_for build-asan
cmake -B build-asan -S . "${GENERATOR[@]}" \
  -DPNATS_SANITIZE=asan \
  -DPNATS_BUILD_BENCH=OFF -DPNATS_BUILD_EXAMPLES=OFF
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"
}

step_tsan() {
echo "==> sanitizer pass: TSan equivalence + flow-differential suites"
generator_for build-tsan
cmake -B build-tsan -S . "${GENERATOR[@]}" \
  -DPNATS_SANITIZE=tsan \
  -DPNATS_BUILD_BENCH=OFF -DPNATS_BUILD_EXAMPLES=OFF
cmake --build build-tsan -j "$JOBS"
if [[ "${TSAN:-0}" != "0" ]]; then
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS"
else
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
    -R 'Equivalence|FlowDifferential'
fi
}

# Run every step even when an earlier one failed, so one red gate (the
# perf smoke's baseline floor, say) cannot hide the steps after it. A step
# runs in a subshell with errexit on, so it still stops at its own first
# failing command; the failed steps are listed at the end and fail CI.
FAILED_STEPS=()
run_step() {
  local name="$1" status=0
  set +e
  ( set -e; "$2" )
  status=$?
  set -e
  if (( status != 0 )); then
    echo "==> FAILED: $name (exit $status)"
    FAILED_STEPS+=("$name")
  fi
}

run_step "tier-1" step_tier1
run_step "telemetry smoke" step_telemetry
run_step "trace smoke" step_trace
run_step "admission smoke" step_admission
run_step "tenant smoke" step_tenant
run_step "hetero smoke" step_hetero
run_step "chaos smoke" step_chaos
run_step "trace-replay smoke" step_trace_replay
run_step "k=32 fat-tree smoke" step_fat_tree_k32
run_step "bench_paper smoke" step_bench_paper
run_step "perf smoke" step_perf
run_step "perfbench smoke" step_perfbench
run_step "ASan/UBSan pass" step_asan
run_step "TSan pass" step_tsan

if (( ${#FAILED_STEPS[@]} > 0 )); then
  echo "==> ci: ${#FAILED_STEPS[@]} step(s) failed:"
  printf '    %s\n' "${FAILED_STEPS[@]}"
  exit 1
fi
echo "==> ci: all passes green"
