#!/usr/bin/env bash
# CI entry point — the whole gate, reproducible locally. Modes:
#
#   ./scripts/ci.sh           # release: build (-Werror), ctest (incl. the
#                             # eend_lint tree gate), lint JSON report,
#                             # bench/figure smokes, jobs determinism checks
#   ./scripts/ci.sh asan      # ASan+UBSan Debug: build, full ctest,
#                             # --jobs=8 eend_run smoke under the sanitizer
#   ./scripts/ci.sh tsan      # TSan Debug: same, exercising ParallelRunner
#   ./scripts/ci.sh all       # all three in sequence
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-release}"
JOBS="$(nproc 2>/dev/null || echo 2)"

# Sanitizer legs build Debug with zero suppressions and run the FULL ctest
# suite, then push a --quick --jobs=8 manifest through eend_run so the
# thread pool itself (fan-out, seed-order merge) runs under the sanitizer.
sanitizer_gate() {
  local kind="$1" dir="$2"
  echo "== [$kind] configure + build (Debug, EEND_SANITIZE=$kind, -Werror) =="
  cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Debug \
    -DEEND_SANITIZE="$kind" -DEEND_WERROR=ON
  cmake --build "$dir" -j"$JOBS"
  echo "== [$kind] full ctest =="
  ctest --test-dir "$dir" --output-on-failure -j"$JOBS"
  echo "== [$kind] eend_run --quick --jobs=8 smoke =="
  "$dir/tools/eend_run" --manifest examples/manifests/small_field.json \
    --quick --quiet --jobs=8 > /dev/null
  # The churn kind runs the warm-start serving loop with portfolio fan-out
  # inside each cell — the racy-by-construction path TSan must clear.
  "$dir/tools/eend_run" --manifest examples/manifests/design_churn.json \
    --quick --quiet --jobs=8 > /dev/null
  echo "== [$kind] gate passed =="
}

case "$MODE" in
  asan) sanitizer_gate address build-asan; exit 0 ;;
  tsan) sanitizer_gate thread build-tsan; exit 0 ;;
  all) "$0" release && "$0" asan && "$0" tsan; exit 0 ;;
  release) ;;
  *) echo "usage: $0 [release|asan|tsan|all]" >&2; exit 2 ;;
esac

# The determinism checks' outputs go to one private directory, removed on
# exit: concurrent runs on one host cannot overwrite each other's files
# between a write and its cmp, and no run leaves files behind.
OUT="$(mktemp -d "${TMPDIR:-/tmp}/eend_ci.XXXXXX")"
trap 'rm -rf "$OUT"' EXIT

echo "== configure + build =="
cmake -B build -S . -DEEND_WERROR=ON
cmake --build build -j"$JOBS"

echo "== ctest =="
ctest --test-dir build --output-on-failure -j"$JOBS"

echo "== determinism lint (JSON artifact) =="
./build/tools/eend_lint --quiet --json=LINT_report.json
test -s LINT_report.json
echo "OK: tree is lint-clean, wrote LINT_report.json"

echo "== figure smokes (--quick, one per figure family) =="
# Paper figures run from their manifests; Fig 7 and Figs 8-10 are covered
# by the manifest-engine determinism step at the end.
run() {
  echo "-- $*"
  local bin="$1"
  shift
  "./build/bench/$bin" "$@" > /dev/null
}
run_manifest() {
  echo "-- eend_run $*"
  local m="$1"
  shift
  ./build/tools/eend_run --manifest "examples/manifests/$m.json" --quick \
    --quiet --jobs=0 --csv=none --jsonl=none "$@" > /dev/null
}
run bench_table1_radio_cards                         # analytic: card registry
run bench_sec3_steiner_case_studies                  # analytic: Steiner cases
run_manifest large_field                             # large-net sims (Figs 10-12)
run_manifest hypo_grid --only=fig13                  # grid study (Figs 13-16)
run_manifest table2_density                          # density sweep (Table 2)
run bench_ablation_design_knobs --quick --quiet --jobs=0   # ablations
run bench_ext_lifetime --quick --quiet --jobs=0      # lifetime extension

echo "== design search: portfolio bench (JSON artifact) =="
# The bench itself asserts (a) presolve on/off produces identical results
# on the dense family and (b) the sparse shrink family drops >= 2% of its
# nodes (measured 4-5%; half that is the regression floor).
./build/bench/bench_design_portfolio --quick --quiet \
  --assert-min-shrink-pct=2 \
  --json=BENCH_design_portfolio.json > /dev/null
test -s BENCH_design_portfolio.json
echo "OK: wrote BENCH_design_portfolio.json (presolve shrink floor held)"

echo "== design search: quick design_portfolio cell, jobs=1 vs jobs=8 =="
./build/tools/eend_run --manifest examples/manifests/design_portfolio.json \
  --list | grep -q "portfolio_scaling  \[design\]"
for j in 1 8; do
  ./build/tools/eend_run --manifest examples/manifests/design_portfolio.json \
    --quick --quiet --csv="$OUT/dp_j$j.csv" \
    --jsonl="$OUT/dp_j$j.jsonl" --jobs="$j" > "$OUT/dp_j$j.out"
done
cmp "$OUT/dp_j1.out" "$OUT/dp_j8.out"
cmp "$OUT/dp_j1.csv" "$OUT/dp_j8.csv"
cmp "$OUT/dp_j1.jsonl" "$OUT/dp_j8.jsonl"
echo "OK: design kind byte-identical for jobs=1 and jobs=8"

echo "== design replay: simulated-vs-analytic bench (JSON artifact) =="
./build/bench/bench_design_replay --quick --quiet \
  --json=BENCH_design_replay.json > /dev/null
test -s BENCH_design_replay.json
echo "OK: wrote BENCH_design_replay.json"

echo "== design replay: quick design_replay cell, jobs=1 vs jobs=8 =="
./build/tools/eend_run --manifest examples/manifests/design_replay.json \
  --list | grep -q "replay_scaling  \[replay\]"
for j in 1 8; do
  ./build/tools/eend_run --manifest examples/manifests/design_replay.json \
    --quick --quiet --csv="$OUT/dr_j$j.csv" \
    --jsonl="$OUT/dr_j$j.jsonl" --jobs="$j" > "$OUT/dr_j$j.out"
done
cmp "$OUT/dr_j1.out" "$OUT/dr_j8.out"
cmp "$OUT/dr_j1.csv" "$OUT/dr_j8.csv"
cmp "$OUT/dr_j1.jsonl" "$OUT/dr_j8.jsonl"
echo "OK: replay kind byte-identical for jobs=1 and jobs=8"

echo "== design churn: warm-start serving-loop bench (JSON artifact) =="
# Self-asserting floors: the warm repair must beat the from-scratch
# portfolio by >= 3x summed over perturbed epochs (measured 9.6x at n=100
# and 13.5x at n=50 in --quick mode), stay within 5% of its score at every
# epoch, and presolve on/off must produce identical designs (asserted
# inside the bench).
./build/bench/bench_design_churn --quick --quiet \
  --assert-min-warm-speedup=3.0 --assert-max-gap-pct=5.0 \
  --json=BENCH_design_churn.json > /dev/null
test -s BENCH_design_churn.json
echo "OK: wrote BENCH_design_churn.json (warm speedup/gap floors held)"

echo "== design churn: quick design_churn cell, jobs=1 vs jobs=8 =="
# The churn leg also exercises the telemetry layer: --counters must be
# byte-identical across --jobs (the obs determinism contract) and --trace
# must produce a non-empty Chrome trace; both ship as CI artifacts.
./build/tools/eend_run --manifest examples/manifests/design_churn.json \
  --list | grep -q "churn_serving  \[churn\]"
for j in 1 8; do
  ./build/tools/eend_run --manifest examples/manifests/design_churn.json \
    --quick --quiet --csv="$OUT/dc_j$j.csv" \
    --jsonl="$OUT/dc_j$j.jsonl" --jobs="$j" \
    --counters="$OUT/dc_j$j.counters.jsonl" \
    --trace="$OUT/dc_j$j.trace.json" > "$OUT/dc_j$j.out"
done
cmp "$OUT/dc_j1.out" "$OUT/dc_j8.out"
cmp "$OUT/dc_j1.csv" "$OUT/dc_j8.csv"
cmp "$OUT/dc_j1.jsonl" "$OUT/dc_j8.jsonl"
cmp "$OUT/dc_j1.counters.jsonl" "$OUT/dc_j8.counters.jsonl"
echo "OK: churn kind byte-identical for jobs=1 and jobs=8 (incl. --counters)"
# The counter catalog must cover all three layers: sim core, design
# search cache, and the churn engine.
for name in sim.events_fired opt.cache.route_hits churn.events_applied; do
  grep -q "\"counter\":\"$name\"" "$OUT/dc_j1.counters.jsonl"
done
test -s "$OUT/dc_j1.trace.json"
cp "$OUT/dc_j1.counters.jsonl" COUNTERS_design_churn.jsonl
cp "$OUT/dc_j1.trace.json" TRACE_design_churn.json
echo "OK: counters cover sim/opt/churn, wrote COUNTERS_design_churn.jsonl + TRACE_design_churn.json"

echo "== benchmark: determinism self-test on the design workloads =="
# Two traced perfbench runs per workload must agree on every counter and
# quality value; design_cold and churn_serve cover the Klein-Ravi spider
# scan and the routing Dijkstra.
python3 perfbench/selftest.py design_cold churn_serve

echo "== event core: ladder-queue vs baseline-heap bench (JSON artifact) =="
# Self-asserting floors: conservative bounds (measured ~4.8x / ~59M ops/s
# even in --quick mode) that still catch a return to heap-scheduler scaling.
# The network-anchor floor (measured 1.34-1.81M ev/s in --quick mode,
# telemetry on or off) catches a return to hashed DSDV tables or a pooled
# closure per channel transmission (~0.84-1.17M ev/s).
./build/bench/bench_micro_simcore --quick --quiet \
  --json=BENCH_simcore.json \
  --assert-churn-speedup=3.0 --assert-churn-events-per-s=10000000 \
  --assert-network-events-per-s=600000 > /dev/null
test -s BENCH_simcore.json
echo "OK: wrote BENCH_simcore.json (churn and network floors held)"

echo "== event core: same floors with telemetry compiled off (-DEEND_OBS=OFF) =="
# The default build above ran the floors with telemetry ON; this leg pins
# that the no-op path really compiles down to nothing (the floors must
# hold identically) and that the tree builds cleanly with the gate off.
cmake -B build-noobs -S . -DEEND_WERROR=ON -DEEND_OBS=OFF
cmake --build build-noobs -j"$JOBS" --target bench_micro_simcore
./build-noobs/bench/bench_micro_simcore --quick --quiet \
  --json=BENCH_simcore_noobs.json \
  --assert-churn-speedup=3.0 --assert-churn-events-per-s=10000000 \
  --assert-network-events-per-s=600000 > /dev/null
test -s BENCH_simcore_noobs.json
# Report the telemetry on/off delta on the churn workload (both JSONs
# self-label via "obs_enabled"; the first ladder_ops_per_s is churn's).
on=$(awk -F: '/"ladder_ops_per_s"/{gsub(/[ ,]/,"",$2); print $2; exit}' BENCH_simcore.json)
off=$(awk -F: '/"ladder_ops_per_s"/{gsub(/[ ,]/,"",$2); print $2; exit}' BENCH_simcore_noobs.json)
awk -v on="$on" -v off="$off" 'BEGIN{printf "OK: churn throughput, telemetry on/off: %.1fM / %.1fM ops/s (ratio %.3f)\n", on/1e6, off/1e6, on/off}'
echo "OK: wrote BENCH_simcore_noobs.json (floors held with telemetry off)"

echo "== spatial index: construction/query bench (JSON artifact) =="
./build/bench/bench_channel_build --quick --quiet \
  --json=BENCH_channel_build.json > /dev/null
test -s BENCH_channel_build.json
echo "OK: wrote BENCH_channel_build.json"

echo "== spatial index: 2k-node huge_field smoke (eend_run --quick) =="
./build/tools/eend_run --manifest examples/manifests/huge_field.json \
  --quick --quiet --jobs=0 > "$OUT/huge.out"
grep -q "Huge field" "$OUT/huge.out"
echo "OK: 2k-node field simulated end-to-end"

echo "== grid kind: quick hypo_grid fig13, jobs=1 vs jobs=8 =="
for j in 1 8; do
  ./build/tools/eend_run --manifest examples/manifests/hypo_grid.json \
    --quick --quiet --only=fig13 --csv="$OUT/hg_j$j.csv" \
    --jsonl="$OUT/hg_j$j.jsonl" --jobs="$j" > "$OUT/hg_j$j.out"
done
cmp "$OUT/hg_j1.out" "$OUT/hg_j8.out"
cmp "$OUT/hg_j1.csv" "$OUT/hg_j8.csv"
cmp "$OUT/hg_j1.jsonl" "$OUT/hg_j8.jsonl"
echo "OK: grid kind byte-identical for jobs=1 and jobs=8"

echo "== manifest engine: eend_run reproduces Fig 7, CSV/JSONL deterministic =="
./build/tools/eend_run --manifest examples/manifests/fig7_small.json \
  --jobs=0 --quiet --csv="$OUT/fig7.csv" --jsonl="$OUT/fig7.jsonl" \
  > "$OUT/fig7.out"
grep -q "Figure 7" "$OUT/fig7.out"
# stdout tables AND machine files must be byte-identical for any --jobs.
for j in 1 8; do
  ./build/tools/eend_run --manifest examples/manifests/small_field.json \
    --quick --quiet --csv="$OUT/sf_j$j.csv" \
    --jsonl="$OUT/sf_j$j.jsonl" --jobs="$j" > "$OUT/sf_j$j.out"
done
cmp "$OUT/sf_j1.out" "$OUT/sf_j8.out"
cmp "$OUT/sf_j1.csv" "$OUT/sf_j8.csv"
cmp "$OUT/sf_j1.jsonl" "$OUT/sf_j8.jsonl"
echo "OK: eend_run output identical for jobs=1 and jobs=8"

# The golden regression suite runs under ctest above (from build/tests, so
# any golden_diff_*.txt reports land where the workflow's artifact upload
# looks for them).

echo "== CI passed =="
