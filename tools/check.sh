#!/usr/bin/env bash
# Sanitizer gate: configure, build, and run tests under a sanitizer build
# (the MSQ_SANITIZE CMake option). Usage:
#
#   tools/check.sh [build-dir] [mode]
#
# Modes:
#   asan (default)  address+undefined over the full test suite
#   tsan            thread sanitizer over the concurrency suites
#                   (BufferManagerConcurrency / QueryExecutor /
#                   ConcurrentHammer / Cache / server / admission /
#                   deadline-race tests — the multi-threaded code paths)
#
# Also validates that the committed BENCH_layout.json carries its host
# metadata (hardware_concurrency) and build-info stamp (git sha, compiler,
# flags), so benchmark numbers are never read without knowing what
# produced them. In asan mode, a short chaos soak then writes the
# wide-event JSONL and retained-trace dumps and runs them through
# tools/validate_telemetry.py (skipped with a warning if python3 is
# missing), followed by a short bench_churn run (mutations interleaved
# with queries; the binary gates on conservation, epoch monotonicity, the
# warm-vs-cold oracle, and bounded page growth). Both modes then run the
# cache-under-churn differential suite on a longer budget than ctest's
# (more seeds and steps; a failure prints the seed to replay with
# MSQ_CACHE_CHURN_SEED).
#
# The build dir defaults to build-asan/ or build-tsan/ next to the source
# tree, so `tools/check.sh build-asan` (the CI invocation) keeps working.
# Exits non-zero on the first configure, build, or test failure.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
mode="${2:-asan}"
case "$mode" in
  asan)
    build_dir="${1:-$repo_root/build-asan}"
    sanitize="address;undefined"
    ;;
  tsan)
    build_dir="${1:-$repo_root/build-tsan}"
    sanitize="thread"
    ;;
  *)
    echo "check.sh: unknown mode '$mode' (expected asan or tsan)" >&2
    exit 2
    ;;
esac

# Bench metadata gate: committed benchmark numbers must state the core
# count of the host that produced them and carry a build-info stamp (the
# bench binary embeds both; a file without them predates the fields or
# was hand-edited).
bench_json="$repo_root/BENCH_layout.json"
for field in hardware_concurrency build_info; do
  if [[ -f "$bench_json" ]] && ! grep -q "\"$field\"" "$bench_json"; then
    echo "check.sh: $bench_json lacks \"$field\" —" \
         "re-run bench_layout to regenerate it" >&2
    exit 1
  fi
done

cmake -B "$build_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DMSQ_SANITIZE="$sanitize"
cmake --build "$build_dir" -j "$(nproc)"

validate_telemetry() {
  # Telemetry artifact schema gate (asan mode): a short soak with chaos on
  # writes the wide-event JSONL and retained-trace Chrome dump, and the
  # schema checker must accept both — a format regression fails here, not
  # in whatever tool next tries to load a CI artifact.
  if ! command -v python3 >/dev/null 2>&1; then
    echo "check.sh: WARNING python3 not found — skipping telemetry" \
         "artifact validation" >&2
    return 0
  fi
  local out_dir="$build_dir/telemetry-check"
  mkdir -p "$out_dir"
  MSQ_SOAK_SCALE=0.05 MSQ_SOAK_PHASE_S=2 MSQ_SOAK_CLIENTS=2 \
  MSQ_SOAK_OUT="$out_dir/BENCH_soak.json" \
  MSQ_SOAK_WIDE_OUT="$out_dir/wide.jsonl" \
  MSQ_SOAK_TRACE_OUT="$out_dir/traces.json" \
    "$build_dir/bench/bench_soak"
  python3 "$repo_root/tools/validate_telemetry.py" \
    --wide-events "$out_dir/wide.jsonl" \
    --trace-dump "$out_dir/traces.json"
}

run_churn() {
  # Dynamic-world gate (asan mode): a short churn run — edge-weight
  # updates and object insert/delete interleaved with CE/EDC/LBC queries
  # over live connections, storage faults armed. bench_churn exits
  # non-zero on any gate failure: conservation, per-connection data_epoch
  # monotonicity, warm-vs-cold oracle mismatch, or live-page growth
  # beyond the net-insert bound.
  mkdir -p "$build_dir/telemetry-check"
  MSQ_CHURN_PHASE_S=2 \
  MSQ_CHURN_OUT="$build_dir/telemetry-check/BENCH_churn.json" \
    "$build_dir/bench/bench_churn"
}

run_cache_churn() {
  # Cache + churn differential suite, longer budget: every warm answer
  # against a cold cacheless run, every carried memo slot and snapshot
  # label against naive Dijkstra (tests/integration/
  # cache_churn_differential_test.cc).
  MSQ_CACHE_CHURN_SEEDS="$1" MSQ_CACHE_CHURN_OPS="$2" \
    "$build_dir/tests/msq_tests" \
      --gtest_filter='CacheChurnDifferentialTest.*'
}

if [[ "$mode" == "tsan" ]]; then
  # TSan's scheduler interleaving makes the full suite slow; the
  # single-threaded tests gain nothing from it, so gate on the suites that
  # actually run threads. second_deadlock_stack aids lock-order reports.
  TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1" \
    ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" \
      -R "Concurrency|Executor|Hammer|Cache|ServerTest|AdmissionTest|DeadlineRace"
  TSAN_OPTIONS="halt_on_error=1" run_cache_churn 6 200
else
  # halt_on_error makes UBSan findings fail the run instead of just logging.
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
    ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
  validate_telemetry
  run_churn
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" run_cache_churn 12 300
fi

echo "check.sh: $mode build + tests clean"
