#!/usr/bin/env bash
# Single CI entry point: configure, build src/ with warnings-as-errors,
# build tests/benches/examples, run the test suite, re-run it under
# ASan+UBSan (a second cmake preset, including a routing bench smoke so
# the maze expansion's hot path runs sanitized), run the routing smoke
# and the stage-cache tests under ThreadSanitizer (a third preset —
# per-context routing workers and concurrent compiles on one
# CompileService are the threaded paths), smoke the perf benches at tiny
# sizes so the hot paths are exercised, not just compiled, and diff the
# smoke BENCH_JSON counters against the pinned baselines
# (scripts/bench_guard.py) so queue-traffic and QoR regressions of the
# maze engine, the placer and the flow fail CI, and build and smoke the
# end-to-end benchmark (perfbench/) on all three workloads, requiring
# zero failed operations.
#
# Usage: scripts/check.sh [build-dir]   (default: build-check)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-check}"

cmake -B "$BUILD_DIR" -S . -DMCFPGA_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "--- sanitizer (ASan+UBSan) test run ---"
SAN_DIR="${BUILD_DIR}-asan"
cmake -B "$SAN_DIR" -S . -DMCFPGA_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$SAN_DIR" -j "$(nproc)"
ctest --test-dir "$SAN_DIR" --output-on-failure -j "$(nproc)"
echo "--- sanitizer bench smoke (maze expansion) ---"
"$SAN_DIR"/bench_routing_delay --smoke > /dev/null

echo "--- sanitizer (TSan) routing smoke and stage-cache tests ---"
# The routing smoke's serial-vs-parallel section routes contexts on one
# worker per hardware thread (the router's only concurrency), and
# test_cache runs four threads of compiles against one CompileService —
# the two places real concurrency lives.
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_DIR" -S . -DMCFPGA_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$TSAN_DIR" -j "$(nproc)" \
  --target bench_routing_delay test_cache
"$TSAN_DIR"/bench_routing_delay --smoke > /dev/null
"$TSAN_DIR"/test_cache

echo "--- bench smoke runs ---"
"$BUILD_DIR"/bench_placer --smoke | tee "$BUILD_DIR"/bench_placer_smoke.log
"$BUILD_DIR"/bench_flow_end2end --smoke | tee "$BUILD_DIR"/bench_flow_smoke.log
"$BUILD_DIR"/bench_routing_delay --smoke | tee "$BUILD_DIR"/bench_routing_smoke.log
"$BUILD_DIR"/bench_incremental --smoke | tee "$BUILD_DIR"/bench_incremental_smoke.log

echo "--- perfbench smoke (every workload, untraced and traced) ---"
# perfbench/ is the frozen end-to-end benchmark; building and running it
# here keeps it compiling against the library's API, and its last line
# must report no failed operation.
for workload in cold_sweep edit_session closure; do
  for trace in 0 1; do
    result=$(CARGO_TARGET_DIR="$BUILD_DIR" python3 perfbench/run.py \
      --workload "$workload" --seed 1 --seconds 1 --trace "$trace" | tail -n 1)
    python3 -c 'import json, sys; sys.exit(json.loads(sys.argv[1])["failed"] != 0)' \
      "$result" || { echo "perfbench $workload trace=$trace: $result"; exit 1; }
  done
done

echo "--- bench regression guard ---"
python3 scripts/bench_guard.py --baseline BENCH_PLACER.json \
  --log "$BUILD_DIR"/bench_placer_smoke.log
python3 scripts/bench_guard.py --baseline BENCH_ROUTING.json \
  --log "$BUILD_DIR"/bench_routing_smoke.log
python3 scripts/bench_guard.py --baseline BENCH_FLOW.json \
  --log "$BUILD_DIR"/bench_flow_smoke.log
python3 scripts/bench_guard.py --baseline BENCH_INCREMENTAL.json \
  --log "$BUILD_DIR"/bench_incremental_smoke.log
