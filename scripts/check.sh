#!/usr/bin/env bash
# Ordered verification gate for the OSPREY reproduction. Stages run
# cheapest-first so style/invariant breakage fails before any sanitizer
# build starts:
#
#   lint    tools/osprey_lint over src/ tests/ bench/ tools/ — the
#           whole-program analyzer: token rules, module-layering DAG,
#           include cycles, determinism-taint reachability. See
#           DESIGN.md §"Static analysis architecture".
#   tidy    clang-tidy with the repo .clang-tidy (SKIPPED when
#           clang-tidy is not installed).
#   tsa     Clang -Wthread-safety -Werror=thread-safety build via
#           -DOSPREY_THREAD_SAFETY=ON, including the negative
#           try_compile check (SKIPPED when clang++ is not installed).
#   tier1   Release build + full ctest suite (the seed gate).
#   obs     Observability gate: `ctest -L obs` (trace determinism,
#           exporter round trips, metrics semantics) plus
#           `osprey_trace --self-check`. See DESIGN.md §"Observability".
#   bench   Bench smoke: the Figure-2 R(t) scenario at reduced
#           iterations (OSPREY_BENCH_SMOKE=1), checking that
#           results/BENCH_fig2_rt.json is emitted and the warm-start
#           online refit beats the cold full refit.
#           Then the named benchmark's own checks: `perfbench/run.py
#           --self-test` (every correctness check fires on a corrupted
#           output) and one short traced `ww_rt` run, whose replays —
#           the rt CSVs re-serialized by perfbench's frozen copy of the
#           serializer, SHA-256 against the recorded checksums, WAL
#           recovery — must reproduce the published bytes. Then one
#           traced `gsa` run: its four checks, and a synchronous MUSIC
#           replay of replicate 0 that must reproduce the interleaved
#           run's S1 bit for bit. Then one traced `fleet` run: its
#           crypto replay and the shard-count-invariant check.
#   asan    address+undefined sanitizer build, full ctest suite.
#   ubsan   standalone undefined-behavior sanitizer build, full ctest
#           suite (catches UB that ASan's instrumentation masks).
#   tsan    thread sanitizer build, concurrency-heavy suites only.
#   chaos   thread sanitizer build of the chaos suite: the 16-seed
#           fault-injection sweep (ctest -L chaos) plus the
#           retry/backoff property tests. See DESIGN.md §"Fault model".
#   recovery durability gate: thread sanitizer build of the WAL /
#           crash-recovery suite, then `ctest -L wal` (WAL framing,
#           torn/corrupt-log fuzzing, snapshot round trips, whole-server
#           crash drills, 16-seed kProcessCrash crash-replay sweep).
#           See DESIGN.md §"Durability".
#   serve   serving-tier gate: thread sanitizer build of the cache /
#           front-end suite, then `ctest -L serve` (invalidation,
#           stale-reason propagation, 16-seed flood replay). See
#           DESIGN.md §"Serving tier".
#   shard   sharded-fabric gate: thread sanitizer build of the
#           src/shard suite, then `ctest -L shard` (mailbox total
#           order, campaign round trips, per-partition WAL recovery,
#           and the 16-seed cross-shard-count byte-identity sweep with
#           chaos on), plus the scale bench at OSPREY_BENCH_SMOKE=1
#           checking results/BENCH_scale_workflow.json is emitted.
#           See DESIGN.md §"Sharded fabric".
#   flake   flake gate: thread sanitizer build of the concurrency
#           suites, then `ctest --repeat until-fail:20` over the
#           chaos/shard/wal/compute labels while a CPU burner keeps
#           every core busy, so interleavings a quiet machine never
#           produces get 20 chances to fail.
#
# Usage: scripts/check.sh [--skip-tsan] [stage ...]
#   No stage arguments = run all stages in order. Naming stages runs
#   just those, still in canonical order. The summary table reports
#   PASS/FAIL/SKIP per stage; exit is non-zero if any stage FAILs.
set -uo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"

ALL_STAGES=(lint tidy tsa tier1 obs bench asan ubsan tsan chaos recovery serve shard flake)
declare -A WANTED=()
SKIP_TSAN=0
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) SKIP_TSAN=1 ;;
    lint|tidy|tsa|tier1|obs|bench|asan|ubsan|tsan|chaos|recovery|serve|shard|flake) WANTED[$arg]=1 ;;
    *) echo "unknown argument: $arg" >&2
       echo "usage: scripts/check.sh [--skip-tsan] [stage ...]" >&2
       echo "stages: ${ALL_STAGES[*]}" >&2
       exit 2 ;;
  esac
done

declare -A RESULT=()
FAILED=0

run_stage() {  # run_stage <name> <fn>
  local name="$1" fn="$2"
  if [[ ${#WANTED[@]} -gt 0 && -z "${WANTED[$name]:-}" ]]; then
    RESULT[$name]="-"
    return 0
  fi
  echo
  echo "== stage: $name =="
  local status
  "$fn"
  status=$?
  if [[ $status -eq 0 ]]; then
    RESULT[$name]="PASS"
  elif [[ $status -eq 99 ]]; then
    RESULT[$name]="SKIP"
  else
    RESULT[$name]="FAIL"
    FAILED=1
  fi
  return 0
}

stage_lint() {
  cmake -B build -S . >/dev/null &&
  cmake --build build --target osprey_lint -j "$JOBS" &&
  ./build/tools/osprey_lint --root . --json build/osprey_lint.json \
      src tests bench tools
}

stage_tidy() {
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "clang-tidy not installed; skipping"
    return 99
  fi
  cmake -B build -S . >/dev/null &&
  find src tools -name '*.cpp' | sort |
      xargs -P "$JOBS" -n 8 clang-tidy -p build --quiet
}

stage_tsa() {
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "clang++ not installed; skipping thread-safety build"
    return 99
  fi
  cmake -B build-tsa -S . \
      -DCMAKE_CXX_COMPILER=clang++ \
      -DOSPREY_THREAD_SAFETY=ON >/dev/null &&
  cmake --build build-tsa -j "$JOBS"
}

stage_tier1() {
  cmake -B build -S . >/dev/null &&
  cmake --build build -j "$JOBS" &&
  (cd build && ctest --output-on-failure -j "$JOBS")
}

stage_obs() {
  cmake -B build -S . >/dev/null &&
  cmake --build build -j "$JOBS" \
      --target test_obs_trace test_obs_metrics osprey_trace &&
  (cd build && ctest --output-on-failure -j "$JOBS" -L obs) &&
  ./build/tools/osprey_trace --self-check
}

stage_bench() {
  cmake -B build -S . >/dev/null &&
  cmake --build build -j "$JOBS" --target bench_fig2_rt &&
  OSPREY_BENCH_SMOKE=1 ./build/bench/bench_fig2_rt &&
  test -s results/BENCH_fig2_rt.json &&
  echo "bench artifact: results/BENCH_fig2_rt.json" &&
  python3 perfbench/run.py --self-test &&
  python3 perfbench/run.py --workload ww_rt --seed 1 --seconds 2 --trace 1 &&
  python3 perfbench/run.py --workload gsa --seed 1 --seconds 2 --trace 1 &&
  python3 perfbench/run.py --workload fleet --seed 1 --seconds 2 --trace 1
}

stage_asan() {
  cmake -B build-asan -S . -DOSPREY_SANITIZE=address,undefined >/dev/null &&
  cmake --build build-asan -j "$JOBS" &&
  (cd build-asan && ctest --output-on-failure -j "$JOBS")
}

stage_ubsan() {
  cmake -B build-ubsan -S . -DOSPREY_SANITIZE=undefined >/dev/null &&
  cmake --build build-ubsan -j "$JOBS" &&
  (cd build-ubsan && ctest --output-on-failure -j "$JOBS")
}

stage_tsan() {
  if [[ "$SKIP_TSAN" == "1" ]]; then
    echo "skipped (--skip-tsan)"
    return 99
  fi
  cmake -B build-tsan -S . -DOSPREY_SANITIZE=thread >/dev/null &&
  cmake --build build-tsan -j "$JOBS" \
      --target test_util_concurrency test_emews_pool \
               test_emews_taskdb_stress test_fabric_compute &&
  (cd build-tsan && ctest --output-on-failure \
      -R 'test_util_concurrency|test_emews_pool|test_emews_taskdb_stress|test_fabric_compute')
}

stage_chaos() {
  if [[ "$SKIP_TSAN" == "1" ]]; then
    echo "skipped (--skip-tsan)"
    return 99
  fi
  cmake -B build-tsan -S . -DOSPREY_SANITIZE=thread >/dev/null &&
  cmake --build build-tsan -j "$JOBS" \
      --target test_chaos_fabric test_retry_policy &&
  (cd build-tsan && ctest --output-on-failure -j "$JOBS" -L chaos) &&
  (cd build-tsan && ctest --output-on-failure -R '^test_retry_policy$')
}

stage_recovery() {
  if [[ "$SKIP_TSAN" == "1" ]]; then
    echo "skipped (--skip-tsan)"
    return 99
  fi
  cmake -B build-tsan -S . -DOSPREY_SANITIZE=thread >/dev/null &&
  cmake --build build-tsan -j "$JOBS" \
      --target test_aero_wal test_aero_recovery test_shard_fabric &&
  (cd build-tsan && ctest --output-on-failure -j "$JOBS" -L wal)
}

stage_serve() {
  if [[ "$SKIP_TSAN" == "1" ]]; then
    echo "skipped (--skip-tsan)"
    return 99
  fi
  cmake -B build-tsan -S . -DOSPREY_SANITIZE=thread >/dev/null &&
  cmake --build build-tsan -j "$JOBS" --target test_serve_cache &&
  (cd build-tsan && ctest --output-on-failure -j "$JOBS" -L serve)
}

stage_shard() {
  if [[ "$SKIP_TSAN" == "1" ]]; then
    echo "skipped (--skip-tsan)"
    return 99
  fi
  cmake -B build-tsan -S . -DOSPREY_SANITIZE=thread >/dev/null &&
  cmake --build build-tsan -j "$JOBS" \
      --target test_shard_fabric test_shard_replay &&
  (cd build-tsan && ctest --output-on-failure -j "$JOBS" -L shard) &&
  cmake -B build -S . >/dev/null &&
  cmake --build build -j "$JOBS" --target bench_scale_workflow &&
  OSPREY_BENCH_SMOKE=1 ./build/bench/bench_scale_workflow &&
  test -s results/BENCH_scale_workflow.json &&
  echo "bench artifact: results/BENCH_scale_workflow.json"
}

stage_flake() {
  if [[ "$SKIP_TSAN" == "1" ]]; then
    echo "skipped (--skip-tsan)"
    return 99
  fi
  cmake -B build-tsan -S . -DOSPREY_SANITIZE=thread >/dev/null &&
  cmake --build build-tsan -j "$JOBS" \
      --target test_chaos_fabric test_shard_fabric test_shard_replay \
               test_aero_wal test_aero_recovery test_fabric_compute ||
      return 1
  local burners=() status i
  for ((i = 0; i < JOBS; ++i)); do
    (while :; do :; done) &
    burners+=("$!")
  done
  (cd build-tsan && ctest --output-on-failure -j "$JOBS" \
      --repeat until-fail:20 -L 'chaos|shard|wal|compute')
  status=$?
  kill "${burners[@]}" 2>/dev/null
  wait "${burners[@]}" 2>/dev/null
  return $status
}

run_stage lint  stage_lint
[[ $FAILED -eq 0 ]] && run_stage tidy  stage_tidy
[[ $FAILED -eq 0 ]] && run_stage tsa   stage_tsa
[[ $FAILED -eq 0 ]] && run_stage tier1 stage_tier1
[[ $FAILED -eq 0 ]] && run_stage obs   stage_obs
[[ $FAILED -eq 0 ]] && run_stage bench stage_bench
[[ $FAILED -eq 0 ]] && run_stage asan  stage_asan
[[ $FAILED -eq 0 ]] && run_stage ubsan stage_ubsan
[[ $FAILED -eq 0 ]] && run_stage tsan  stage_tsan
[[ $FAILED -eq 0 ]] && run_stage chaos stage_chaos
[[ $FAILED -eq 0 ]] && run_stage recovery stage_recovery
[[ $FAILED -eq 0 ]] && run_stage serve stage_serve
[[ $FAILED -eq 0 ]] && run_stage shard stage_shard
[[ $FAILED -eq 0 ]] && run_stage flake stage_flake

echo
echo "== summary =="
for s in "${ALL_STAGES[@]}"; do
  printf '  %-6s %s\n' "$s" "${RESULT[$s]:-not run (earlier stage failed)}"
done
if [[ $FAILED -ne 0 ]]; then
  echo "check.sh: FAILED"
  exit 1
fi
echo "check.sh: all executed stages passed"
