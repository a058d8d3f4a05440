#!/usr/bin/env bash
# Local CI gate, split into named stages so the GitHub workflow can run
# them as separate matrix jobs while a bare `tools/ci.sh` still runs the
# whole gauntlet in order:
#
#   tier1        configure + full build + complete ctest suite (JUnit out)
#                + 20x repeat stress over the flux/rgt/solvers/cg labels
#   chaos        kill/restart recovery e2e + journal-replay corruption fuzz
#   numa         topology fixtures, pinned re-runs, steal-tier bench
#   dispatch     scheduler/partition/quota tests + fifo-vs-fair bench
#   asan         AddressSanitizer build + concurrency-heavy labels
#   tsan         ThreadSanitizer pass over flux + rgt + the flux solver
#                drivers + obs + dispatcher structures + the svc server's
#                start/stop path
#   bench        microbench exports (BENCH_kernels/obs/cg.json)
#   format       git clang-format --diff over the changed files
#   bench-check  compare BENCH_*.json medians against bench/baselines/
#
#   tools/ci.sh [--stage=<name>] [build-dir] [asan-build-dir] [tsan-build-dir]
#
# Without --stage, every stage above runs in order (bench-check last, since
# it needs the bench + dispatch exports). Exits non-zero on the first
# failing step.
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
stage="all"
args=()
for a in "$@"; do
  case "$a" in
    --stage=*) stage="${a#--stage=}" ;;
    --stage) echo "ci.sh: --stage requires =<name>" >&2; exit 2 ;;
    *) args+=("$a") ;;
  esac
done
build="${args[0]:-$repo/build}"
asan_build="${args[1]:-$repo/build-asan}"
tsan_build="${args[2]:-$repo/build-tsan}"
jobs="$(nproc 2>/dev/null || echo 4)"

stage_tier1() {
  echo "== tier-1: configure + build + full ctest =="
  cmake -B "$build" -S "$repo"
  cmake --build "$build" -j "$jobs"
  ctest --test-dir "$build" --output-on-failure -j "$jobs" \
    --output-junit "$build/ctest-junit.xml"
  # Stress: the labels that run the lock-free future/dataflow layer, the
  # rgt runtime (its launcher runs tasks alongside the pool) and the task
  # solvers, repeated so an intermittent race fails the gate.
  ctest --test-dir "$build" --output-on-failure -j "$jobs" \
    --repeat until-fail:20 -L "flux|rgt|solvers|cg"
}

stage_chaos() {
  echo "== chaos: crash/recovery e2e + journal-replay fuzz =="
  ctest --test-dir "$build" --output-on-failure -j "$jobs" -L chaos
  STS_JOURNAL_FUZZ_ITERS=200 "$build/tests/resilience_test" \
    --gtest_filter='Journal.FuzzedCorruptionNeverCrashesReplay'
}

stage_numa() {
  echo "== numa: topology tests + pinned runtimes + steal-tier bench =="
  # The numa label covers the sysfs-fixture topology parser and the
  # placement/stealing unit tests; re-running the flux and solvers labels
  # under STS_AFFINITY=compact exercises the pinned code path end to end
  # (workers bound to real CPUs, or counted pin failures on constrained
  # hosts — never fatal). The fig5 native bench exports per-tier steal
  # counts; pinned+owned must show fewer cross-domain steals than the
  # unpinned baseline.
  ctest --test-dir "$build" --output-on-failure -j "$jobs" -L numa
  STS_AFFINITY=compact ctest --test-dir "$build" --output-on-failure \
    -j "$jobs" -L "flux|solvers"
  cmake --build "$build" -j "$jobs" --target bench_fig5_first_touch
  (cd "$build" && STS_AFFINITY=compact ./bench/bench_fig5_first_touch \
    --benchmark_min_time=0.05 --benchmark_filter=BM_CsbSpmv)
  echo "wrote $build/BENCH_numa.json"
}

stage_dispatch() {
  echo "== dispatch: scheduler/partition tests + latency bench =="
  # The dispatch label covers the FairQueue DRR accounting, the partition
  # arithmetic against sysfs fixtures, and the Service-level
  # slot/partition/quota tests; the svc label re-runs alongside it because the
  # dispatcher rewired the daemon's execution path. The bench exports
  # makespan + p99 interactive latency for fifo/1-slot vs fair/4-slots
  # over a mixed 32-job workload.
  ctest --test-dir "$build" --output-on-failure -j "$jobs" -L "dispatch|svc"
  cmake --build "$build" -j "$jobs" --target bench_dispatch
  (cd "$build" && ./bench/bench_dispatch --benchmark_min_time=0.01)
  echo "wrote $build/BENCH_dispatch.json"
}

stage_asan() {
  echo "== asan: build + svc/dispatch/faults/chaos/cg/flux/rgt/solvers/la/ds/sim/sparse/bsp labels =="
  # cg joins the concurrency-heavy set: the SpTRSV DAG executor and the
  # flux CG driver juggle per-block futures whose lifetime bugs only ASan
  # would catch, and the cg label carries the randomized property tests
  # (IC(0) pattern identity, SpTRSV-vs-dense, CG convergence). flux and
  # solvers cover the dataflow nodes (intrusive links, self-owned until
  # submitted) and the flux Lanczos/LOBPCG drivers built on them. la runs
  # the dense kernels' row-remainder loops and strided column-slice views,
  # where an out-of-bounds read would otherwise pass unnoticed. ds and sim
  # build DeepSparse graphs (sim_test through sim::build_*_workload): the
  # per-line stamp array that counts an SpMM block's input lines is indexed
  # by column, and a ds::Schedule points at its graph, so an out-of-bounds
  # stamp or a Schedule outliving its graph shows up there. sparse and bsp
  # cover the matrix builders: Csr::from_coo and Csb::from_csr scatter into
  # raw AlignedBuffers through per-row and per-block cursor arrays, and the
  # bsp kernels walk the resulting block streams, so a cursor that runs
  # past its bucket is an out-of-bounds write only ASan reports. rgt
  # indexes per-slot reduction instances by TaskContext::worker(), which
  # includes the launcher's extra slot, and its completion closures touch
  # the runtime up to the moment its destructor joins the pool.
  cmake -B "$asan_build" -S "$repo" -DSTS_SANITIZE=address \
    -DSTS_BUILD_BENCH=OFF
  cmake --build "$asan_build" -j "$jobs"
  ctest --test-dir "$asan_build" --output-on-failure -j "$jobs" \
    -L "svc|dispatch|faults|chaos|cg|flux|rgt|solvers|la|ds|sim|sparse|bsp"
}

stage_tsan() {
  echo "== tsan: build + flux/rgt/metric/trace/profiler race checks =="
  # Scoped to the hand-rolled atomics where TSan has teeth: the whole flux
  # runtime (work-stealing rings, the lock-free future state word, the
  # dataflow nodes' countdowns and links), the hot/cold histogram
  # snapshot, the job trace ring, and the sampling profiler. The OpenMP
  # runtimes are excluded — libgomp is not TSan-instrumented and drowns
  # real reports in false positives; flux_test links only sts_flux.
  cmake -B "$tsan_build" -S "$repo" -DSTS_SANITIZE=thread \
    -DSTS_BUILD_BENCH=OFF
  cmake --build "$tsan_build" -j "$jobs" --target flux_test
  "$tsan_build/tests/flux_test"
  # The rgt runtime on top of that pool: per-slot reduction bookkeeping
  # written by concurrent workers and the launcher, and the launcher
  # running tasks while it waits. rgt_test links only sts_rgt -> sts_flux
  # and never enters an OpenMP region.
  cmake --build "$tsan_build" -j "$jobs" --target rgt_test
  "$tsan_build/tests/rgt_test"
  # The task solver drivers end to end: Lanczos (flux on the STF layer,
  # and rgt) and flux CG, whole solves at 1-3 workers. These cases set
  # first_touch = false, which keeps the parallel first-touch fill
  # (support/aligned.cpp) -- the one OpenMP region on their path -- out of
  # the run. LOBPCG is not here: its set-up SpMM is a BSP (OpenMP) kernel.
  cmake --build "$tsan_build" -j "$jobs" --target solvers_test cg_test
  "$tsan_build/tests/solvers_test" \
    --gtest_filter='Solvers.LanczosTaskResultsDoNotDependOnWorkerCount'
  "$tsan_build/tests/cg_test" \
    --gtest_filter='Cg.FluxResultsDoNotDependOnWorkerCount'
  # Pool placement over a fixture topology, and steal-tier accounting: a
  # pool's workers and placement tables are built before its threads
  # start and are plain (non-atomic) from then on. These cases enter no
  # OpenMP region.
  cmake --build "$tsan_build" -j "$jobs" --target topology_test
  "$tsan_build/tests/topology_test" \
    --gtest_filter='SchedulerPlacement.*:SchedulerStats.*'
  cmake --build "$tsan_build" -j "$jobs" --target obs_test
  "$tsan_build/tests/obs_test" \
    --gtest_filter='Registry.*:Histogram.*:Prometheus.*:Profiler.*:JobTrace.*'
  # Dispatcher structures under TSan: the FairQueue and partition
  # arithmetic (plus policy parsing). The Service-level dispatch tests run
  # solves whose plan/solver paths enter OpenMP regions, and libgomp is not
  # TSan-instrumented — those race checks live in the ASan stage instead.
  cmake --build "$tsan_build" -j "$jobs" --target dispatch_test
  "$tsan_build/tests/dispatch_test" \
    --gtest_filter='FairQueueTest.*:DispatchPolicy.*:PartitionCpus.*:Carve.*'
  # Server start/stop against a concurrently connecting client (the
  # listener fd handoff between stop() and the accept thread). The test
  # sends only pings, so it never enters an OpenMP region.
  cmake --build "$tsan_build" -j "$jobs" --target svc_test
  "$tsan_build/tests/svc_test" \
    --gtest_filter='Server.StopWhileAcceptingIsClean'
}

stage_bench() {
  echo "== bench: kernel/observability/cg exports -> BENCH_*.json =="
  cmake --build "$build" -j "$jobs" \
    --target bench_kernels bench_obs bench_cg
  (cd "$build" && ./bench/bench_kernels --benchmark_min_time=0.05)
  (cd "$build" && ./bench/bench_obs --benchmark_min_time=0.05)
  (cd "$build" && ./bench/bench_cg --benchmark_min_time=0.05)
  echo "wrote $build/BENCH_kernels.json $build/BENCH_obs.json" \
       "$build/BENCH_cg.json"
}

stage_format() {
  echo "== format: git clang-format over changed files =="
  if ! command -v clang-format >/dev/null 2>&1 ||
     ! git -C "$repo" clang-format -h >/dev/null 2>&1; then
    echo "format: clang-format / git-clang-format not installed; skipping"
    return 0
  fi
  # Diff against the merge base with the default branch when one exists,
  # else against HEAD~1 (post-commit use). --diff prints the reformatting
  # a commit would need; any non-clean output is a failure.
  local base
  base="$(git -C "$repo" merge-base origin/main HEAD 2>/dev/null ||
          git -C "$repo" rev-parse HEAD~1 2>/dev/null ||
          git -C "$repo" rev-parse HEAD)"
  local out
  out="$(git -C "$repo" clang-format --diff "$base" 2>&1 || true)"
  case "$out" in
    ""|*"no modified files to format"*|*"did not modify any files"*)
      echo "format: clean" ;;
    *)
      printf '%s\n' "$out"
      echo "format: run 'git clang-format $base' and commit the result" >&2
      return 1 ;;
  esac
}

stage_bench_check() {
  echo "== bench-check: compare exports against bench/baselines =="
  # Requires the bench + dispatch stages to have produced the exports.
  python3 "$repo/tools/bench_check.py" --build-dir "$build" \
    --baseline-dir "$repo/bench/baselines"
}

case "$stage" in
  tier1) stage_tier1 ;;
  chaos) stage_chaos ;;
  numa) stage_numa ;;
  dispatch) stage_dispatch ;;
  asan) stage_asan ;;
  tsan) stage_tsan ;;
  bench) stage_bench ;;
  format) stage_format ;;
  bench-check) stage_bench_check ;;
  all)
    stage_tier1
    stage_chaos
    stage_numa
    stage_dispatch
    stage_asan
    stage_tsan
    stage_bench
    stage_format
    stage_bench_check
    ;;
  *)
    echo "ci.sh: unknown stage '$stage' (tier1|chaos|numa|dispatch|asan|" \
         "tsan|bench|format|bench-check)" >&2
    exit 2
    ;;
esac

echo "== ci.sh: stage '$stage' green =="
