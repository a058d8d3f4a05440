// Microbenchmarks (google-benchmark) of the runtime substrates themselves:
// flux task spawn/dataflow overhead, rgt dependence analysis throughput
// (with and without dynamic tracing), and ds graph build + execution
// overhead. These are the per-task costs the paper's block-size heuristic
// (Fig. 14) trades against parallelism. The spawn/execute benchmarks take
// an Arg(0)/Arg(1) telemetry toggle so the obs-layer overhead (the ≤2%
// budget from DESIGN.md) is measurable as a same-binary delta.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_json.hpp"
#include "ds/executor.hpp"
#include "ds/program.hpp"
#include "flux/dataflow.hpp"
#include "obs/obs.hpp"
#include "rgt/runtime.hpp"
#include "sparse/generators.hpp"

namespace {

/// Scoped telemetry toggle: Arg(1) runs with the metrics registry active
/// (buffer-only, nothing written), Arg(0) with telemetry fully off.
class ScopedTelemetry {
public:
  explicit ScopedTelemetry(bool on) : on_(on) {
    if (on_) sts::obs::enable_metrics("");
  }
  ~ScopedTelemetry() {
    if (on_) sts::obs::disable();
  }

private:
  bool on_;
};

} // namespace

namespace {

using namespace sts;

void BM_FluxSpawn(benchmark::State& state) {
  const ScopedTelemetry telemetry(state.range(0) != 0);
  flux::Scheduler sched({.threads = 2});
  for (auto _ : state) {
    std::atomic<int> c{0};
    const int n = 1024;
    for (int i = 0; i < n; ++i) sched.submit([&c] { c.fetch_add(1); });
    sched.wait_for_quiescence();
    benchmark::DoNotOptimize(c.load());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
  state.SetLabel(state.range(0) != 0 ? "telemetry on" : "telemetry off");
}
BENCHMARK(BM_FluxSpawn)->Arg(0)->Arg(1);

// Worker-local spawn: tasks submitted from inside a running task hit the
// lock-free ring + inline-Task fast path (no mutex, no allocation), the
// dominant submission pattern in the solvers' fork phases.
void BM_FluxSpawnLocal(benchmark::State& state) {
  const ScopedTelemetry telemetry(state.range(0) != 0);
  flux::Scheduler sched({.threads = 2});
  for (auto _ : state) {
    std::atomic<int> c{0};
    const int n = 1024;
    sched.submit([&sched, &c, n] {
      for (int i = 0; i < n; ++i) sched.submit([&c] { c.fetch_add(1); });
    });
    sched.wait_for_quiescence();
    benchmark::DoNotOptimize(c.load());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
  state.SetLabel(state.range(0) != 0 ? "telemetry on" : "telemetry off");
}
BENCHMARK(BM_FluxSpawnLocal)->Arg(0)->Arg(1);

void BM_FluxDataflowChain(benchmark::State& state) {
  flux::Scheduler sched({.threads = 2});
  for (auto _ : state) {
    flux::shared_future<void> chain = flux::make_ready_future();
    for (int i = 0; i < 512; ++i) {
      chain = flux::dataflow(sched, flux::unwrapping([] {}), chain).share();
    }
    chain.get();
    sched.wait_for_quiescence();
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_FluxDataflowChain);

// Fan-in: 48 producers joined by one when_all, the shape of the Lanczos
// XTY reduce. Each round's producers wait on the previous round's join, so
// a round pays 48 edges out of one state and 48 into the next; items are
// tasks (producers plus the join).
void BM_FluxDataflowFanIn(benchmark::State& state) {
  constexpr int kProducers = 48;
  constexpr int kRounds = 16;
  flux::Scheduler sched({.threads = 2});
  for (auto _ : state) {
    flux::shared_future<void> join = flux::make_ready_future();
    for (int r = 0; r < kRounds; ++r) {
      std::vector<flux::shared_future<void>> parts;
      parts.reserve(kProducers);
      for (int p = 0; p < kProducers; ++p) {
        parts.push_back(
            flux::dataflow(sched, flux::unwrapping([] {}), join).share());
      }
      join = flux::when_all(sched, std::move(parts)).share();
    }
    join.get();
    sched.wait_for_quiescence();
  }
  state.SetItemsProcessed(state.iterations() * kRounds * (kProducers + 1));
}
BENCHMARK(BM_FluxDataflowFanIn);

void BM_RgtAnalysis(benchmark::State& state) {
  const bool traced = state.range(0) != 0;
  std::vector<double> data(1024, 0.0);
  rgt::Runtime rt({.cpu_workers = 2});
  const rgt::RegionId r = rt.register_region(data, "d");
  rt.partition_equal(r, 64);
  int trace_id = 0;
  for (auto _ : state) {
    if (traced) rt.begin_trace(trace_id);
    for (std::int32_t p = 0; p < 64; ++p) {
      rt.execute({[](rgt::TaskContext&) {},
                  {{r, p, rgt::Privilege::kReadWrite}},
                  "t"});
    }
    if (traced) rt.end_trace(trace_id);
    rt.wait_all();
  }
  state.SetItemsProcessed(state.iterations() * 64);
  state.SetLabel(traced ? "dynamic tracing" : "full analysis");
}
BENCHMARK(BM_RgtAnalysis)->Arg(0)->Arg(1);

void BM_DsGraphBuild(benchmark::State& state) {
  sparse::Coo coo = sparse::gen_fem3d(12, 12, 12, 1, 9);
  sparse::Csb csb = sparse::Csb::from_coo(coo, state.range(0));
  la::DenseMatrix x(csb.rows(), 8);
  la::DenseMatrix y(csb.rows(), 8);
  for (auto _ : state) {
    ds::Program prog(&csb, {});
    prog.spmm(prog.vec("x", &x), prog.vec("y", &y));
    const graph::Tdg g = prog.build();
    benchmark::DoNotOptimize(g.task_count());
  }
}
BENCHMARK(BM_DsGraphBuild)->Arg(64)->Arg(256)->Arg(1024);

void BM_DsExecuteOverhead(benchmark::State& state) {
  const ScopedTelemetry telemetry(state.range(0) != 0);
  // Pure overhead: empty-bodied graph of independent tasks. The graph is
  // analysed once outside the timed loop, as the solvers do, so this times
  // one replay: counter reset, spawn and dependency release.
  graph::Tdg g;
  for (int i = 0; i < 1024; ++i) {
    graph::Task t;
    t.body = [] {};
    g.add_task(std::move(t));
  }
  const ds::Schedule schedule = ds::prepare(g);
  for (auto _ : state) {
    ds::execute(schedule,
                {.mode = ds::ExecMode::kOmpTasks, .trace = nullptr});
  }
  state.SetItemsProcessed(state.iterations() * 1024);
  state.SetLabel(state.range(0) != 0 ? "prepared, telemetry on"
                                     : "prepared, telemetry off");
}
BENCHMARK(BM_DsExecuteOverhead)->Arg(0)->Arg(1);

} // namespace

int main(int argc, char** argv) {
  return sts::benchjson::run(argc, argv, "BENCH_runtime.json");
}
