#include "ds/executor.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>

#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/escape.hpp"
#include "support/fault.hpp"
#include "support/timer.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace sts::ds {

namespace {

void invoke_body(const graph::Task& task) {
  support::fault::check("ds:task");
  if (task.body) task.body();
}

obs::Counter& spawned_counter() {
  static obs::Counter& c = obs::counter("ds.tasks_spawned");
  return c;
}
obs::Counter& ready_counter() {
  static obs::Counter& c = obs::counter("ds.ready_events");
  return c;
}
obs::Counter& poisoned_counter() {
  static obs::Counter& c = obs::counter("ds.tasks_poisoned");
  return c;
}

/// Runs one task; any exception escaping the body is wrapped in a
/// support::TaskError naming the failing task. Task events flow through
/// obs::publish_task, which feeds the bench recorder, the Chrome trace, and
/// the per-kernel latency histograms from one timing pass.
void run_task(const graph::Tdg& g, graph::TaskId id,
              perf::TraceRecorder* trace, unsigned worker) {
  const graph::Task& task = g.task(id);
  const obs::prof::TaskMark mark("ds", task.kind);
  try {
    if (trace != nullptr || obs::task_timing_enabled()) {
      perf::TaskEvent ev;
      ev.task_id = id;
      ev.kind = task.kind;
      ev.worker = static_cast<std::int32_t>(worker);
      ev.start_ns = support::now_ns();
      invoke_body(task);
      ev.end_ns = support::now_ns();
      obs::publish_task("ds", ev, trace);
    } else {
      invoke_body(task);
    }
  } catch (const support::TaskError&) {
    throw;
  } catch (const std::exception& e) {
    throw support::TaskError(graph::task_label(task), e.what());
  } catch (...) {
    throw support::TaskError(graph::task_label(task), "unknown exception");
  }
}

void execute_serial(const Schedule& s, perf::TraceRecorder* trace) {
  for (graph::TaskId id : s.order) run_task(*s.graph, id, trace, 0);
}

#ifdef _OPENMP

struct OmpContext {
  const Schedule* schedule;
  std::unique_ptr<std::atomic<std::int32_t>[]> remaining;
  perf::TraceRecorder* trace;
  // Failure containment: the first exception is latched; a failed task does
  // NOT decrement its successors' counters, so everything downstream of the
  // failure stays unspawned (poisoned readiness), and `cancelled` makes
  // already-spawned-but-not-started tasks skip their bodies.
  std::atomic<bool> cancelled{false};
  std::atomic<std::uint64_t> suppressed{0};
  std::mutex error_mutex;
  std::exception_ptr error;
};

void spawn_task(OmpContext& ctx, graph::TaskId id);

void finish_task(OmpContext& ctx, graph::TaskId id) {
  for (graph::TaskId s : ctx.schedule->succ[static_cast<std::size_t>(id)]) {
    if (ctx.remaining[static_cast<std::size_t>(s)].fetch_sub(
            1, std::memory_order_acq_rel) == 1) {
      ready_counter().add(1);
      spawn_task(ctx, s);
    }
  }
}

void spawn_task(OmpContext& ctx, graph::TaskId id) {
  OmpContext* c = &ctx;
  spawned_counter().add(1);
#pragma omp task firstprivate(c, id) untied
  {
    if (c->cancelled.load(std::memory_order_acquire)) {
      c->suppressed.fetch_add(1, std::memory_order_relaxed);
      poisoned_counter().add(1);
      obs::instant("ds:poisoned", "cancel",
                   "{\"task\":\"" +
                       support::json_escape(
                           graph::task_label(c->schedule->graph->task(id))) +
                       "\"}");
    } else {
      try {
        run_task(*c->schedule->graph, id, c->trace,
                 static_cast<unsigned>(omp_get_thread_num()));
        finish_task(*c, id);
      } catch (...) {
        bool latched = false;
        {
          const std::lock_guard<std::mutex> lock(c->error_mutex);
          if (!c->error) {
            c->error = std::current_exception();
            latched = true;
          }
        }
        c->cancelled.store(true, std::memory_order_release);
        if (latched) obs::instant("ds:cancel", "cancel");
      }
    }
  }
}

void execute_omp(const Schedule& s, perf::TraceRecorder* trace) {
  OmpContext ctx;
  ctx.schedule = &s;
  ctx.trace = trace;
  const std::size_t n = s.indeg.size();
  ctx.remaining = std::make_unique<std::atomic<std::int32_t>[]>(n);
  for (std::size_t i = 0; i < n; ++i) {
    ctx.remaining[i].store(s.indeg[i], std::memory_order_relaxed);
  }
#pragma omp parallel
#pragma omp single nowait
  {
    // Master spawns all initially-ready tasks in depth-first topological
    // order (DeepSparse's spawn policy); the rest are spawned by their
    // final predecessor as counters drain.
    for (graph::TaskId id : s.order) {
      if (s.indeg[static_cast<std::size_t>(id)] == 0) spawn_task(ctx, id);
    }
  }
  // Implicit barrier of the parallel region waits for all spawned tasks —
  // and only for spawned ones, so the poisoned (never-spawned) successors
  // of a failed task don't stall it. Surface the single latched failure
  // here, on the calling thread, where it is catchable.
  if (ctx.error) std::rethrow_exception(ctx.error);
}

#endif // _OPENMP

} // namespace

Schedule prepare(const graph::Tdg& g) {
  Schedule s;
  s.graph = &g;
  // Enforces the acyclic precondition too: the order aborts on a cycle.
  s.order = g.depth_first_topological_order();
  s.succ.resize(g.task_count());
  s.indeg.assign(g.task_count(), 0);
  for (std::size_t u = 0; u < g.task_count(); ++u) {
    std::vector<graph::TaskId>& out = s.succ[u];
    out = g.successors(static_cast<graph::TaskId>(u));
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    for (graph::TaskId v : out) ++s.indeg[static_cast<std::size_t>(v)];
  }
  return s;
}

void execute(const Schedule& schedule, const ExecOptions& options) {
  STS_EXPECTS(schedule.graph != nullptr &&
              schedule.order.size() == schedule.graph->task_count());
  switch (options.mode) {
    case ExecMode::kSerial:
      execute_serial(schedule, options.trace);
      return;
    case ExecMode::kOmpTasks:
#ifdef _OPENMP
      execute_omp(schedule, options.trace);
#else
      execute_serial(schedule, options.trace);
#endif
      return;
  }
}

void execute(const graph::Tdg& g, const ExecOptions& options) {
  execute(prepare(g), options);
}

} // namespace sts::ds
