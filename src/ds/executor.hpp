// DeepSparse Task Executor.
//
// Runs an explicit graph::Tdg. The OpenMP mode mirrors the paper: the
// master thread walks the depth-first topological order and spawns every
// task as an OpenMP task; readiness is tracked with atomic predecessor
// counters (a task is spawned the moment its last predecessor finishes),
// and OpenMP's scheduler executes them. A serial mode provides the
// reference semantics property tests compare against.
//
// The graph analysis both modes need (acyclicity, unique successor lists,
// in-degrees, spawn order) is done once by prepare(); the resulting
// Schedule is replayed by every execute() call, as DeepSparse builds its
// TDG once and replays it over the solver's iterations.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/tdg.hpp"
#include "perf/trace.hpp"

namespace sts::ds {

enum class ExecMode {
  kSerial,   // topological order on the calling thread
  kOmpTasks, // OpenMP task spawning (DeepSparse's execution model)
};

struct ExecOptions {
  ExecMode mode = ExecMode::kOmpTasks;
  /// Optional per-task event recording (Figs. 10/13). Must be sized for
  /// omp_get_max_threads() lanes in kOmpTasks mode.
  perf::TraceRecorder* trace = nullptr;
};

/// A graph analysed for execution. Holds `graph` by pointer: the graph
/// must outlive the Schedule and stay unchanged while it is in use.
struct Schedule {
  const graph::Tdg* graph = nullptr;
  /// Successors of each task, sorted, duplicate edges removed.
  std::vector<std::vector<graph::TaskId>> succ;
  /// Unique predecessors of each task.
  std::vector<std::int32_t> indeg;
  /// graph->depth_first_topological_order(): serial run order, and the
  /// order in which the OpenMP mode spawns the initially ready tasks.
  std::vector<graph::TaskId> order;
};

/// Analyses `g` once (precondition: acyclic). Cost O(V + E log E).
[[nodiscard]] Schedule prepare(const graph::Tdg& g);
/// A Schedule must not point at a temporary graph.
Schedule prepare(const graph::Tdg&& g) = delete;

/// Executes every task of the prepared graph respecting dependencies.
/// Blocks until done. The Schedule is only read, so it can be replayed any
/// number of times, also after a failed run.
///
/// Failure contract: an exception escaping a task body is wrapped in a
/// support::TaskError naming the task (e.g. "spmv[3,2]"). In kOmpTasks mode
/// the first failure is latched, the failed task's successors are never
/// spawned (their readiness counters stay poisoned), queued-but-unstarted
/// tasks skip their bodies, and the single latched TaskError is rethrown
/// from execute() after the region drains. In kSerial mode the TaskError
/// propagates directly and later tasks never run.
void execute(const Schedule& schedule, const ExecOptions& options);

/// One-shot form: execute(prepare(g), options).
void execute(const graph::Tdg& g, const ExecOptions& options);

} // namespace sts::ds
