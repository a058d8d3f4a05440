// Task dependency graph (TDG) representation.
//
// One TDG node = one fine-grained task operating on a CSB block or a
// row-block of a vector block (paper Fig. 3). The structure is shared by
// three consumers:
//   * the DeepSparse-style executor (src/ds) runs `body` callables,
//   * the schedule simulator (src/sim) costs tasks from `flops`/`accesses`,
//   * the analysis benches report critical path / width / task counts (§4).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace sts::graph {

/// Kernel classes appearing in the two solvers. Used for flow-graph
/// coloring, scheduling statistics and simulator cost hooks.
enum class KernelKind : std::uint8_t {
  kSpMV,       // one CSB block of y += A_ij * x_j
  kSpMM,       // one CSB block of Y += A_ij * X_j
  kZero,       // zero an output block before its accumulation chain
  kXY,         // Y_i = X_i * Z  (block row x small dense)
  kXTY,        // partial P += X_i^T * Y_i
  kReduce,     // fold partial buffers / finalize a small result
  kAxpy,       // block row daxpy
  kScale,      // block row scaling
  kDotPartial, // block row partial inner product
  kNorm,       // finalize norm / small scalar work
  kOrtho,      // small dense factorization (Rayleigh-Ritz, Cholesky)
  kConvCheck,  // convergence test
  kSpTRSV,     // one block row of a DAG-scheduled triangular solve
  kOther,
};

[[nodiscard]] const char* to_string(KernelKind k);

/// How a task touches one byte range of one logical data structure. The
/// cache simulator expands ranges into 64-byte line accesses.
struct Access {
  enum class Mode : std::uint8_t { kRead, kWrite, kReadWrite };
  std::uint32_t data_id = 0; // registered with sim::DataLayout
  std::uint64_t offset = 0;  // bytes from the structure's base
  std::uint64_t bytes = 0;
  Mode mode = Mode::kRead;
  /// Line-expansion stride: 1 = touch every 64B line of the range (dense
  /// streaming); s > 1 = touch every s-th line (models scattered gathers,
  /// e.g. CSR SpMM x-vector reads, which cover a wide range sparsely).
  std::uint32_t stride_lines = 1;
};

using TaskId = std::int32_t;
inline constexpr TaskId kInvalidTask = -1;

struct Task;

/// Human-readable task label for diagnostics and error messages:
/// "spmv[3,2]" for block-structured tasks, "reduce[5]" / "conv" otherwise.
[[nodiscard]] std::string task_label(const Task& task);

struct Task {
  KernelKind kind = KernelKind::kOther;
  std::int32_t bi = -1; // block-row coordinate, -1 if not block-structured
  std::int32_t bj = -1; // block-col coordinate
  /// Index of the function call (TI node) this task was expanded from.
  /// The BSP execution model is recovered by running phases in order with
  /// a barrier between them; task runtimes ignore it.
  std::int32_t phase = -1;
  double flops = 0.0;
  std::vector<Access> accesses;
  std::function<void()> body; // optional: empty for analysis-only graphs
};

/// Append-only DAG of tasks. Edges are stored forward (successor lists);
/// predecessor counts are derivable. Construction must keep edges from
/// lower ids to higher ids OR call validate() to check acyclicity.
class Tdg {
public:
  TaskId add_task(Task task);

  /// Declares that `to` cannot start before `from` finished. Duplicate
  /// edges are permitted (executors de-duplicate via counts).
  void add_edge(TaskId from, TaskId to);

  [[nodiscard]] std::size_t task_count() const noexcept {
    return tasks_.size();
  }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_; }
  [[nodiscard]] const Task& task(TaskId id) const {
    STS_EXPECTS(id >= 0 && static_cast<std::size_t>(id) < tasks_.size());
    return tasks_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] Task& task(TaskId id) {
    STS_EXPECTS(id >= 0 && static_cast<std::size_t>(id) < tasks_.size());
    return tasks_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const std::vector<TaskId>& successors(TaskId id) const {
    STS_EXPECTS(id >= 0 && static_cast<std::size_t>(id) < succ_.size());
    return succ_[static_cast<std::size_t>(id)];
  }

  /// In-degree of every task (counting duplicate edges once).
  [[nodiscard]] std::vector<std::int32_t> indegrees() const;

  /// True iff the graph has no cycle.
  [[nodiscard]] bool is_acyclic() const;

  /// Depth-first topological order starting from roots in insertion order —
  /// the spawn order DeepSparse's Task Executor uses.
  [[nodiscard]] std::vector<TaskId> depth_first_topological_order() const;

  /// Longest path length in *tasks* (nodes). With `by_kernel` the path is
  /// measured in distinct kernel stages, matching the paper's statement
  /// that the critical paths of Lanczos and LOBPCG are 5 and 29.
  [[nodiscard]] std::int64_t critical_path_tasks() const;
  [[nodiscard]] double critical_path_flops() const;
  [[nodiscard]] double total_flops() const;

  /// Maximum antichain width estimate: peak number of simultaneously ready
  /// tasks under an unbounded-processor greedy schedule.
  [[nodiscard]] std::int64_t max_parallelism() const;

  /// Graphviz dump for small graphs (Fig. 3 reproduction).
  [[nodiscard]] std::string to_dot(std::size_t max_tasks = 2000) const;

private:
  /// depth_first_topological_order() without its check: on a cyclic graph
  /// it stops short, before the tasks a cycle keeps from becoming ready.
  [[nodiscard]] std::vector<TaskId> depth_first_order() const;

  std::vector<Task> tasks_;
  std::vector<std::vector<TaskId>> succ_;
  std::size_t edges_ = 0;
};

} // namespace sts::graph
