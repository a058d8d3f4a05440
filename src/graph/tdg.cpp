#include "graph/tdg.hpp"

#include <algorithm>
#include <sstream>

namespace sts::graph {

const char* to_string(KernelKind k) {
  switch (k) {
    case KernelKind::kSpMV: return "spmv";
    case KernelKind::kSpMM: return "spmm";
    case KernelKind::kZero: return "zero";
    case KernelKind::kXY: return "xy";
    case KernelKind::kXTY: return "xty";
    case KernelKind::kReduce: return "reduce";
    case KernelKind::kAxpy: return "axpy";
    case KernelKind::kScale: return "scale";
    case KernelKind::kDotPartial: return "dot";
    case KernelKind::kNorm: return "norm";
    case KernelKind::kOrtho: return "ortho";
    case KernelKind::kConvCheck: return "conv";
    case KernelKind::kSpTRSV: return "sptrsv";
    case KernelKind::kOther: return "other";
  }
  return "?";
}

std::string task_label(const Task& task) {
  std::string label = to_string(task.kind);
  if (task.bi >= 0 && task.bj >= 0) {
    label += "[" + std::to_string(task.bi) + "," + std::to_string(task.bj) +
             "]";
  } else if (task.bi >= 0) {
    label += "[" + std::to_string(task.bi) + "]";
  }
  return label;
}

TaskId Tdg::add_task(Task task) {
  tasks_.push_back(std::move(task));
  succ_.emplace_back();
  return static_cast<TaskId>(tasks_.size() - 1);
}

void Tdg::add_edge(TaskId from, TaskId to) {
  STS_EXPECTS(from >= 0 && static_cast<std::size_t>(from) < tasks_.size());
  STS_EXPECTS(to >= 0 && static_cast<std::size_t>(to) < tasks_.size());
  STS_EXPECTS(from != to);
  succ_[static_cast<std::size_t>(from)].push_back(to);
  ++edges_;
}

std::vector<std::int32_t> Tdg::indegrees() const {
  std::vector<std::int32_t> indeg(tasks_.size(), 0);
  // Duplicate edges between the same pair count once; executors decrement
  // once per unique predecessor. last_pred[v] is the last task whose edge
  // to v was counted, so a repeat of that edge is skipped.
  std::vector<TaskId> last_pred(tasks_.size(), -1);
  for (std::size_t u = 0; u < succ_.size(); ++u) {
    const auto pred = static_cast<TaskId>(u);
    for (TaskId v : succ_[u]) {
      TaskId& last = last_pred[static_cast<std::size_t>(v)];
      if (last == pred) continue;
      last = pred;
      ++indeg[static_cast<std::size_t>(v)];
    }
  }
  return indeg;
}

bool Tdg::is_acyclic() const {
  return depth_first_order().size() == tasks_.size();
}

std::vector<TaskId> Tdg::depth_first_topological_order() const {
  std::vector<TaskId> order = depth_first_order();
  STS_ENSURES(order.size() == tasks_.size()); // fails if cyclic
  return order;
}

std::vector<TaskId> Tdg::depth_first_order() const {
  // Iterative DFS post-order on the reversed graph is equivalent to a DFS
  // topological order; we emit a task once all its predecessors were
  // emitted, exploring successors depth-first from each root. Tasks on or
  // behind a cycle never become ready, so the order is then short.
  std::vector<std::int32_t> indeg = indegrees();
  std::vector<TaskId> order;
  order.reserve(tasks_.size());
  std::vector<TaskId> stack;
  for (std::size_t i = tasks_.size(); i-- > 0;) {
    if (indeg[i] == 0) stack.push_back(static_cast<TaskId>(i));
  }
  // A duplicate edge must only decrement once: `unique` holds the distinct
  // successors of the popped task in first-occurrence order, found with the
  // same last-predecessor stamps as indegrees() (each task pops once).
  std::vector<TaskId> last_pred(tasks_.size(), -1);
  std::vector<TaskId> unique;
  while (!stack.empty()) {
    const TaskId u = stack.back();
    stack.pop_back();
    order.push_back(u);
    unique.clear();
    for (TaskId v : succ_[static_cast<std::size_t>(u)]) {
      TaskId& last = last_pred[static_cast<std::size_t>(v)];
      if (last == u) continue;
      last = u;
      unique.push_back(v);
    }
    // Push in reverse so the first-declared successor is explored first.
    for (std::size_t k = unique.size(); k-- > 0;) {
      const TaskId v = unique[k];
      if (--indeg[static_cast<std::size_t>(v)] == 0) stack.push_back(v);
    }
  }
  return order;
}

std::int64_t Tdg::critical_path_tasks() const {
  const std::vector<TaskId> order = depth_first_topological_order();
  std::vector<std::int64_t> depth(tasks_.size(), 1);
  std::int64_t best = tasks_.empty() ? 0 : 1;
  for (TaskId u : order) {
    for (TaskId v : succ_[static_cast<std::size_t>(u)]) {
      depth[static_cast<std::size_t>(v)] =
          std::max(depth[static_cast<std::size_t>(v)],
                   depth[static_cast<std::size_t>(u)] + 1);
      best = std::max(best, depth[static_cast<std::size_t>(v)]);
    }
  }
  return best;
}

double Tdg::critical_path_flops() const {
  const std::vector<TaskId> order = depth_first_topological_order();
  std::vector<double> cost(tasks_.size());
  double best = 0.0;
  for (TaskId u : order) {
    cost[static_cast<std::size_t>(u)] +=
        tasks_[static_cast<std::size_t>(u)].flops;
    best = std::max(best, cost[static_cast<std::size_t>(u)]);
    for (TaskId v : succ_[static_cast<std::size_t>(u)]) {
      cost[static_cast<std::size_t>(v)] =
          std::max(cost[static_cast<std::size_t>(v)],
                   cost[static_cast<std::size_t>(u)]);
    }
  }
  return best;
}

double Tdg::total_flops() const {
  double total = 0.0;
  for (const Task& t : tasks_) total += t.flops;
  return total;
}

std::int64_t Tdg::max_parallelism() const {
  // Level-synchronous BFS: width = max number of tasks sharing the same
  // earliest level.
  const std::vector<TaskId> order = depth_first_topological_order();
  std::vector<std::int32_t> level(tasks_.size(), 0);
  std::int32_t max_level = 0;
  for (TaskId u : order) {
    for (TaskId v : succ_[static_cast<std::size_t>(u)]) {
      level[static_cast<std::size_t>(v)] =
          std::max(level[static_cast<std::size_t>(v)],
                   level[static_cast<std::size_t>(u)] + 1);
      max_level = std::max(max_level, level[static_cast<std::size_t>(v)]);
    }
  }
  std::vector<std::int64_t> width(static_cast<std::size_t>(max_level) + 1, 0);
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    ++width[static_cast<std::size_t>(level[i])];
  }
  return width.empty() ? 0 : *std::max_element(width.begin(), width.end());
}

std::string Tdg::to_dot(std::size_t max_tasks) const {
  std::ostringstream os;
  os << "digraph tdg {\n  rankdir=TB;\n";
  const std::size_t n = std::min(tasks_.size(), max_tasks);
  for (std::size_t i = 0; i < n; ++i) {
    os << "  t" << i << " [label=\"" << to_string(tasks_[i].kind);
    if (tasks_[i].bi >= 0) {
      os << " (" << tasks_[i].bi;
      if (tasks_[i].bj >= 0) os << "," << tasks_[i].bj;
      os << ")";
    }
    os << "\"];\n";
  }
  for (std::size_t u = 0; u < n; ++u) {
    for (TaskId v : succ_[u]) {
      if (static_cast<std::size_t>(v) < n) {
        os << "  t" << u << " -> t" << v << ";\n";
      }
    }
  }
  os << "}\n";
  return os.str();
}

} // namespace sts::graph
