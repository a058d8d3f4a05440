// rgt: a Regent/Legion-style implicit-dataflow runtime.
//
// Regent programs look sequential: `task` functions declare privileges
// (read / write / read-write / reduce) on logical regions, and the runtime
// discovers parallelism by analyzing, in program order, how each launched
// task's region requirements interfere with earlier ones (paper Listing 3).
// rgt reimplements that model:
//
//   * logical regions with one level of disjoint partitioning (equal
//     partitions -- the only kind the paper's solvers use),
//   * program-order dependence analysis on the launching thread (the
//     serial analysis pipeline is the characteristic Legion overhead that
//     makes Regent prefer coarse tasks, paper Fig. 14),
//   * index launches that skip pairwise interference checks within the
//     launch (with an optional debug verification of non-interference),
//   * reduce privileges implemented as per-worker reduction instances
//     folded back on the next conflicting access (paper Fig. 7).
//
// Every launch pays the full analysis: Legion's dynamic tracing, which
// replays a captured iteration's dependences, is not modelled (DESIGN.md
// §10). Regent's -ll:util analysis threads are modelled only by the
// schedule simulator's Regent policy (sim::SimOptions::util_threads).
//
// Execution uses a work-stealing pool (flux::Scheduler) as the CPU
// processor group. While the launching thread waits (wait_all(), a full
// window) it runs ready tasks itself, as a Legion task blocked on a future
// yields its processor to other ready tasks; it acts as worker
// `cpu_workers`.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "flux/scheduler.hpp"
#include "support/error.hpp"

namespace sts::rgt {

using RegionId = std::int32_t;
inline constexpr RegionId kInvalidRegion = -1;

enum class Privilege : std::uint8_t { kRead, kWrite, kReadWrite, kReduce };

[[nodiscard]] const char* to_string(Privilege p);

/// One region requirement of a task launch. piece == -1 addresses the whole
/// region; otherwise a disjoint piece of its (single) partition.
struct RegionReq {
  RegionId region = kInvalidRegion;
  std::int32_t piece = -1;
  Privilege priv = Privilege::kRead;
};

class Runtime;

/// Handed to task bodies at execution time. Bodies with only read/write
/// privileges normally capture raw pointers directly (the analysis already
/// serialized conflicting access); reduce-privilege bodies must fetch their
/// per-worker reduction instance here.
class TaskContext {
public:
  /// Buffer to accumulate into for a region held with Privilege::kReduce.
  /// Distinct concurrent tasks on the same worker share the instance
  /// (reductions commute); the runtime folds instances into the region and
  /// re-zeroes them before the next conflicting reader.
  [[nodiscard]] std::span<double> reduce_target(RegionId region);

  /// Slot of the running thread: a pool worker's index in
  /// [0, cpu_workers), or cpu_workers when the launching thread runs the
  /// task while it waits. Never negative.
  [[nodiscard]] int worker() const noexcept { return worker_; }

private:
  friend class Runtime;
  TaskContext(Runtime* rt, int worker) : rt_(rt), worker_(worker) {}
  Runtime* rt_;
  int worker_;
};

using TaskBody = std::function<void(TaskContext&)>;

/// A single task launch: body + requirements (+ a label for traces/stats).
struct TaskLaunch {
  TaskBody body;
  std::vector<RegionReq> reqs;
  const char* name = "task";
};

class Runtime {
public:
  struct Config {
    unsigned cpu_workers = 2;       // -ll:cpu (0 runs one worker)
    bool verify_index_launches = false;
    /// Maximum launched-but-unfinished tasks before execute() stops
    /// launching and runs ready tasks itself until the count drops below
    /// it; models Legion's bounded scheduling window.
    std::size_t window = 4096;
  };

  struct Stats {
    std::uint64_t tasks_launched = 0;
    std::uint64_t dependence_edges = 0;
    std::uint64_t piece_checks = 0;       // analysis work performed
    std::uint64_t folds_inserted = 0;
    std::uint64_t tasks_helped = 0;       // run by the launcher while waiting
    double analysis_seconds = 0.0;        // time spent in the serial analyzer
  };

  explicit Runtime(Config config);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Registers a logical region backed by caller-owned storage of
  /// `elements` doubles. Storage must outlive the runtime's last task.
  RegionId register_region(std::span<double> storage, std::string name);

  /// Equal-partitions the region into `pieces` disjoint row pieces.
  /// May be called once per region, before any launch touching pieces.
  void partition_equal(RegionId region, std::int32_t pieces);

  /// Launches one task; dependence analysis runs here, in program order.
  void execute(TaskLaunch launch);

  /// Launches `count` tasks produced by `make(i)`, declared non-interfering
  /// (Regent's __demand(__index_launch)): interference among them is not
  /// checked (unless verify_index_launches), only against earlier tasks.
  void index_launch(std::int32_t count,
                    const std::function<TaskLaunch(std::int32_t)>& make);

  /// Returns once all launched tasks (and pending folds) completed,
  /// running ready tasks on the calling thread meanwhile. If a task body
  /// threw, the first failure is rethrown here as a support::TaskError
  /// naming the failing task, the error state is reset, and the runtime
  /// stays usable for subsequent launches.
  void wait_all();

  /// Bounded wait_all: throws support::TimeoutError carrying the in-flight
  /// task count and the worker pool's queue depths if the runtime has not
  /// drained within `deadline`. Blocks without running tasks, since a task
  /// body run here could overrun the deadline by any amount.
  void wait_all(std::chrono::milliseconds deadline);

  /// True between the first task failure and the wait_all that consumes it.
  /// While cancelled, bodies of still-pending tasks are skipped (their
  /// dependence bookkeeping still runs so the runtime drains).
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] unsigned cpu_workers() const noexcept {
    return config_.cpu_workers;
  }

private:
  friend class TaskContext;

  struct TaskRecord;
  using TaskPtr = std::shared_ptr<TaskRecord>;

  struct PieceState {
    TaskPtr last_writer;
    std::vector<TaskPtr> readers_since_write;
  };

  struct RegionState {
    std::span<double> storage;
    std::string name;
    std::int32_t pieces = 1; // 1 == unpartitioned
    std::vector<PieceState> piece_states; // size == pieces
    // Open reduction epoch (whole-region granularity, see DESIGN.md):
    std::vector<TaskPtr> open_reducers;
    // One slot per worker plus the launcher's (TaskContext::worker()).
    std::vector<std::unique_ptr<double[]>> instances; // lazy
    // A byte per slot, not vector<bool>: slots are set concurrently and
    // must not share a word.
    std::vector<std::uint8_t> instance_dirty;
  };

  void analyze_and_wire(const TaskPtr& task,
                        const std::vector<RegionReq>& reqs,
                        bool update_states);
  void apply_state_updates(const TaskPtr& task,
                           const std::vector<RegionReq>& reqs);
  void close_reduction_epoch(RegionId region);
  void add_dependence(const TaskPtr& before, const TaskPtr& after);
  /// Drops one pending-dependency count; submits the task when it hits 0.
  void notify_ready(const TaskPtr& task);
  void run_body(const TaskPtr& task);
  void report_error(std::exception_ptr error) noexcept;
  void rethrow_and_reset();
  void drain() noexcept;
  void on_finished();
  /// Runs ready tasks on the launching thread while `limit` or more tasks
  /// are in flight, parking briefly whenever none is ready.
  void help_while(std::uint64_t limit);
  [[nodiscard]] TaskBody fold_body(RegionId region);
  void verify_noninterference(const std::vector<TaskLaunch>& launches);
  double* instance_for(RegionId region, int worker);

  Config config_;
  std::vector<RegionState> regions_;

  std::atomic<std::uint64_t> in_flight_{0};
  std::mutex window_mutex_;
  std::condition_variable window_cv_;

  std::atomic<bool> cancelled_{false};
  std::atomic<std::uint64_t> suppressed_{0};
  mutable std::mutex error_mutex_;
  std::exception_ptr first_error_;

  Stats stats_;

  // Declared last so it is destroyed first: its destructor joins the
  // workers, and a worker can still be inside on_finished() (taking
  // window_mutex_) after wait_all() has seen the last completion.
  flux::Scheduler scheduler_;
};

} // namespace sts::rgt
