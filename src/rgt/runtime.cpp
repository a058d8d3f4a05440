#include "rgt/runtime.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/obs.hpp"
#include "support/escape.hpp"
#include "support/fault.hpp"
#include "support/timer.hpp"

namespace sts::rgt {

namespace {

/// Tracks the launched-but-unfinished task window (peak = max concurrency
/// exposure the analyzer created).
void note_in_flight(std::uint64_t now_in_flight) {
  if (!obs::metrics_enabled()) return;
  static obs::Gauge& g = obs::gauge("rgt.in_flight");
  g.observe(static_cast<std::int64_t>(now_in_flight));
}

/// How long a waiting launcher parks when no task is ready. Completions
/// wake it only at zero in flight, so this bounds how late it notices a
/// newly ready task or a window with room. 50 us measured faster than
/// 1 ms on the Lanczos benchmark (DESIGN.md §10).
constexpr auto kHelpPark = std::chrono::microseconds(50);

} // namespace

const char* to_string(Privilege p) {
  switch (p) {
    case Privilege::kRead: return "read";
    case Privilege::kWrite: return "write";
    case Privilege::kReadWrite: return "read_write";
    case Privilege::kReduce: return "reduce";
  }
  return "?";
}

struct Runtime::TaskRecord {
  std::mutex mutex;
  TaskBody body;
  const char* name = "task";
  std::vector<TaskPtr> successors;
  std::vector<TaskRecord*> dep_seen; // analysis-time dedup, serial access
  std::atomic<std::int32_t> remaining{1}; // sentinel held by the analyzer
  bool finished = false;
};

Runtime::Runtime(Config config)
    : config_([&] {
        config.cpu_workers = std::max(1u, config.cpu_workers);
        return config;
      }()),
      scheduler_({.threads = config_.cpu_workers,
                  .numa_domains = 1,
                  .numa_aware = false}) {}

Runtime::~Runtime() {
  // Must not throw during unwinding: drain() swallows any latched error.
  drain();
}

RegionId Runtime::register_region(std::span<double> storage,
                                  std::string name) {
  RegionState state;
  state.storage = storage;
  state.name = std::move(name);
  state.pieces = 1;
  state.piece_states.resize(1);
  state.instances.resize(config_.cpu_workers + 1);
  state.instance_dirty.assign(config_.cpu_workers + 1, 0);
  regions_.push_back(std::move(state));
  return static_cast<RegionId>(regions_.size() - 1);
}

void Runtime::partition_equal(RegionId region, std::int32_t pieces) {
  STS_EXPECTS(region >= 0 &&
              static_cast<std::size_t>(region) < regions_.size());
  STS_EXPECTS(pieces >= 1);
  RegionState& r = regions_[static_cast<std::size_t>(region)];
  STS_EXPECTS(r.pieces == 1 && r.piece_states.size() == 1);
  STS_EXPECTS(!r.piece_states[0].last_writer &&
              r.piece_states[0].readers_since_write.empty());
  r.pieces = pieces;
  r.piece_states.assign(static_cast<std::size_t>(pieces), PieceState{});
}

void Runtime::add_dependence(const TaskPtr& before, const TaskPtr& after) {
  if (before == after) return;
  // Dedup: `after` is still private to the analyzer thread.
  auto& seen = after->dep_seen;
  if (std::find(seen.begin(), seen.end(), before.get()) != seen.end()) return;
  seen.push_back(before.get());

  // Count the dependency *before* publishing the successor link: once the
  // link is visible the predecessor's completion may decrement at any
  // moment, and it must never observe the pre-increment value (that would
  // release the task early and double-submit it later).
  after->remaining.fetch_add(1, std::memory_order_acq_rel);
  bool pending = false;
  {
    const std::lock_guard<std::mutex> lock(before->mutex);
    if (!before->finished) {
      before->successors.push_back(after);
      pending = true;
    }
  }
  if (!pending) {
    // Predecessor already done; retract the count. The analyzer still holds
    // the sentinel, so this cannot reach zero and submit.
    after->remaining.fetch_sub(1, std::memory_order_acq_rel);
    return;
  }
  ++stats_.dependence_edges;
  static obs::Counter& edges = obs::counter("rgt.dependence_edges");
  edges.add(1);
}

void Runtime::run_body(const TaskPtr& task) {
  if (cancelled_.load(std::memory_order_acquire)) {
    suppressed_.fetch_add(1, std::memory_order_relaxed);
    obs::counter("rgt.tasks_suppressed").add(1);
    obs::instant("rgt:suppressed", "cancel",
                 "{\"task\":\"" + support::json_escape(task->name) + "\"}");
    return;
  }
  const bool timed = obs::task_timing_enabled();
  const std::int64_t t0 = timed ? support::now_ns() : 0;
  try {
    support::fault::check("rgt:task");
    // Outside the pool only the launcher runs tasks (help_while).
    const int w = scheduler_.current_worker();
    TaskContext ctx(this, w >= 0 ? w : static_cast<int>(config_.cpu_workers));
    task->body(ctx);
  } catch (const support::TaskError&) {
    report_error(std::current_exception());
  } catch (const std::exception& e) {
    report_error(
        std::make_exception_ptr(support::TaskError(task->name, e.what())));
  } catch (...) {
    report_error(std::make_exception_ptr(
        support::TaskError(task->name, "unknown exception")));
  }
  if (timed) {
    const std::int64_t t1 = support::now_ns();
    static obs::Histogram& run_hist = obs::histogram("rgt.task_run_ns");
    run_hist.observe(t1 - t0);
    // Named after the launched task, so the trace shows the region-task
    // structure ("spmv piece", "fold", ...) enclosing the kernel span the
    // body publishes.
    obs::span(task->name, "rgt", t0, t1);
  }
}

void Runtime::notify_ready(const TaskPtr& task) {
  if (task->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
  Runtime* rt = this;
  // submit_always: this closure carries the in_flight_ accounting and the
  // successor notifications; a scheduler-level cancellation dropping it
  // would leave wait_all() stuck. run_body() does its own containment.
  scheduler_.submit_always([rt, task]() {
    rt->run_body(task);
    // Successors are notified even when the body failed or was skipped:
    // every launch holds an in_flight_ count, so withholding notifications
    // would leave wait_all() stuck. Downstream bodies are suppressed by the
    // cancelled flag instead.
    std::vector<TaskPtr> succ;
    {
      const std::lock_guard<std::mutex> lock(task->mutex);
      task->finished = true;
      succ.swap(task->successors);
    }
    for (const TaskPtr& s : succ) rt->notify_ready(s);
    rt->on_finished();
  });
}

void Runtime::report_error(std::exception_ptr error) noexcept {
  bool latched = false;
  {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    if (!first_error_) {
      first_error_ = error;
      latched = true;
    }
  }
  cancelled_.store(true, std::memory_order_release);
  if (latched) {
    try {
      obs::counter("rgt.cancellations").add(1);
    } catch (...) {
    }
    obs::instant("rgt:cancel", "cancel");
  }
}

void Runtime::rethrow_and_reset() {
  std::exception_ptr err;
  {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    err = std::exchange(first_error_, nullptr);
  }
  cancelled_.store(false, std::memory_order_release);
  suppressed_.store(0, std::memory_order_relaxed);
  if (err) std::rethrow_exception(err);
}

void Runtime::drain() noexcept {
  // Blocks without helping: this runs in the destructor, possibly during
  // unwinding, where running arbitrary task bodies is the wrong thing.
  for (std::size_t rid = 0; rid < regions_.size(); ++rid) {
    close_reduction_epoch(static_cast<RegionId>(rid));
  }
  {
    std::unique_lock<std::mutex> lock(window_mutex_);
    window_cv_.wait(lock, [&] {
      return in_flight_.load(std::memory_order_acquire) == 0;
    });
  }
  {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    first_error_ = nullptr;
  }
  cancelled_.store(false, std::memory_order_release);
  suppressed_.store(0, std::memory_order_relaxed);
}

void Runtime::help_while(std::uint64_t limit) {
  while (in_flight_.load(std::memory_order_acquire) >= limit) {
    if (scheduler_.try_run_one()) {
      ++stats_.tasks_helped;
      continue;
    }
    std::unique_lock<std::mutex> lock(window_mutex_);
    window_cv_.wait_for(lock, kHelpPark, [&] {
      return in_flight_.load(std::memory_order_acquire) < limit;
    });
  }
}

double* Runtime::instance_for(RegionId region, int worker) {
  RegionState& r = regions_[static_cast<std::size_t>(region)];
  STS_EXPECTS(worker >= 0 &&
              static_cast<std::size_t>(worker) < r.instances.size());
  auto& slot = r.instances[static_cast<std::size_t>(worker)];
  if (!slot) {
    slot = std::make_unique<double[]>(r.storage.size());
    std::memset(slot.get(), 0, r.storage.size() * sizeof(double));
  }
  r.instance_dirty[static_cast<std::size_t>(worker)] = 1;
  return slot.get();
}

std::span<double> TaskContext::reduce_target(RegionId region) {
  Runtime::RegionState& r =
      rt_->regions_[static_cast<std::size_t>(region)];
  return {rt_->instance_for(region, worker_), r.storage.size()};
}

TaskBody Runtime::fold_body(RegionId region) {
  // Adds every dirty instance into the region in slot order and re-zeroes
  // it; runs after the epoch's last reducer.
  return [rt = this, region](TaskContext&) {
    RegionState& reg = rt->regions_[static_cast<std::size_t>(region)];
    for (std::size_t w = 0; w < reg.instances.size(); ++w) {
      if (reg.instance_dirty[w] == 0) continue;
      double* inst = reg.instances[w].get();
      for (std::size_t k = 0; k < reg.storage.size(); ++k) {
        reg.storage[k] += inst[k];
        inst[k] = 0.0;
      }
      reg.instance_dirty[w] = 0;
    }
  };
}

void Runtime::close_reduction_epoch(RegionId region) {
  RegionState& r = regions_[static_cast<std::size_t>(region)];
  if (r.open_reducers.empty()) return;

  auto fold = std::make_shared<TaskRecord>();
  fold->name = "reduction_fold";
  fold->body = fold_body(region);

  for (const TaskPtr& reducer : r.open_reducers) {
    add_dependence(reducer, fold);
  }
  r.open_reducers.clear();
  for (PieceState& ps : r.piece_states) {
    ps.last_writer = fold;
    ps.readers_since_write.clear();
  }
  ++stats_.folds_inserted;
  note_in_flight(in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1);
  ++stats_.tasks_launched;
  notify_ready(fold);
}

void Runtime::analyze_and_wire(const TaskPtr& task,
                               const std::vector<RegionReq>& reqs,
                               bool update_states) {
  for (const RegionReq& req : reqs) {
    STS_EXPECTS(req.region >= 0 &&
                static_cast<std::size_t>(req.region) < regions_.size());
    RegionState& r = regions_[static_cast<std::size_t>(req.region)];
    STS_EXPECTS(req.piece >= -1 && req.piece < r.pieces);

    if (req.priv != Privilege::kReduce) close_reduction_epoch(req.region);

    const std::int32_t p0 = req.piece < 0 ? 0 : req.piece;
    const std::int32_t p1 = req.piece < 0 ? r.pieces : req.piece + 1;
    for (std::int32_t p = p0; p < p1; ++p) {
      PieceState& ps = r.piece_states[static_cast<std::size_t>(p)];
      ++stats_.piece_checks;
      switch (req.priv) {
        case Privilege::kRead:
          if (ps.last_writer) add_dependence(ps.last_writer, task);
          break;
        case Privilege::kWrite:
        case Privilege::kReadWrite:
        case Privilege::kReduce: // first reducer of an epoch behaves like a
                                 // writer against earlier accesses
          if (ps.last_writer) add_dependence(ps.last_writer, task);
          for (const TaskPtr& reader : ps.readers_since_write) {
            add_dependence(reader, task);
          }
          break;
      }
    }
    if (req.priv == Privilege::kReduce) {
      // Reducers commute among themselves: no edges between epoch members.
      r.open_reducers.push_back(task);
    }
  }
  if (update_states) apply_state_updates(task, reqs);
}

void Runtime::apply_state_updates(const TaskPtr& task,
                                  const std::vector<RegionReq>& reqs) {
  for (const RegionReq& req : reqs) {
    RegionState& r = regions_[static_cast<std::size_t>(req.region)];
    const std::int32_t p0 = req.piece < 0 ? 0 : req.piece;
    const std::int32_t p1 = req.piece < 0 ? r.pieces : req.piece + 1;
    for (std::int32_t p = p0; p < p1; ++p) {
      PieceState& ps = r.piece_states[static_cast<std::size_t>(p)];
      switch (req.priv) {
        case Privilege::kRead:
          ps.readers_since_write.push_back(task);
          break;
        case Privilege::kWrite:
        case Privilege::kReadWrite:
          ps.last_writer = task;
          ps.readers_since_write.clear();
          break;
        case Privilege::kReduce:
          break; // epoch membership tracked in open_reducers
      }
    }
  }
}

void Runtime::execute(TaskLaunch launch) {
  STS_EXPECTS(launch.body != nullptr);
  help_while(config_.window);

  auto task = std::make_shared<TaskRecord>();
  task->body = std::move(launch.body);
  task->name = launch.name;

  const support::Timer analysis_timer;
  analyze_and_wire(task, launch.reqs, /*update_states=*/true);
  stats_.analysis_seconds += analysis_timer.seconds();
  ++stats_.tasks_launched;
  note_in_flight(in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1);
  notify_ready(task);
}

void Runtime::index_launch(
    std::int32_t count, const std::function<TaskLaunch(std::int32_t)>& make) {
  // Materialize the whole launch, optionally verify pairwise
  // non-interference, analyze each task against the *pre-launch* state,
  // then apply all state updates. This is the single-analysis shortcut
  // Regent's __demand(__index_launch) provides.
  std::vector<TaskLaunch> launches;
  launches.reserve(static_cast<std::size_t>(count));
  for (std::int32_t i = 0; i < count; ++i) launches.push_back(make(i));

  if (config_.verify_index_launches) verify_noninterference(launches);

  const support::Timer analysis_timer;
  std::vector<TaskPtr> tasks;
  tasks.reserve(launches.size());
  for (TaskLaunch& l : launches) {
    help_while(config_.window);
    auto task = std::make_shared<TaskRecord>();
    task->body = std::move(l.body);
    task->name = l.name;
    analyze_and_wire(task, l.reqs, /*update_states=*/false);
    tasks.push_back(task);
  }
  for (std::size_t i = 0; i < launches.size(); ++i) {
    apply_state_updates(tasks[i], launches[i].reqs);
  }
  stats_.analysis_seconds += analysis_timer.seconds();
  for (const TaskPtr& t : tasks) {
    ++stats_.tasks_launched;
    note_in_flight(in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1);
    notify_ready(t);
  }
}

void Runtime::verify_noninterference(
    const std::vector<TaskLaunch>& launches) {
  // Two requirements interfere if they touch an overlapping piece set of
  // the same region and at least one writes (reduce conflicts with
  // read/write but not with reduce).
  auto writes = [](Privilege p) {
    return p == Privilege::kWrite || p == Privilege::kReadWrite;
  };
  for (std::size_t i = 0; i < launches.size(); ++i) {
    for (std::size_t j = i + 1; j < launches.size(); ++j) {
      for (const RegionReq& a : launches[i].reqs) {
        for (const RegionReq& b : launches[j].reqs) {
          if (a.region != b.region) continue;
          const bool overlap =
              a.piece < 0 || b.piece < 0 || a.piece == b.piece;
          if (!overlap) continue;
          const bool conflict =
              writes(a.priv) || writes(b.priv) ||
              (a.priv == Privilege::kReduce) != (b.priv == Privilege::kReduce);
          if (conflict && !(a.priv == Privilege::kRead &&
                            b.priv == Privilege::kRead)) {
            throw support::Error(
                "index_launch interference between tasks " +
                std::to_string(i) + " and " + std::to_string(j) +
                " on region " +
                regions_[static_cast<std::size_t>(a.region)].name);
          }
        }
      }
    }
  }
}

void Runtime::on_finished() {
  const std::uint64_t before =
      in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  note_in_flight(before - 1);
  // Only the drained state wakes anyone: the blocking waits need zero, and
  // a helping launcher re-checks on its own every kHelpPark.
  if (before == 1) {
    const std::lock_guard<std::mutex> lock(window_mutex_);
    window_cv_.notify_all();
  }
}

void Runtime::wait_all() {
  // Close any open reduction epochs so region storage is authoritative.
  for (std::size_t rid = 0; rid < regions_.size(); ++rid) {
    close_reduction_epoch(static_cast<RegionId>(rid));
  }
  help_while(1);
  rethrow_and_reset();
}

void Runtime::wait_all(std::chrono::milliseconds deadline) {
  for (std::size_t rid = 0; rid < regions_.size(); ++rid) {
    close_reduction_epoch(static_cast<RegionId>(rid));
  }
  {
    // No helping here: a task body run on this thread could outlast the
    // deadline by any amount (a stalled one forever), and the watchdog
    // must fire on time.
    std::unique_lock<std::mutex> lock(window_mutex_);
    const bool quiet = window_cv_.wait_for(lock, deadline, [&] {
      return in_flight_.load(std::memory_order_acquire) == 0;
    });
    if (!quiet) {
      const std::uint64_t pending =
          in_flight_.load(std::memory_order_acquire);
      lock.unlock();
      obs::counter("rgt.watchdog_fired").add(1);
      obs::instant("rgt:watchdog", "watchdog",
                   "{\"in_flight\":" + std::to_string(pending) + "}");
      throw support::TimeoutError(
          "rgt: wait_all deadline (" + std::to_string(deadline.count()) +
          " ms) expired: " + std::to_string(pending) +
          " task(s) in flight, scheduler " +
          scheduler_.diagnostics().to_string());
    }
  }
  rethrow_and_reset();
}

Runtime::Stats Runtime::stats() const { return stats_; }

} // namespace sts::rgt
