// flux: an asynchronous many-task runtime in the style of HPX.
//
// The paper evaluates HPX's futures + dataflow model; HPX itself is not
// buildable offline, so flux reimplements the subset the paper exercises
// (Listing 2): lightweight tasks on a work-stealing scheduler, futures with
// continuations, `async`, `dataflow`, `unwrapping`, and NUMA-domain
// scheduling hints. This header is the execution engine; future.hpp and
// dataflow.hpp provide the programming model on top.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "flux/task.hpp"
#include "flux/ws_deque.hpp"
#include "support/topology.hpp"

namespace sts::flux {

/// Worker-to-CPU pinning policy (STS_AFFINITY=compact|scatter|off).
///   kOff     - no pinning; workers float (the historical behaviour).
///   kCompact - fill NUMA node 0's CPUs first, then node 1, ... — workers
///              of one domain share a node and its memory controller.
///   kScatter - round-robin workers across nodes — maximum aggregate
///              bandwidth for few threads, at the cost of locality.
enum class Affinity : std::uint8_t { kOff, kCompact, kScatter };

[[nodiscard]] const char* to_string(Affinity a);

/// Work-stealing thread pool.
///
// Each worker owns a lock-free Chase-Lev ring (own pushes/pops at the
// bottom, thieves take from the top -- Cilk-style, oldest-first stealing)
// backed by a slot pool, so the worker-local spawn/pop/steal fast path
// takes no lock and allocates nothing for closures that fit Task's inline
// buffer. External submissions (and ring overflow) go through a small
// mutex-protected per-worker inbox. Workers that find no work sleep on a
// condition variable; submissions wake at most one sleeper, and only when
// a sleeper actually exists.
class Scheduler {
public:
  struct Config {
    unsigned threads = std::thread::hardware_concurrency();
    /// Logical NUMA domains the workers are split into. Scheduling hints
    /// address a domain; stealing prefers same-domain victims first when
    /// `numa_aware` is set (the paper's "NUMA-aware scheduling" that gave
    /// HPX ~50% on EPYC).
    unsigned numa_domains = 1;
    bool numa_aware = false;
    /// Worker pinning policy. With kCompact/kScatter each worker is bound
    /// to one CPU of `machine` via sched_setaffinity; a failed bind is
    /// counted (flux.pin_failures) and the worker floats — never fatal.
    Affinity affinity = Affinity::kOff;
    /// Topology the pinning map is built from; null means the process-wide
    /// support::topo::machine() detection.
    const support::topo::Machine* machine = nullptr;
    /// Explicit worker partition: when non-empty, worker i is pinned to
    /// cpus[i % cpus.size()] (unless affinity is kOff) and the domain map is
    /// derived from those CPUs' NUMA nodes — the pool runs on exactly this
    /// slice of the machine instead of assuming workers 0..N-1 own it. Set
    /// by the stsd dispatcher, one partition per job slot (DESIGN.md §15).
    std::vector<int> cpus{};

    /// STS_AFFINITY=compact|scatter|off. Unset defaults to kCompact when
    /// the detected machine has more than one NUMA node (the paper's EPYC
    /// configuration wants pinning on by default) and kOff otherwise.
    [[nodiscard]] static Affinity affinity_from_env();

    /// Topology-derived configuration: `threads` workers (0 = hardware),
    /// numa_domains = detected node count clamped to the worker count,
    /// numa_aware when > 1, affinity from STS_AFFINITY. STS_NUMA=off
    /// collapses all of it back to 1 flat domain, no pinning.
    [[nodiscard]] static Config topology_aware(unsigned threads);

    /// Partition-restricted configuration: one worker per CPU of `cpus`,
    /// numa_domains = distinct NUMA nodes covered by the partition (so a
    /// single-node slice steals only locally and flux.steals_remote stays
    /// 0), pinning on by default (STS_AFFINITY=off disables; STS_NUMA=off
    /// flattens domains).
    [[nodiscard]] static Config for_partition(
        std::vector<int> cpus, const support::topo::Machine* machine);
  };

  struct Stats {
    /// Tasks run, by workers and by threads helping inside
    /// future::get(&sched) (try_run_one()).
    std::uint64_t executed = 0;
    std::uint64_t steals = 0;
    /// Hierarchical steal tiers (DESIGN.md §14): victim shares the thief's
    /// physical core / shares its NUMA domain / lives in another domain.
    std::uint64_t steals_sibling = 0;
    std::uint64_t steals_local = 0;
    std::uint64_t steals_remote = 0;
  };

  explicit Scheduler(Config config);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Enqueues `fn`. `domain_hint` < 0 means "anywhere"; otherwise the task
  /// is pushed to a worker inside that domain. Safe from any thread; a
  /// worker submitting hint-less work pushes to its own lock-free ring
  /// (work-first scheduling).
  void submit(Task fn, int domain_hint = -1);

  /// Like submit(), but the task still runs after cancellation. For closures
  /// that complete a promise (async/dataflow internals): dropping them would
  /// strand their future, so they run regardless and are expected to observe
  /// cancelled() themselves and complete the promise exceptionally.
  void submit_always(Task fn, int domain_hint = -1);

  /// Blocks until every submitted task (including tasks submitted by
  /// running tasks) has finished. Must be called from a non-worker thread.
  /// If a task failed since the last wait, rethrows the first failure and
  /// resets the error state, leaving the scheduler reusable.
  void wait_for_quiescence();

  /// Bounded wait: like wait_for_quiescence(), but throws
  /// support::TimeoutError carrying outstanding-task counts and per-worker
  /// queue depths if the runtime has not drained within `deadline`.
  void wait_for_quiescence(std::chrono::milliseconds deadline);

  /// Runs one pending task on the calling thread if any is available.
  /// Used by future::get() to help instead of blocking a worker.
  bool try_run_one();

  /// Latches `error` as the first task failure (later reports are dropped)
  /// and cancels remaining work: queued task bodies are skipped, only their
  /// accounting runs, so the scheduler drains instead of hanging. Called by
  /// the worker loop and by dataflow/async when a task body throws.
  void report_task_error(std::exception_ptr error) noexcept;

  /// True between the first task failure and the wait that consumes it.
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Throws the latched failure (without consuming it) if cancelled. Used
  /// by future waits so external threads unblock on cancellation.
  void rethrow_if_cancelled();

  /// Stall snapshot for watchdog reporting.
  struct QueueDiagnostics {
    std::uint64_t outstanding = 0;
    std::vector<std::size_t> queue_depths; // one entry per worker
    [[nodiscard]] std::string to_string() const;
  };
  [[nodiscard]] QueueDiagnostics diagnostics() const;

  [[nodiscard]] unsigned thread_count() const noexcept {
    return config_.threads;
  }
  [[nodiscard]] unsigned domain_count() const noexcept {
    return config_.numa_domains;
  }
  /// Domain of worker `w`. Unpinned workers are split into *contiguous*
  /// ranges (workers [d*per, (d+1)*per) form domain d) — the old
  /// round-robin `w % domains` mapping would scatter each domain's workers
  /// across sockets once pinning exists. Pinned workers take the NUMA node
  /// of their CPU, so the domain a task is hinted to is the node whose
  /// memory its stripe was first-touched into.
  [[nodiscard]] unsigned domain_of_worker(unsigned w) const noexcept {
    return worker_domain_[w];
  }
  /// CPU worker `w` is pinned to, or -1 when unpinned.
  [[nodiscard]] int cpu_of_worker(unsigned w) const noexcept {
    return worker_cpu_.empty() ? -1 : worker_cpu_[w];
  }
  [[nodiscard]] Affinity affinity() const noexcept {
    return config_.affinity;
  }

  /// Index of the calling worker thread within *this* scheduler, or -1 for
  /// external threads.
  [[nodiscard]] int current_worker() const noexcept;

  /// Aggregated execution statistics (racy reads are fine: used after
  /// quiescence or for coarse reporting).
  [[nodiscard]] Stats stats() const;

  /// Per-worker ring capacity; a worker with this many queued spawns
  /// overflows into its (locked) inbox rather than failing.
  static constexpr std::uint32_t kRingCapacity = 4096;

private:
  struct QueuedTask {
    Task fn;
    bool always_run = false; // exempt from drop-on-cancel (see submit_always)
    std::int64_t enqueue_ns = 0; // stamped only while metrics are enabled
  };

  struct Worker {
    TaskRing ring{kRingCapacity};        // lock-free; owner-push, any-steal
    SlotPool<QueuedTask> pool{kRingCapacity}; // payload cells for the ring
    std::mutex inbox_mutex;
    std::deque<QueuedTask> inbox; // external submissions + ring overflow
    std::uint64_t executed = 0;
    std::uint64_t steals = 0;
    std::uint64_t steals_by_tier[3] = {0, 0, 0}; // sibling/local/remote
  };

  /// Steal tier of (thief, victim): 0 = same physical core (SMT sibling),
  /// 1 = same NUMA domain, 2 = remote domain.
  [[nodiscard]] unsigned steal_tier(unsigned thief, unsigned victim) const;
  void build_placement();
  /// Fills placement row `w` (cpu/core/domain + domain membership) from
  /// `cpu_id` looked up in the configured machine (explicit partitions).
  void assign_cpu_slot(unsigned w, int cpu_id);
  void pin_self(unsigned index) const;
  void worker_loop(unsigned index);
  void enqueue(QueuedTask task, int domain_hint);
  void wake_one();
  bool pop_own(unsigned index, QueuedTask& out);
  bool steal(unsigned thief, QueuedTask& out);
  bool take_from(Worker& w, QueuedTask& out);
  void run_task(QueuedTask& task);
  void on_task_done();
  void rethrow_and_reset();
  void drain() noexcept;

  Config config_;
  // Workers and placement tables are built once in the constructor, before
  // any worker thread starts, and are read-only from then on.
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::vector<unsigned> worker_domain_;           // worker -> domain
  std::vector<int> worker_cpu_;                   // worker -> cpu; empty = unpinned
  std::vector<int> worker_core_;                  // worker -> core key; -1 unknown
  std::vector<std::vector<unsigned>> domain_workers_; // domain -> members

  std::atomic<std::uint64_t> outstanding_{0};
  /// Tasks run through try_run_one() by threads outside the pool (workers
  /// count their own in Worker::executed).
  std::atomic<std::uint64_t> helper_executed_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<unsigned> next_worker_{0};
  std::atomic<int> sleepers_{0};

  std::atomic<bool> cancelled_{false};
  mutable std::mutex error_mutex_;
  std::exception_ptr first_error_;

  std::mutex sleep_mutex_;
  std::condition_variable work_available_;
  std::condition_variable quiescent_;
};

/// Scope guard for drivers running on a scheduler that outlives them (a
/// shared service pool): if the driver unwinds mid-solve, the destructor
/// waits for quiescence — so no in-flight task can touch the driver's dying
/// state — and swallows the scheduler's latched error (the unwinding
/// exception is the one the caller should see), leaving the pool reusable.
/// On the normal path, call dismiss() and wait_for_quiescence() yourself so
/// task failures still propagate.
class QuiesceOnExit {
public:
  explicit QuiesceOnExit(Scheduler& sched) noexcept : sched_(sched) {}
  ~QuiesceOnExit() {
    if (dismissed_) return;
    try {
      sched_.wait_for_quiescence();
    } catch (...) { // latched error consumed; the in-flight exception wins
    }
  }
  QuiesceOnExit(const QuiesceOnExit&) = delete;
  QuiesceOnExit& operator=(const QuiesceOnExit&) = delete;
  void dismiss() noexcept { dismissed_ = true; }

private:
  Scheduler& sched_;
  bool dismissed_ = false;
};

} // namespace sts::flux
