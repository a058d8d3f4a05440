// The resident solver service: bounded job queue with admission control, a
// plan cache, K concurrent job slots over partitioned flux worker pools,
// and the job lifecycle
//
//   PENDING -> RUNNING -> DONE | FAILED | CANCELLED
//
// Admission control is immediate-reject: when the queue is full, submit()
// returns a typed `queue_full` outcome — carrying the depth and cap so the
// client can see *how* full — instead of blocking the caller. A draining
// service rejects with `draining`.
//
// Execution is the dispatcher of DESIGN.md §15. The machine is carved into
// `slots` contiguous, NUMA-domain-aligned worker partitions
// (support::topo::partition_cpus); each slot runs one job at a time on a
// pool pinned to its partition, so concurrent jobs never share a domain
// unless slots oversubscribe the machine. Admission order comes from a
// two-level scheduler (svc/dispatch/queue.hpp): strict priority classes
// (interactive > batch) with deficit-round-robin weighted fairness across
// clients inside a class. Per-job quotas (max_workers / max_mem_bytes /
// deadline_ms) are enforced at pool build, plan, and run time
// respectively. A job's worker count is fixed when its pool is built: an
// idle slot never widens another slot's running job.
//
// Cancellation reuses the solver layer's cooperative tokens: a PENDING job
// flips straight to CANCELLED; a RUNNING job gets its token requested,
// and — for flux — its pool's report_task_error path unblocks the driver
// promptly. Solver breakdown (SolverStatus != kOk) and injected faults
// mark the job FAILED without touching the daemon.
//
// Fault site: "svc:job" fires inside a slot's per-job try block
// (poisoning exactly one job).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "flux/scheduler.hpp"
#include "svc/cache.hpp"
#include "svc/dispatch/partition.hpp"
#include "svc/dispatch/queue.hpp"
#include "svc/journal.hpp"
#include "svc/run_spec.hpp"
#include "svc/wire.hpp"

namespace sts::svc {

enum class JobState : std::uint8_t {
  kPending, kRunning, kDone, kFailed, kCancelled
};

[[nodiscard]] const char* to_string(JobState s);

/// Snapshot of one job, safe to serialize outside service locks.
struct JobInfo {
  std::uint64_t id = 0;
  JobState state = JobState::kPending;
  std::string spec_describe;
  std::string error;          // FAILED/CANCELLED detail
  bool cache_hit = false;     // plan served from the cache
  la::index_t block_size = 0; // resolved CSB block size (0 until RUNNING)
  double queue_seconds = 0.0; // submit -> start
  double run_seconds = 0.0;   // start -> terminal
  wire::Json summary;         // solver output (null until terminal)
  [[nodiscard]] bool terminal() const noexcept {
    return state == JobState::kDone || state == JobState::kFailed ||
           state == JobState::kCancelled;
  }
};

/// Wire form shared by the daemon's replies and stsctl's output.
[[nodiscard]] wire::Json to_json(const JobInfo& info);

struct SubmitOutcome {
  bool accepted = false;
  std::uint64_t id = 0;     // valid when accepted
  std::string error;        // "queue_full" | "draining" when rejected
  /// Backpressure context for rejections: how deep the queue was and its
  /// cap, so a rejected client learns more than the bare error name.
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
};

struct ServiceStats {
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t done = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t recovered = 0; // jobs re-admitted from the journal
  bool running_job = false;
  CacheStats cache;
  double job_p50_ms = 0.0;
  double job_p95_ms = 0.0;
  double job_p99_ms = 0.0;
  /// Detected machine topology and how the slot partitions lay over it
  /// (DESIGN.md §14/§15); surfaced by `stsctl stats` so an operator can
  /// see at a glance whether the daemon is actually running NUMA-aware.
  struct Topology {
    unsigned nodes = 1;        // NUMA nodes detected
    unsigned cpus = 1;         // online CPUs detected
    unsigned smt = 1;          // max SMT siblings per physical core
    bool from_sysfs = false;   // real /sys detection vs portable fallback
    unsigned pool_threads = 1; // workers across all slot partitions
    unsigned pool_domains = 1; // NUMA domains covered by the partitions
    std::string affinity;      // "off" | "compact" | "scatter"
  };
  Topology topology;
  /// Dispatcher state (DESIGN.md §15): slot occupancy and per-class queue
  /// depths.
  struct Dispatch {
    unsigned slots = 1;
    std::string policy;        // "fifo" | "fair"
    unsigned running_jobs = 0;
    std::size_t depth_interactive = 0;
    std::size_t depth_batch = 0;
  };
  Dispatch dispatch;
};

[[nodiscard]] wire::Json to_json(const ServiceStats& stats);

class Service {
public:
  struct Config {
    std::size_t queue_capacity = 64;  // STS_QUEUE_CAP
    std::size_t cache_bytes = PlanCache::kDefaultBudget; // STS_CACHE_BYTES
    unsigned threads = 0;             // per-job worker cap; 0 = partition size
    /// Concurrent job slots (STS_SLOTS / `stsd --slots`). The machine is
    /// carved into min(slots, cpus) partitions; slots beyond that share
    /// partitions round-robin (oversubscription).
    unsigned slots = 1;
    /// Queue discipline (STS_POLICY / `stsd --policy`): kFair = priority
    /// classes + DRR (the default), kFifo = the PR 4 single lane.
    dispatch::Policy policy = dispatch::Policy::kFair;
    /// Topology the partitions are carved from; null = the process-wide
    /// support::topo::machine() detection. Injectable so in-process tests
    /// can use sysfs fixtures without touching the process-global cache.
    const support::topo::Machine* machine = nullptr;
    /// Durable job journal (STS_JOURNAL); empty disables crash recovery.
    std::string journal_path;
    /// Directory for per-job solver checkpoints (STS_CKPT_DIR); empty
    /// disables checkpointing. Created on startup if missing.
    std::string ckpt_dir;
    /// Byte budget for the per-job trace ring serving `stsctl trace <job>`
    /// (STS_JOB_TRACE_BYTES); 0 disables per-job capture.
    std::size_t job_trace_bytes = std::size_t{4} << 20;
    /// Capacity/budget/resilience paths from STS_QUEUE_CAP /
    /// STS_CACHE_BYTES / STS_THREADS / STS_SLOTS / STS_POLICY /
    /// STS_JOURNAL / STS_CKPT_DIR / STS_JOB_TRACE_BYTES.
    [[nodiscard]] static Config from_env();
  };

  explicit Service(Config config);
  ~Service(); // drains (cancelling pending jobs) and joins the slot threads

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Admission-controlled enqueue. Validates the spec (throws
  /// support::Error on a bad one — the caller maps that to a bad_request
  /// reply); a full queue or draining service rejects with a typed outcome.
  /// A spec carrying a client_key already seen (this life or a previous
  /// one, via the journal) is deduplicated: the existing job's id is
  /// returned and nothing new is enqueued — what makes client
  /// retry-after-reconnect idempotent.
  SubmitOutcome submit(RunSpec spec);

  /// Snapshot by id; throws support::Error for unknown ids.
  [[nodiscard]] JobInfo status(std::uint64_t id) const;

  /// Blocks until the job is terminal (or `deadline` elapses or `abort`
  /// flips, whichever first) and returns its snapshot.
  JobInfo wait(std::uint64_t id,
               std::chrono::milliseconds deadline = std::chrono::hours(24),
               const std::atomic<bool>* abort = nullptr) const;

  /// Requests cancellation. PENDING jobs flip to CANCELLED immediately;
  /// RUNNING jobs are interrupted at their next poll point (flux: promptly,
  /// via their pool's error path). Returns false for already-terminal jobs.
  bool cancel(std::uint64_t id, const std::string& reason = "cancelled");

  [[nodiscard]] ServiceStats stats() const;

  /// Admitted-work snapshot for `stsctl queue`: the slot partition table,
  /// every RUNNING job with its class/weight/partition, and every PENDING
  /// job with its class/weight/client and time in queue.
  [[nodiscard]] wire::Json queue_snapshot() const;

  /// Graceful drain: stop admitting, cancel PENDING jobs, let RUNNING
  /// jobs finish (or honour a concurrent cancel), then stop the slots.
  /// Idempotent; called by SIGTERM handling and `stsctl shutdown`.
  void drain();

  /// Signals whoever runs the daemon loop that a shutdown was requested
  /// (the `shutdown` op); drain() is then the caller's job so it can
  /// sequence socket teardown first.
  void request_shutdown();
  [[nodiscard]] bool shutdown_requested() const noexcept;
  /// Blocks until request_shutdown() is called.
  void wait_shutdown() const;

  [[nodiscard]] PlanCache& cache() noexcept { return cache_; }
  /// The slot partition table (fixed after construction).
  [[nodiscard]] const std::vector<dispatch::Partition>& partitions()
      const noexcept {
    return partitions_;
  }
  [[nodiscard]] unsigned slot_count() const noexcept {
    return static_cast<unsigned>(slots_.size());
  }

private:
  struct Job {
    std::uint64_t id = 0;
    RunSpec spec;
    JobState state = JobState::kPending;
    std::string error;
    bool cache_hit = false;
    la::index_t block_size = 0;
    std::int64_t submit_ns = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    wire::Json summary;
    support::CancelToken token;
    bool recovered = false; // re-admitted from the journal after a crash
    // Dispatcher state (all under mutex_).
    dispatch::Class cls = dispatch::Class::kBatch;
    unsigned weight = 1;
    std::string fair_client;    // client_key prefix before '/'; "" = anon
    std::int64_t deadline_ns = 0; // absolute; 0 = none
    int slot = -1;              // slot executing this job (-1 until RUNNING)
    flux::Scheduler* active_pool = nullptr; // this job's pool while RUNNING
    std::vector<int> cpus;      // flux pool's CPUs, fixed at pool build
  };

  /// One job slot: a worker partition plus the thread that serves it.
  struct Slot {
    unsigned index = 0;
    dispatch::Partition part;
    Job* running = nullptr;
    std::thread thread;
  };

  void slot_loop(unsigned si);
  void run_job(Job& job, unsigned si);
  void finish_job(Job& job, JobState state, const std::string& error);
  /// Single authority for the svc.queue_depth gauge (and the per-class
  /// dispatch depth gauges): every queue mutation republishes the absolute
  /// sizes under mutex_, so the gauges cannot drift from the queue no
  /// matter which path (submit, cancel, pop, drain, recovery) touched it.
  /// Caller holds mutex_.
  void publish_queue_depth_locked() const;
  [[nodiscard]] JobInfo snapshot_locked(const Job& job) const;
  /// Queue admission shared by submit() and journal replay: stamps the
  /// job's dispatch fields from its spec and pushes it. Caller holds mutex_.
  void enqueue_locked(Job& job);
  /// Replays config_.journal_path, resurrects terminal jobs as queryable
  /// history, re-admits interrupted ones, and opens the journal for append.
  /// Runs in the constructor before the slot threads exist.
  void recover_from_journal();
  /// Best-effort journal append; failures are counted (svc.journal_errors),
  /// never thrown — availability beats durability. Caller holds mutex_.
  void journal_append_locked(const char* event, const Job& job,
                             wire::Json extra = wire::Json());
  [[nodiscard]] std::string ckpt_path_for(std::uint64_t id) const;
  [[nodiscard]] const support::topo::Machine& machine() const noexcept;

  Config config_;
  PlanCache cache_;
  std::vector<dispatch::Partition> partitions_; // carve result (exclusive)

  mutable std::mutex mutex_;
  mutable std::condition_variable job_done_cv_;
  std::condition_variable queue_cv_;
  dispatch::FairQueue queue_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  std::map<std::string, std::uint64_t> key_to_id_; // client_key dedup
  Journal journal_;
  std::uint64_t next_id_ = 1;
  unsigned running_count_ = 0;
  bool draining_ = false;
  bool stop_slots_ = false;
  std::uint64_t submitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t done_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t recovered_ = 0;

  /// The job-trace ring has one process-global capture window; slots
  /// contend for it and a loser simply runs untraced.
  std::atomic<bool> trace_busy_{false};

  mutable std::mutex shutdown_mutex_;
  mutable std::condition_variable shutdown_cv_;
  std::atomic<bool> shutdown_requested_{false};
};

} // namespace sts::svc
