#include "flux/scheduler.hpp"

#ifdef __linux__
#include <sched.h>
#endif

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>
#include <utility>

#include "obs/obs.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/escape.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace sts::flux {

namespace {
// Which scheduler (if any) the current thread is a worker of, and its index.
thread_local const Scheduler* tls_scheduler = nullptr;
thread_local int tls_worker_index = -1;

// Telemetry handles, resolved once; the registry outlives every scheduler.
obs::Counter& steal_counter() {
  static obs::Counter& c = obs::counter("flux.steals");
  return c;
}
obs::Counter& cross_domain_steal_counter() {
  static obs::Counter& c = obs::counter("flux.cross_domain_steals");
  return c;
}
// Per-tier steal counters for the hierarchical victim order: the victim
// shared the thief's physical core, its NUMA domain, or neither.
obs::Counter& tier_steal_counter(unsigned tier) {
  static obs::Counter* tiers[3] = {&obs::counter("flux.steals_sibling"),
                                   &obs::counter("flux.steals_local"),
                                   &obs::counter("flux.steals_remote")};
  return *tiers[tier];
}
obs::Counter& pin_failure_counter() {
  static obs::Counter& c = obs::counter("flux.pin_failures");
  return c;
}
obs::Counter& executed_counter() {
  static obs::Counter& c = obs::counter("flux.tasks_executed");
  return c;
}
obs::Histogram& queue_depth_histogram() {
  static obs::Histogram& h = obs::histogram("flux.queue_depth");
  return h;
}
obs::Histogram& task_wait_histogram() {
  static obs::Histogram& h = obs::histogram("flux.task_wait_ns");
  return h;
}
obs::Histogram& task_run_histogram() {
  static obs::Histogram& h = obs::histogram("flux.task_run_ns");
  return h;
}
} // namespace

const char* to_string(Affinity a) {
  switch (a) {
    case Affinity::kCompact: return "compact";
    case Affinity::kScatter: return "scatter";
    case Affinity::kOff: break;
  }
  return "off";
}

Affinity Scheduler::Config::affinity_from_env() {
  const std::string v = support::env_string("STS_AFFINITY", "");
  if (v == "compact") return Affinity::kCompact;
  if (v == "scatter") return Affinity::kScatter;
  if (v == "off" || v == "0") return Affinity::kOff;
  // Unset (or unrecognised): pin by default only where it matters — a
  // multi-node machine, where floating workers defeat first-touch placement.
  return support::topo::machine().node_count() > 1 ? Affinity::kCompact
                                                   : Affinity::kOff;
}

Scheduler::Config Scheduler::Config::topology_aware(unsigned threads) {
  Config c;
  c.threads = threads != 0 ? threads
                           : std::max(1u, std::thread::hardware_concurrency());
  if (support::topo::numa_disabled()) {
    // STS_NUMA=off: one flat domain, no pinning — the historical behaviour.
    return c;
  }
  c.numa_domains = support::topo::effective_domains(c.threads);
  c.numa_aware = c.numa_domains > 1;
  c.machine = &support::topo::machine();
  c.affinity = affinity_from_env();
  return c;
}

Scheduler::Config Scheduler::Config::for_partition(
    std::vector<int> cpus, const support::topo::Machine* machine) {
  Config c;
  c.machine = machine != nullptr ? machine : &support::topo::machine();
  if (cpus.empty()) { // empty partition: the whole machine
    for (const support::topo::Cpu& cpu : c.machine->cpus) {
      cpus.push_back(cpu.id);
    }
  }
  c.threads = std::max<unsigned>(1u, static_cast<unsigned>(cpus.size()));
  std::set<int> nodes;
  for (int id : cpus) {
    const support::topo::Cpu* cpu = c.machine->find_cpu(id);
    nodes.insert(cpu != nullptr ? cpu->node : 0);
  }
  c.cpus = std::move(cpus);
  if (!support::topo::numa_disabled()) {
    c.numa_domains = std::clamp(static_cast<unsigned>(nodes.size()), 1u,
                                c.threads);
    c.numa_aware = c.numa_domains > 1;
  }
  // A partition is *enforced* by pinning — unpinned workers would float
  // onto other slots' CPUs and partitioning would be fiction — so default
  // on; STS_AFFINITY=off still opts the whole process out (constrained
  // hosts where binds fail are already handled per-bind, non-fatally).
  const std::string v = support::env_string("STS_AFFINITY", "");
  c.affinity = (v == "off" || v == "0") ? Affinity::kOff : Affinity::kCompact;
  return c;
}

Scheduler::Scheduler(Config config) : config_(std::move(config)) {
  // Pre-register the steal counters so a metrics dump lists them even for a
  // run that never stole (a zero row beats an absent one when diffing).
  steal_counter();
  cross_domain_steal_counter();
  config_.threads = std::max(1u, config_.threads);
  config_.numa_domains =
      std::clamp(config_.numa_domains, 1u, config_.threads);
  build_placement();
  workers_.reserve(config_.threads);
  for (unsigned i = 0; i < config_.threads; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(config_.threads);
  for (unsigned i = 0; i < config_.threads; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

void Scheduler::build_placement() {
  const unsigned threads = config_.threads;
  const unsigned domains = config_.numa_domains;
  worker_domain_.assign(threads, 0);
  worker_core_.assign(threads, -1);
  worker_cpu_.clear();
  domain_workers_.assign(domains, {});

  if (!config_.cpus.empty() && config_.affinity != Affinity::kOff) {
    // Explicit partition: worker w takes cpus[w % |cpus|] (oversubscription
    // wraps, matching the order-table path below) and the domain map falls
    // out of those CPUs' nodes. assign_cpu_slot records membership too.
    worker_cpu_.assign(threads, -1);
    for (unsigned w = 0; w < threads; ++w) {
      assign_cpu_slot(w, config_.cpus[w % config_.cpus.size()]);
    }
    return;
  }

  if (config_.affinity != Affinity::kOff) {
    const support::topo::Machine& m =
        config_.machine != nullptr ? *config_.machine
                                   : support::topo::machine();
    // CPU assignment order. Compact fills node 0's CPUs core-by-core before
    // touching node 1; scatter deals CPUs round-robin across nodes. Either
    // way worker w gets order[w % |order|] — oversubscription wraps.
    std::vector<const support::topo::Cpu*> order;
    if (config_.affinity == Affinity::kCompact) {
      std::vector<std::size_t> node_of(m.cpus.size(), 0);
      for (std::size_t i = 0; i < m.cpus.size(); ++i) {
        for (std::size_t d = 0; d < m.nodes.size(); ++d) {
          if (m.nodes[d].id == m.cpus[i].node) node_of[i] = d;
        }
        order.push_back(&m.cpus[i]);
      }
      std::sort(order.begin(), order.end(),
                [&](const support::topo::Cpu* a, const support::topo::Cpu* b) {
                  const std::size_t na = node_of[static_cast<std::size_t>(
                      a - m.cpus.data())];
                  const std::size_t nb = node_of[static_cast<std::size_t>(
                      b - m.cpus.data())];
                  if (na != nb) return na < nb;
                  if (a->core != b->core) return a->core < b->core;
                  return a->id < b->id;
                });
    } else { // kScatter: node 0 cpu 0, node 1 cpu 0, ..., node 0 cpu 1, ...
      for (std::size_t i = 0; i < m.cpus_per_node(); ++i) {
        for (const support::topo::Node& node : m.nodes) {
          if (i < node.cpus.size()) order.push_back(m.find_cpu(node.cpus[i]));
        }
      }
    }
    if (!order.empty()) {
      worker_cpu_.assign(threads, -1);
      for (unsigned w = 0; w < threads; ++w) {
        const support::topo::Cpu* cpu = order[w % order.size()];
        worker_cpu_[w] = cpu->id;
        worker_core_[w] = cpu->core;
        // Domain = index of the cpu's node, folded onto the configured
        // domain count (fewer domains than nodes when thread-clamped).
        unsigned node_index = 0;
        for (std::size_t d = 0; d < m.nodes.size(); ++d) {
          if (m.nodes[d].id == cpu->node) {
            node_index = static_cast<unsigned>(d);
          }
        }
        worker_domain_[w] = node_index % domains;
      }
    }
  }
  if (worker_cpu_.empty()) {
    // Unpinned: contiguous ranges, workers [d*per, (d+1)*per) form domain d.
    const unsigned per = (threads + domains - 1) / domains;
    for (unsigned w = 0; w < threads; ++w) worker_domain_[w] = w / per;
  }

  for (unsigned w = 0; w < threads; ++w) {
    const unsigned d = worker_domain_[w];
    domain_workers_[d].push_back(w);
  }
}

void Scheduler::assign_cpu_slot(unsigned w, int cpu_id) {
  const support::topo::Machine& m = config_.machine != nullptr
                                        ? *config_.machine
                                        : support::topo::machine();
  worker_cpu_[w] = cpu_id;
  unsigned node_index = 0;
  if (const support::topo::Cpu* cpu = m.find_cpu(cpu_id)) {
    worker_core_[w] = cpu->core;
    for (std::size_t d = 0; d < m.nodes.size(); ++d) {
      if (m.nodes[d].id == cpu->node) node_index = static_cast<unsigned>(d);
    }
  }
  const unsigned domain = node_index % config_.numa_domains;
  worker_domain_[w] = domain;
  domain_workers_[domain].push_back(w);
}

void Scheduler::pin_self(unsigned index) const {
  if (worker_cpu_.empty() || worker_cpu_[index] < 0) return;
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(worker_cpu_[index]), &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    // Bind failure (cgroup cpuset, offline cpu, fixture topology wider than
    // the real machine): the worker floats; count it, never fail.
    pin_failure_counter().add(1);
  }
#endif
}

Scheduler::~Scheduler() {
  // A throwing wait here during exception unwinding would std::terminate;
  // drain() swallows any still-latched error instead.
  drain();
  stopping_.store(true, std::memory_order_seq_cst);
  // The empty critical section orders the store against any worker between
  // its predicate check and its wait, so the broadcast cannot be lost.
  { const std::lock_guard<std::mutex> lock(sleep_mutex_); }
  work_available_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void Scheduler::submit(Task fn, int domain_hint) {
  enqueue({std::move(fn), /*always_run=*/false}, domain_hint);
}

void Scheduler::submit_always(Task fn, int domain_hint) {
  enqueue({std::move(fn), /*always_run=*/true}, domain_hint);
}

void Scheduler::enqueue(QueuedTask task, int domain_hint) {
  STS_EXPECTS(static_cast<bool>(task.fn));
  const bool metered = obs::metrics_enabled();
  if (metered) task.enqueue_ns = support::now_ns();
  // seq_cst: this increment is half of the Dekker handshake with a worker
  // registering as a sleeper (see worker_loop / wake_one).
  outstanding_.fetch_add(1, std::memory_order_seq_cst);

  std::size_t depth = 0;
  if (tls_scheduler == this && domain_hint < 0) {
    // A worker spawning a child keeps it local: work-first scheduling, the
    // property that gives task runtimes their cache locality. Fast path:
    // pool cell + lock-free ring push, no mutex, no allocation beyond the
    // closure itself.
    Worker& w = *workers_[static_cast<unsigned>(tls_worker_index)];
    std::uint32_t idx = 0;
    bool queued = false;
    if (w.pool.acquire(idx)) {
      w.pool[idx] = std::move(task);
      if (w.ring.push(idx)) {
        queued = true;
      } else {
        // Stale-top spurious full; take the slow path instead.
        task = std::move(w.pool[idx]);
        w.pool.release(idx);
      }
    }
    if (!queued) {
      // Ring full: overflow into the owner's inbox. Thieves drain it too,
      // so nothing is stranded.
      const std::lock_guard<std::mutex> lock(w.inbox_mutex);
      w.inbox.push_back(std::move(task));
    }
    if (metered) depth = w.ring.size();
  } else {
    // External thread, or a worker targeting a specific domain: round-robin
    // to a per-worker inbox (only ring owners may push their ring).
    const unsigned n = next_worker_.fetch_add(1, std::memory_order_relaxed);
    unsigned target;
    if (domain_hint >= 0) {
      // Round-robin within the requested domain's worker list (contiguous
      // ranges unpinned, the pinned CPUs' nodes otherwise — see
      // build_placement). A domain can end up with no workers under exotic
      // pinned layouts; fall back to anyone rather than dropping the hint's
      // task on the floor.
      const unsigned domain =
          static_cast<unsigned>(domain_hint) % config_.numa_domains;
      const std::vector<unsigned>& ws = domain_workers_[domain];
      target = ws.empty() ? n % config_.threads : ws[n % ws.size()];
    } else {
      target = n % config_.threads;
    }
    Worker& w = *workers_[target];
    {
      const std::lock_guard<std::mutex> lock(w.inbox_mutex);
      w.inbox.push_back(std::move(task));
      depth = w.inbox.size() + w.ring.size();
    }
  }
  if (metered) {
    queue_depth_histogram().observe(static_cast<std::int64_t>(depth));
  }
  wake_one();
}

void Scheduler::wake_one() {
  // The old scheduler took sleep_mutex_ and notified on *every* submission;
  // with W workers spawning W-ways that is a wakeup storm of W^2 futile
  // notifies per batch. Only wake when someone is actually asleep. seq_cst
  // pairs with the sleeper's registration: either we observe the sleeper
  // (and notify), or the sleeper's subsequent outstanding_ check observes
  // our increment (and it does not sleep).
  if (sleepers_.load(std::memory_order_seq_cst) == 0) return;
  // Empty critical section: orders this wakeup against a worker that is
  // between registering and blocking, preventing a lost notify.
  { const std::lock_guard<std::mutex> lock(sleep_mutex_); }
  work_available_.notify_one();
}

bool Scheduler::take_from(Worker& w, QueuedTask& out) {
  std::uint32_t idx = 0;
  if (w.ring.steal(idx)) {
    out = std::move(w.pool[idx]);
    w.pool.release(idx);
    return true;
  }
  const std::lock_guard<std::mutex> lock(w.inbox_mutex);
  if (w.inbox.empty()) return false;
  out = std::move(w.inbox.front()); // oldest first, like a ring steal
  w.inbox.pop_front();
  return true;
}

bool Scheduler::pop_own(unsigned index, QueuedTask& out) {
  Worker& w = *workers_[index];
  std::uint32_t idx = 0;
  if (w.ring.pop(idx)) {
    out = std::move(w.pool[idx]);
    w.pool.release(idx);
    return true;
  }
  const std::lock_guard<std::mutex> lock(w.inbox_mutex);
  if (w.inbox.empty()) return false;
  out = std::move(w.inbox.back()); // newest first: LIFO, matches ring pops
  w.inbox.pop_back();
  return true;
}

unsigned Scheduler::steal_tier(unsigned thief, unsigned victim) const {
  if (worker_core_[thief] >= 0 && worker_core_[thief] == worker_core_[victim]) {
    return 0; // SMT sibling: shares the thief's L1/L2
  }
  return worker_domain_[thief] == worker_domain_[victim] ? 1 : 2;
}

bool Scheduler::steal(unsigned thief, QueuedTask& out) {
  // Hierarchical victim selection when NUMA-aware: SMT siblings of the
  // thief's core first (their queues are L1/L2-warm), then same-domain
  // workers, then remote domains as the last resort — the ordering the
  // paper's NUMA-aware HPX scheduling approximates. Flat rotating scan
  // otherwise. Each pass rotates from the thief to spread contention;
  // successful steals are classified and counted per tier either way.
  const unsigned n = config_.threads;
  auto try_victim = [&](unsigned v) {
    if (v == thief) return false;
    if (!take_from(*workers_[v], out)) return false;
    Worker& me = *workers_[thief];
    const unsigned tier = steal_tier(thief, v);
    ++me.steals;
    ++me.steals_by_tier[tier];
    steal_counter().add(1);
    tier_steal_counter(tier).add(1);
    if (tier == 2) cross_domain_steal_counter().add(1);
    return true;
  };
  if (config_.numa_aware && config_.numa_domains > 1) {
    for (unsigned tier = 0; tier < 3; ++tier) {
      for (unsigned k = 1; k < n; ++k) {
        const unsigned v = (thief + k) % n;
        if (v != thief && steal_tier(thief, v) == tier && try_victim(v)) {
          return true;
        }
      }
    }
    return false;
  }
  for (unsigned k = 1; k < n; ++k) {
    if (try_victim((thief + k) % n)) return true;
  }
  return false;
}

void Scheduler::on_task_done() {
  if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    const std::lock_guard<std::mutex> lock(sleep_mutex_);
    quiescent_.notify_all();
  }
}

void Scheduler::run_task(QueuedTask& task) {
  // After cancellation only the accounting runs: bodies of already-queued
  // tasks are dropped so the scheduler drains instead of compounding the
  // failure. Promise-completing closures (async/dataflow) are exempt — they
  // must reach their promise or a helper-less get() would block forever —
  // and observe cancelled() themselves. Any exception that reaches the
  // worker is latched, never terminated on.
  const bool timed = obs::task_timing_enabled();
  std::int64_t t0 = 0;
  if (timed) {
    t0 = support::now_ns();
    if (task.enqueue_ns != 0) task_wait_histogram().observe(t0 - task.enqueue_ns);
  }
  if (task.always_run || !cancelled_.load(std::memory_order_acquire)) {
    try {
      support::fault::check("flux:task");
      task.fn();
    } catch (...) {
      report_task_error(std::current_exception());
    }
  }
  task.fn = Task{};
  if (timed) {
    const std::int64_t t1 = support::now_ns();
    task_run_histogram().observe(t1 - t0);
    // The scheduler-level span encloses whatever kernel span the task body
    // published, giving the trace genuine nesting on each worker track.
    obs::span("task", "flux", t0, t1);
  }
}

void Scheduler::worker_loop(unsigned index) {
  tls_scheduler = this;
  tls_worker_index = static_cast<int>(index);
  pin_self(index);
  QueuedTask task;
  while (true) {
    if (pop_own(index, task) || steal(index, task)) {
      run_task(task);
      ++workers_[index]->executed;
      executed_counter().add(1);
      on_task_done();
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    if (stopping_.load(std::memory_order_acquire)) return;
    // Register as a sleeper *before* re-checking for work: the seq_cst
    // pair with enqueue()'s outstanding_ increment guarantees that either
    // the submitter sees us (and notifies) or we see its task (and rescan).
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    if (outstanding_.load(std::memory_order_seq_cst) == 0) {
      // Nothing pending anywhere: sleep until new work or shutdown.
      work_available_.wait(lock, [&] {
        return stopping_.load(std::memory_order_acquire) ||
               outstanding_.load(std::memory_order_acquire) > 0;
      });
    } else {
      // Work exists but our steal scan raced (or everything is running);
      // back off briefly, a fresh submission wakes us sooner.
      work_available_.wait_for(lock, std::chrono::microseconds(50));
    }
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    if (stopping_.load(std::memory_order_acquire)) return;
  }
}

void Scheduler::wait_for_quiescence() {
  STS_EXPECTS(tls_scheduler != this); // a worker waiting here would deadlock
  {
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    quiescent_.wait(lock, [&] {
      return outstanding_.load(std::memory_order_acquire) == 0;
    });
  }
  rethrow_and_reset();
}

void Scheduler::wait_for_quiescence(std::chrono::milliseconds deadline) {
  STS_EXPECTS(tls_scheduler != this);
  {
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    const bool quiet = quiescent_.wait_for(lock, deadline, [&] {
      return outstanding_.load(std::memory_order_acquire) == 0;
    });
    if (!quiet) {
      lock.unlock();
      const std::string detail = diagnostics().to_string();
      obs::counter("flux.watchdog_fired").add(1);
      obs::instant("flux:watchdog", "watchdog",
                   "{\"detail\":\"" + support::json_escape(detail) + "\"}");
      throw support::TimeoutError(
          "flux: quiescence deadline (" + std::to_string(deadline.count()) +
          " ms) expired: " + detail);
    }
  }
  rethrow_and_reset();
}

void Scheduler::report_task_error(std::exception_ptr error) noexcept {
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
      obs::counter("flux.cancellations").add(1);
    } catch (...) {
    }
    obs::instant("flux:cancel", "cancel");
  }
}

void Scheduler::rethrow_if_cancelled() {
  if (!cancelled_.load(std::memory_order_acquire)) return;
  std::exception_ptr err;
  {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    err = first_error_;
  }
  if (err) std::rethrow_exception(err);
  throw support::Error("flux: scheduler cancelled");
}

void Scheduler::rethrow_and_reset() {
  std::exception_ptr err;
  {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    err = std::exchange(first_error_, nullptr);
  }
  cancelled_.store(false, std::memory_order_release);
  if (err) std::rethrow_exception(err);
}

void Scheduler::drain() noexcept {
  {
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    quiescent_.wait(lock, [&] {
      return outstanding_.load(std::memory_order_acquire) == 0;
    });
  }
  {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    first_error_ = nullptr;
  }
  cancelled_.store(false, std::memory_order_release);
}

Scheduler::QueueDiagnostics Scheduler::diagnostics() const {
  QueueDiagnostics d;
  d.outstanding = outstanding_.load(std::memory_order_acquire);
  d.queue_depths.reserve(workers_.size());
  for (const std::unique_ptr<Worker>& wp : workers_) {
    Worker& w = *wp;
    std::size_t inbox_depth = 0;
    {
      const std::lock_guard<std::mutex> lock(w.inbox_mutex);
      inbox_depth = w.inbox.size();
    }
    d.queue_depths.push_back(w.ring.size() + inbox_depth);
  }
  return d;
}

std::string Scheduler::QueueDiagnostics::to_string() const {
  std::string out = std::to_string(outstanding) + " task(s) outstanding, " +
                    "queue depths [";
  for (std::size_t i = 0; i < queue_depths.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(queue_depths[i]);
  }
  out += "]";
  return out;
}

bool Scheduler::try_run_one() {
  QueuedTask task;
  bool got = false;
  const bool on_worker = tls_scheduler == this && tls_worker_index >= 0;
  if (on_worker) {
    got = pop_own(static_cast<unsigned>(tls_worker_index), task) ||
          steal(static_cast<unsigned>(tls_worker_index), task);
  } else {
    // External helper: steal from each worker in turn, oldest-first.
    for (unsigned v = 0; v < config_.threads && !got; ++v) {
      got = take_from(*workers_[v], task);
    }
  }
  if (!got) return false;
  run_task(task);
  if (on_worker) {
    ++workers_[static_cast<unsigned>(tls_worker_index)]->executed;
  } else {
    helper_executed_.fetch_add(1, std::memory_order_relaxed);
  }
  executed_counter().add(1);
  on_task_done();
  return true;
}

int Scheduler::current_worker() const noexcept {
  return tls_scheduler == this ? tls_worker_index : -1;
}

Scheduler::Stats Scheduler::stats() const {
  Stats s;
  s.executed = helper_executed_.load(std::memory_order_relaxed);
  for (const std::unique_ptr<Worker>& wp : workers_) {
    const Worker& w = *wp;
    s.executed += w.executed;
    s.steals += w.steals;
    s.steals_sibling += w.steals_by_tier[0];
    s.steals_local += w.steals_by_tier[1];
    s.steals_remote += w.steals_by_tier[2];
  }
  return s;
}

} // namespace sts::flux
