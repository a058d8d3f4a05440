#include "svc/service.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <set>
#include <thread>

#include "obs/obs.hpp"
#include "solvers/checkpoint.hpp"
#include "solvers/common.hpp"
#include "solvers/lanczos.hpp"
#include "solvers/lobpcg.hpp"
#include "support/env.hpp"
#include "support/escape.hpp"
#include "support/fault.hpp"
#include "support/timer.hpp"
#include "support/topology.hpp"

namespace sts::svc {

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kPending: return "PENDING";
    case JobState::kRunning: return "RUNNING";
    case JobState::kDone: return "DONE";
    case JobState::kFailed: return "FAILED";
    case JobState::kCancelled: return "CANCELLED";
  }
  return "?";
}

namespace {

Plan build_plan(const RunSpec& spec, flux::Scheduler* pool) {
  sparse::Coo coo = spec.load();
  auto csr = std::make_shared<const sparse::Csr>(
      sparse::Csr::from_coo(std::move(coo)));
  const RunSpec::BlockChoice choice = spec.resolve_block(*csr);
  sparse::Csb csb = sparse::Csb::from_csr(*csr, choice.block);
  if (pool != nullptr && pool->domain_count() > 1) {
    // First-touch each domain stripe from a pinned worker of its node
    // before the matrix is frozen into the (shared, immutable) plan; every
    // kFlux solve on this plan then hints tasks at the owning domain.
    (void)solver::place_csb(csb, *pool);
  }
  Plan plan;
  plan.bytes = csr->memory_bytes() + csb.memory_bytes();
  plan.block_size = choice.block;
  plan.csr = std::move(csr);
  plan.csb = std::make_shared<const sparse::Csb>(std::move(csb));
  return plan;
}

/// The affinity the slot pools will actually use: for_partition pins
/// kCompact unless STS_AFFINITY says off (a partition is enforced by
/// pinning). Mirrored here so stats() reports the truth without a pool.
flux::Affinity partition_affinity() {
  const std::string env = support::env_string("STS_AFFINITY", "");
  if (env == "off" || env == "0") return flux::Affinity::kOff;
  return flux::Affinity::kCompact;
}

/// cpulist ("0-3,8") of a job's CPUs, a prefix of its slot's partition.
std::string cpulist_of(std::vector<int> cpus) {
  dispatch::Partition tmp;
  tmp.cpus = std::move(cpus);
  return tmp.cpulist();
}

} // namespace

wire::Json to_json(const JobInfo& info) {
  wire::Json j = wire::Json::object();
  j.set("id", static_cast<std::uint64_t>(info.id));
  j.set("state", to_string(info.state));
  j.set("spec", info.spec_describe);
  if (!info.error.empty()) j.set("error", info.error);
  j.set("cache_hit", info.cache_hit);
  if (info.block_size != 0) {
    j.set("block", static_cast<std::int64_t>(info.block_size));
  }
  j.set("queue_seconds", info.queue_seconds);
  j.set("run_seconds", info.run_seconds);
  if (info.summary.is_object()) j.set("summary", info.summary);
  return j;
}

wire::Json to_json(const ServiceStats& s) {
  wire::Json j = wire::Json::object();
  j.set("queue_depth", static_cast<std::uint64_t>(s.queue_depth));
  j.set("queue_capacity", static_cast<std::uint64_t>(s.queue_capacity));
  j.set("submitted", s.submitted);
  j.set("rejected", s.rejected);
  j.set("done", s.done);
  j.set("failed", s.failed);
  j.set("cancelled", s.cancelled);
  j.set("recovered", s.recovered);
  j.set("running_job", s.running_job);
  wire::Json cache = wire::Json::object();
  cache.set("hits", s.cache.hits);
  cache.set("misses", s.cache.misses);
  cache.set("evictions", s.cache.evictions);
  cache.set("bytes", static_cast<std::uint64_t>(s.cache.bytes));
  cache.set("entries", static_cast<std::uint64_t>(s.cache.entries));
  cache.set("budget_bytes", static_cast<std::uint64_t>(s.cache.budget_bytes));
  j.set("cache", std::move(cache));
  j.set("job_p50_ms", s.job_p50_ms);
  j.set("job_p95_ms", s.job_p95_ms);
  j.set("job_p99_ms", s.job_p99_ms);
  wire::Json topo = wire::Json::object();
  topo.set("nodes", static_cast<std::uint64_t>(s.topology.nodes));
  topo.set("cpus", static_cast<std::uint64_t>(s.topology.cpus));
  topo.set("smt_siblings", static_cast<std::uint64_t>(s.topology.smt));
  topo.set("from_sysfs", s.topology.from_sysfs);
  topo.set("pool_threads",
           static_cast<std::uint64_t>(s.topology.pool_threads));
  topo.set("pool_domains",
           static_cast<std::uint64_t>(s.topology.pool_domains));
  topo.set("affinity", s.topology.affinity);
  j.set("topology", std::move(topo));
  wire::Json d = wire::Json::object();
  d.set("slots", static_cast<std::uint64_t>(s.dispatch.slots));
  d.set("policy", s.dispatch.policy);
  d.set("running_jobs", static_cast<std::uint64_t>(s.dispatch.running_jobs));
  d.set("depth_interactive",
        static_cast<std::uint64_t>(s.dispatch.depth_interactive));
  d.set("depth_batch", static_cast<std::uint64_t>(s.dispatch.depth_batch));
  j.set("dispatch", std::move(d));
  return j;
}

Service::Config Service::Config::from_env() {
  Config c;
  const std::int64_t cap = support::env_int("STS_QUEUE_CAP", 64);
  c.queue_capacity = cap < 1 ? 1 : static_cast<std::size_t>(cap);
  c.cache_bytes = PlanCache::budget_from_env();
  c.threads = static_cast<unsigned>(support::env_int("STS_THREADS", 0));
  const std::int64_t slots = support::env_int("STS_SLOTS", 1);
  c.slots = slots < 1 ? 1u : static_cast<unsigned>(slots);
  c.policy = dispatch::parse_policy(support::env_string("STS_POLICY", "fair"));
  c.journal_path = support::env_string("STS_JOURNAL", "");
  c.ckpt_dir = support::env_string("STS_CKPT_DIR", "");
  const std::int64_t trace_bytes = support::env_int(
      "STS_JOB_TRACE_BYTES", static_cast<std::int64_t>(c.job_trace_bytes));
  c.job_trace_bytes =
      trace_bytes < 0 ? 0 : static_cast<std::size_t>(trace_bytes);
  return c;
}

const support::topo::Machine& Service::machine() const noexcept {
  return config_.machine != nullptr ? *config_.machine
                                    : support::topo::machine();
}

Service::Service(Config config)
    : config_(std::move(config)), cache_(config_.cache_bytes),
      queue_(config_.policy) {
  const support::topo::Machine& m = machine();
  const unsigned want = std::max(1u, config_.slots);
  // Carve once; the table is immutable for the service's lifetime. carve()
  // clamps to the online CPU count — slots beyond that share partitions
  // round-robin (oversubscription).
  partitions_ = dispatch::carve(m, want);
  obs::gauge("topology.nodes")
      .observe(static_cast<std::int64_t>(m.node_count()));
  obs::gauge("topology.cpus")
      .observe(static_cast<std::int64_t>(m.cpu_count()));
  obs::gauge("topology.smt_siblings")
      .observe(static_cast<std::int64_t>(m.smt_siblings));
  std::set<int> domains;
  for (const dispatch::Partition& p : partitions_) {
    domains.insert(p.domains.begin(), p.domains.end());
  }
  obs::gauge("topology.pool_domains")
      .observe(static_cast<std::int64_t>(
          support::topo::numa_disabled() ? 1 : domains.size()));
  obs::gauge("dispatch.slots").observe(static_cast<std::int64_t>(want));
  if (!config_.ckpt_dir.empty()) {
    if (::mkdir(config_.ckpt_dir.c_str(), 0755) != 0 && errno != EEXIST) {
      throw support::Error("ckpt dir " + config_.ckpt_dir + ": " +
                           std::strerror(errno));
    }
  }
  obs::set_job_trace_capacity(config_.job_trace_bytes);
  // This service's job-id space starts fresh; slices a previous instance
  // buffered under the same ids must not bleed into our trace exports.
  obs::clear_job_traces();
  // Recovery runs before any slot thread exists: re-admitted jobs are
  // queued (through the same FairQueue, so a recovered interactive job
  // outranks queued batch work), the journal is open for append, and only
  // then does execution start — no replayed record can race a fresh one.
  if (!config_.journal_path.empty()) recover_from_journal();
  for (unsigned i = 0; i < want; ++i) {
    auto slot = std::make_unique<Slot>();
    slot->index = i;
    slot->part = partitions_[i % partitions_.size()];
    slot->part.slot = i;
    slots_.push_back(std::move(slot));
  }
  for (unsigned i = 0; i < want; ++i) {
    slots_[i]->thread = std::thread([this, i] { slot_loop(i); });
  }
}

Service::~Service() { drain(); }

std::string Service::ckpt_path_for(std::uint64_t id) const {
  return config_.ckpt_dir + "/job-" + std::to_string(id) + ".ckpt";
}

void Service::journal_append_locked(const char* event, const Job& job,
                                    wire::Json extra) {
  if (!journal_.is_open()) return;
  try {
    journal_.append(event, job.id, extra);
  } catch (const std::exception& e) {
    // Availability over durability: a dead disk degrades recovery, it does
    // not take running jobs down. The gap is visible in the metrics.
    obs::counter("svc.journal_errors").add();
    obs::instant(std::string("journal: ") + e.what(), "svc");
  }
}

void Service::enqueue_locked(Job& job) {
  job.cls = dispatch::parse_class(job.spec.priority);
  job.weight = std::max(1u, job.spec.weight);
  // Fairness key: everything before the first '/' of the client key, so a
  // client submitting "alice/run-1", "alice/run-2", ... competes as one
  // DRR account. Keyless jobs share the anonymous account.
  job.fair_client = job.spec.client_key.substr(
      0, job.spec.client_key.find('/'));
  if (job.spec.deadline_ms > 0) {
    job.deadline_ns = job.submit_ns + job.spec.deadline_ms * 1'000'000;
  }
  dispatch::Item item;
  item.id = job.id;
  item.cls = job.cls;
  item.weight = job.weight;
  item.client = job.fair_client;
  item.enqueue_ns = job.submit_ns;
  queue_.push(std::move(item));
}

void Service::recover_from_journal() {
  const Journal::Replay replay = Journal::replay(config_.journal_path);
  if (replay.torn_tail) {
    obs::counter("svc.journal_torn_tail").add();
    obs::instant("journal: torn tail truncated at byte " +
                     std::to_string(replay.valid_bytes),
                 "svc");
  }
  journal_.open(config_.journal_path, replay.valid_bytes);

  // Fold the records per job id: the SUBMITTED record carries the spec,
  // the last transition wins as the state.
  struct Folded {
    wire::Json spec;
    JobState state = JobState::kPending;
    std::string error;
    bool have_spec = false;
  };
  std::map<std::uint64_t, Folded> folded; // ordered: re-admit in id order
  for (const JournalRecord& rec : replay.records) {
    Folded& f = folded[rec.id];
    if (rec.event == "SUBMITTED") {
      if (rec.fields.has("spec")) {
        f.spec = rec.fields.get("spec");
        f.have_spec = true;
      }
    } else if (rec.event == "RUNNING") {
      f.state = JobState::kRunning;
    } else if (rec.event == "DONE") {
      f.state = JobState::kDone;
    } else if (rec.event == "FAILED") {
      f.state = JobState::kFailed;
      f.error = rec.fields.string_or("error", "");
    } else if (rec.event == "CANCELLED") {
      f.state = JobState::kCancelled;
      f.error = rec.fields.string_or("error", "");
    }
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [id, f] : folded) {
    next_id_ = std::max(next_id_, id + 1);
    if (!f.have_spec) {
      // A terminal/RUNNING record whose SUBMITTED prefix was lost (torn
      // head would need truncation from the front; we only truncate tails).
      obs::counter("svc.journal_errors").add();
      continue;
    }
    auto job = std::make_unique<Job>();
    job->id = id;
    try {
      job->spec = RunSpec::from_json(f.spec);
      job->spec.validate();
    } catch (const std::exception&) {
      obs::counter("svc.journal_errors").add();
      continue;
    }
    job->submit_ns = support::now_ns();
    if (!job->spec.client_key.empty()) {
      key_to_id_.emplace(job->spec.client_key, id);
    }
    ++submitted_;
    Job* raw = job.get();
    jobs_.emplace(id, std::move(job));
    if (f.state == JobState::kDone || f.state == JobState::kFailed ||
        f.state == JobState::kCancelled) {
      // Resurrect terminal jobs as queryable history (summary excluded —
      // the journal records transitions, not payloads), without re-writing
      // their terminal records.
      raw->state = f.state;
      raw->error = f.error;
      raw->start_ns = raw->submit_ns;
      raw->end_ns = raw->submit_ns;
      switch (f.state) {
        case JobState::kDone: ++done_; break;
        case JobState::kFailed: ++failed_; break;
        default: ++cancelled_; break;
      }
      continue;
    }
    // Interrupted PENDING/RUNNING job: re-admit with its journaled
    // scheduling identity (priority/weight/client round-trip through the
    // spec JSON). run_job() points it at its last solver checkpoint (if
    // one exists) via job->recovered.
    raw->recovered = true;
    try {
      // Deterministic chaos hook: an armed throw here fails exactly this
      // job's recovery; the daemon and every other replayed job keep going.
      support::fault::check("svc:recover");
    } catch (const std::exception& e) {
      finish_job(*raw, JobState::kFailed,
                 std::string("recovery: ") + e.what());
      continue;
    }
    enqueue_locked(*raw);
    ++recovered_;
    obs::counter("svc.recovered_jobs").add();
  }
  if (recovered_ > 0) {
    obs::instant("journal: re-admitted " + std::to_string(recovered_) +
                     " interrupted job(s)",
                 "svc");
  }
  publish_queue_depth_locked();
}

void Service::publish_queue_depth_locked() const {
  obs::gauge("svc.queue_depth")
      .observe(static_cast<std::int64_t>(queue_.size()));
  obs::gauge("dispatch.depth_interactive")
      .observe(static_cast<std::int64_t>(
          queue_.depth(dispatch::Class::kInteractive)));
  obs::gauge("dispatch.depth_batch")
      .observe(
          static_cast<std::int64_t>(queue_.depth(dispatch::Class::kBatch)));
}

SubmitOutcome Service::submit(RunSpec spec) {
  spec.validate(); // throws on malformed specs before any accounting
  SubmitOutcome out;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!spec.client_key.empty()) {
    // Idempotent resubmission: a retry after a lost reply (or a daemon
    // restart, via the journal-refilled map) finds the original job.
    const auto it = key_to_id_.find(spec.client_key);
    if (it != key_to_id_.end()) {
      obs::counter("svc.jobs_deduped").add();
      out.accepted = true;
      out.id = it->second;
      return out;
    }
  }
  if (draining_ || stop_slots_) {
    ++rejected_;
    obs::counter("svc.jobs_rejected").add();
    out.error = "draining";
    return out;
  }
  if (queue_.size() >= config_.queue_capacity) {
    // Admission control: reject now with a typed error instead of blocking
    // the client behind an unbounded backlog — and tell the client *how*
    // full the lane was, so backoff can be proportional.
    ++rejected_;
    obs::counter("svc.jobs_rejected").add();
    out.error = "queue_full";
    out.queue_depth = queue_.size();
    out.queue_capacity = config_.queue_capacity;
    return out;
  }
  auto job = std::make_unique<Job>();
  job->id = next_id_++;
  job->spec = std::move(spec);
  job->submit_ns = support::now_ns();
  Job* raw = job.get();
  jobs_.emplace(raw->id, std::move(job));
  if (!raw->spec.client_key.empty()) {
    key_to_id_.emplace(raw->spec.client_key, raw->id);
  }
  // The admission record goes to disk before the id is acknowledged: a
  // crash after this point re-admits the job on restart.
  wire::Json extra = wire::Json::object();
  extra.set("spec", raw->spec.to_json());
  journal_append_locked("SUBMITTED", *raw, std::move(extra));
  enqueue_locked(*raw);
  ++submitted_;
  obs::counter("svc.jobs_submitted").add();
  publish_queue_depth_locked();
  // One job, one slot: only idle slots wait on queue_cv_, and any of them
  // can pop it.
  queue_cv_.notify_one();
  out.accepted = true;
  out.id = raw->id;
  return out;
}

JobInfo Service::snapshot_locked(const Job& job) const {
  JobInfo info;
  info.id = job.id;
  info.state = job.state;
  info.spec_describe = job.spec.describe();
  info.error = job.error;
  info.cache_hit = job.cache_hit;
  info.block_size = job.block_size;
  if (job.start_ns > 0) {
    info.queue_seconds =
        static_cast<double>(job.start_ns - job.submit_ns) * 1e-9;
    const std::int64_t end = job.end_ns > 0 ? job.end_ns : support::now_ns();
    info.run_seconds = static_cast<double>(end - job.start_ns) * 1e-9;
  }
  info.summary = job.summary;
  return info;
}

JobInfo Service::status(std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    throw support::Error("unknown job id " + std::to_string(id));
  }
  return snapshot_locked(*it->second);
}

JobInfo Service::wait(std::uint64_t id, std::chrono::milliseconds deadline,
                      const std::atomic<bool>* abort) const {
  const auto until = std::chrono::steady_clock::now() + deadline;
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    throw support::Error("unknown job id " + std::to_string(id));
  }
  while (!snapshot_locked(*it->second).terminal()) {
    if (abort != nullptr && abort->load(std::memory_order_acquire)) break;
    const auto now = std::chrono::steady_clock::now();
    if (now >= until) break;
    // 100 ms slices so an abort flag (server drain) is observed promptly.
    job_done_cv_.wait_until(
        lock, std::min(until, now + std::chrono::milliseconds(100)));
  }
  return snapshot_locked(*it->second);
}

bool Service::cancel(std::uint64_t id, const std::string& reason) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    throw support::Error("unknown job id " + std::to_string(id));
  }
  Job& job = *it->second;
  switch (job.state) {
    case JobState::kPending: {
      job.token.request(reason);
      queue_.remove(job.id);
      publish_queue_depth_locked();
      finish_job(job, JobState::kCancelled, reason);
      return true;
    }
    case JobState::kRunning: {
      job.token.request(reason);
      if (job.active_pool != nullptr) {
        // PR 1's cancellation path: latch an error in the job's pool so
        // queued task bodies are skipped and the blocked driver unwinds
        // now instead of at its next iteration boundary. The pool is
        // per-job, so the latched error cannot leak into another solve.
        job.active_pool->report_task_error(
            std::make_exception_ptr(support::Cancelled(reason)));
      }
      return true;
    }
    case JobState::kDone:
    case JobState::kFailed:
    case JobState::kCancelled: return false;
  }
  return false;
}

void Service::finish_job(Job& job, JobState state, const std::string& error) {
  // Caller holds mutex_.
  job.state = state;
  job.error = error;
  job.end_ns = support::now_ns();
  switch (state) {
    case JobState::kDone: ++done_; break;
    case JobState::kFailed: ++failed_; break;
    case JobState::kCancelled: ++cancelled_; break;
    default: break;
  }
  wire::Json extra = wire::Json::object();
  if (!error.empty()) extra.set("error", error);
  journal_append_locked(to_string(state), job, std::move(extra));
  if (!config_.ckpt_dir.empty()) {
    // A terminal job's checkpoint is dead weight (and would poison a future
    // job that reuses the id after a journal wipe): drop it.
    ::unlink(ckpt_path_for(job.id).c_str());
  }
  obs::histogram("svc.job_ns").observe(job.end_ns - job.submit_ns);
  if (job.start_ns > 0) {
    obs::histogram(job.cls == dispatch::Class::kInteractive
                       ? "dispatch.interactive_run_ns"
                       : "dispatch.batch_run_ns")
        .observe(job.end_ns - job.start_ns);
  }
  obs::instant("svc.job[" + std::to_string(job.id) + "] " + to_string(state),
               "svc");
  job_done_cv_.notify_all();
}

void Service::slot_loop(unsigned si) {
  Slot& slot = *slots_[si];
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    queue_cv_.wait(lock, [this] { return stop_slots_ || !queue_.empty(); });
    if (queue_.empty()) return; // stopping, and the queue has drained
    dispatch::Item item;
    if (!queue_.pop(&item)) continue;
    publish_queue_depth_locked();
    Job* job = jobs_.at(item.id).get();
    if (job->token.requested()) { // cancelled while queued
      finish_job(*job, JobState::kCancelled, job->token.reason());
      continue;
    }
    if (job->deadline_ns > 0 && support::now_ns() >= job->deadline_ns) {
      // The deadline elapsed in the queue: never start, never burn a slot.
      job->token.request("deadline");
      finish_job(*job, JobState::kCancelled, "deadline");
      continue;
    }
    job->state = JobState::kRunning;
    job->start_ns = support::now_ns();
    job->slot = static_cast<int>(si);
    slot.running = job;
    ++running_count_;
    obs::gauge("dispatch.running_jobs")
        .observe(static_cast<std::int64_t>(running_count_));
    obs::histogram(job->cls == dispatch::Class::kInteractive
                       ? "dispatch.interactive_wait_ns"
                       : "dispatch.batch_wait_ns")
        .observe(job->start_ns - job->submit_ns);
    journal_append_locked("RUNNING", *job);
    lock.unlock();

    // Per-job trace window. The trace ring has one process-global capture
    // window; with K slots the slots contend for it and a loser simply
    // runs untraced (first-come, first-traced).
    const std::string trace_id = job->spec.trace_id.empty()
                                     ? "job-" + std::to_string(job->id)
                                     : job->spec.trace_id;
    const bool traced =
        !trace_busy_.exchange(true, std::memory_order_acq_rel);
    if (traced) obs::begin_job_trace(job->id, trace_id);
    run_job(*job, si);
    // Root span last so stray worker spans from the teardown are inside
    // the window; rendered under this slot's lane.
    obs::span("job[" + std::to_string(job->id) + "]", "svc", job->start_ns,
              support::now_ns(),
              "{\"trace_id\":\"" + support::json_escape(trace_id) +
                  "\",\"spec\":\"" +
                  support::json_escape(job->spec.describe()) + "\"}");
    if (traced) {
      obs::end_job_trace();
      trace_busy_.store(false, std::memory_order_release);
    }

    lock.lock();
    slot.running = nullptr;
    --running_count_;
    obs::gauge("dispatch.running_jobs")
        .observe(static_cast<std::int64_t>(running_count_));
    job->slot = -1;
  }
}

void Service::run_job(Job& job, unsigned si) {
  std::unique_ptr<flux::Scheduler> pool;
  JobState terminal_state = JobState::kFailed;
  std::string terminal_error;
  try {
    // Deterministic fault site: one armed throw here fails exactly this
    // job; the daemon and every later job keep going.
    support::fault::check("svc:job");
    job.token.throw_if_requested();

    // Worker budget: the slot's partition, clipped by the job's
    // --max-workers quota and any explicit thread request.
    const dispatch::Partition& part = slots_[si]->part;
    std::vector<int> cpus = part.cpus;
    if (job.spec.max_workers != 0 && cpus.size() > job.spec.max_workers) {
      cpus.resize(job.spec.max_workers);
    }
    unsigned threads =
        job.spec.threads != 0
            ? job.spec.threads
            : (config_.threads != 0 ? config_.threads
                                    : static_cast<unsigned>(cpus.size()));
    if (job.spec.max_workers != 0) {
      threads = std::min(threads, job.spec.max_workers);
    }
    threads = std::max(threads, 1u);
    if (threads < cpus.size()) cpus.resize(threads);

    const bool is_flux = job.spec.version == solver::Version::kFlux;
    if (is_flux) {
      flux::Scheduler::Config pcfg =
          flux::Scheduler::Config::for_partition(cpus, &machine());
      pcfg.threads = threads; // explicit --threads may oversubscribe cpus
      pool = std::make_unique<flux::Scheduler>(pcfg);
      const std::lock_guard<std::mutex> lock(mutex_);
      job.active_pool = pool.get();
      job.cpus = cpus;
    }

    bool hit = false;
    flux::Scheduler* pool_ptr = pool.get();
    const std::shared_ptr<const Plan> plan = cache_.get_or_build(
        job.spec.source_key(), job.spec.block_directive(),
        [&job, pool_ptr] { return build_plan(job.spec, pool_ptr); }, &hit);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      job.cache_hit = hit;
      job.block_size = plan->block_size;
    }

    // Memory quota: enforced against the plan's resident footprint, after
    // the (possibly cached) plan exists but before any solve work starts.
    if (job.spec.max_mem_bytes != 0 && plan->bytes > job.spec.max_mem_bytes) {
      throw support::Error(
          "quota: plan footprint " + std::to_string(plan->bytes) +
          " bytes exceeds max_mem_bytes " +
          std::to_string(job.spec.max_mem_bytes));
    }

    // Wall-clock guards, sharing the cancel token with the client's cancel
    // op: --timeout bounds the run, --deadline-ms bounds submit->terminal.
    // One watchdog, armed with whichever budget expires first.
    std::int64_t limit_ms = 0;
    std::string limit_reason;
    if (job.spec.timeout_sec > 0.0) {
      limit_ms = static_cast<std::int64_t>(job.spec.timeout_sec * 1e3);
      limit_reason = "timeout";
    }
    if (job.deadline_ns > 0) {
      std::int64_t rem_ms = (job.deadline_ns - support::now_ns()) / 1'000'000;
      if (rem_ms < 1) rem_ms = 1;
      if (limit_ms == 0 || rem_ms < limit_ms) {
        limit_ms = rem_ms;
        limit_reason = "deadline";
      }
    }
    std::optional<support::Deadline> guard;
    if (limit_ms > 0) {
      std::function<void()> nudge;
      if (is_flux) {
        flux::Scheduler* p = pool.get();
        const std::string reason = limit_reason;
        nudge = [p, reason] {
          p->report_task_error(
              std::make_exception_ptr(support::Cancelled(reason)));
        };
      }
      guard.emplace(job.token, std::chrono::milliseconds(limit_ms),
                    limit_reason, std::move(nudge));
    }

    // Crash resilience: with a checkpoint dir configured, the solver
    // checkpoints to a per-job file; a journal-recovered job resumes from
    // that file when it is intact and matches the spec, and falls back to a
    // cold restart (counted) when it is missing or stale.
    std::string ckpt_path;
    std::optional<solver::ckpt::Checkpoint> restored;
    if (!config_.ckpt_dir.empty()) {
      ckpt_path = ckpt_path_for(job.id);
      if (job.recovered) {
        try {
          solver::ckpt::Checkpoint c = solver::ckpt::load(ckpt_path);
          const solver::ckpt::Kind want =
              job.spec.solver == SolverKind::kLanczos
                  ? solver::ckpt::Kind::kLanczos
                  : job.spec.solver == SolverKind::kCg
                        ? solver::ckpt::Kind::kCg
                        : solver::ckpt::Kind::kLobpcg;
          if (c.kind == want) {
            restored = std::move(c);
          }
        } catch (const std::exception&) {
          // No checkpoint (job never reached one) or a corrupt/stale file:
          // solve from iteration 0. load() already counted CRC failures.
        }
        if (!restored) obs::counter("svc.recover_cold_restarts").add();
      }
    }

    solver::SolverOptions options = job.spec.solver_options(plan->block_size);
    options.threads = threads;
    options.numa_domains = std::min(options.numa_domains, threads);
    options.cancel = &job.token;
    options.ckpt_path = ckpt_path;
    if (restored) options.restore = &*restored;
    if (is_flux) {
      options.flux_pool = pool.get();
      // The slot pool's domain layout wins over whatever the spec's thread
      // count would have derived (the flux solvers validate that the two
      // agree).
      options.numa_domains = pool->domain_count();
    }

    wire::Json summary = wire::Json::object();
    solver::SolverStatus status = solver::SolverStatus::kOk;
    if (job.spec.solver == SolverKind::kLanczos) {
      const auto r = solver::lanczos(*plan->csr, *plan->csb,
                                     job.spec.iterations, job.spec.version,
                                     options);
      status = r.status;
      summary.set("iterations", r.timing.iterations);
      summary.set("seconds", r.timing.total_seconds);
      wire::Json ritz = wire::Json::array();
      if (!r.ritz_values.empty()) {
        ritz.push(r.ritz_values.front());
        ritz.push(r.ritz_values.back());
      }
      summary.set("ritz_extremes", std::move(ritz));
    } else if (job.spec.solver == SolverKind::kCg) {
      const auto r = solver::cg(*plan->csr, *plan->csb, job.spec.version,
                                job.spec.cg_options(), options);
      status = r.status;
      summary.set("iterations", r.timing.iterations);
      summary.set("seconds", r.timing.total_seconds);
      summary.set("converged", r.converged);
      summary.set("relative_residual", r.relative_residual);
      summary.set("precond", solver::to_string(job.spec.precond));
      if (r.precond_shift != 0.0) {
        summary.set("precond_shift", r.precond_shift);
      }
      if (r.level_span != 0) {
        summary.set("sptrsv_level_span",
                    static_cast<std::int64_t>(r.level_span));
      }
    } else {
      solver::LobpcgOptions lobpcg_options =
          job.spec.lobpcg_options(plan->block_size);
      static_cast<solver::SolverOptions&>(lobpcg_options) = options;
      const auto r = solver::lobpcg(*plan->csr, *plan->csb,
                                    job.spec.iterations, job.spec.version,
                                    lobpcg_options);
      status = r.status;
      summary.set("iterations", r.timing.iterations);
      summary.set("seconds", r.timing.total_seconds);
      summary.set("converged", r.converged);
      wire::Json eigs = wire::Json::array();
      for (const double ev : r.eigenvalues) eigs.push(ev);
      summary.set("eigenvalues", std::move(eigs));
    }

    if (is_flux && pool) {
      // Per-job execution evidence for `stsctl status`/the e2e tests: a
      // job confined to a single-domain partition must show
      // steals_remote == 0.
      const flux::Scheduler::Stats fs = pool->stats();
      wire::Json fj = wire::Json::object();
      fj.set("workers", static_cast<std::uint64_t>(pool->thread_count()));
      fj.set("domains", static_cast<std::uint64_t>(pool->domain_count()));
      fj.set("executed", fs.executed);
      fj.set("steals", fs.steals);
      fj.set("steals_sibling", fs.steals_sibling);
      fj.set("steals_local", fs.steals_local);
      fj.set("steals_remote", fs.steals_remote);
      summary.set("flux", std::move(fj));
    }

    {
      const std::lock_guard<std::mutex> lock(mutex_);
      job.summary = std::move(summary);
    }
    if (status == solver::SolverStatus::kOk) {
      terminal_state = JobState::kDone;
    } else {
      // Breakdown guards: numerically unsound runs are FAILED jobs with the
      // solver's own status naming the cause; the truncated summary stays
      // attached for post-mortems.
      terminal_state = JobState::kFailed;
      terminal_error = std::string("solver: ") + solver::to_string(status);
    }
  } catch (const support::Cancelled& e) {
    terminal_state = JobState::kCancelled;
    terminal_error = e.reason();
  } catch (const std::exception& e) {
    // TaskError, fault::Injected, quota breach, bad input, OOM — the job
    // is FAILED, the daemon lives on.
    terminal_state = JobState::kFailed;
    terminal_error = e.what();
  }
  // Teardown order matters: unpublish the pool (so a late cancel() cannot
  // poke freed memory), destroy it (its workers release their CPUs), and
  // only then publish the terminal state. Waiters woken by finish_job must
  // find the job's pool already gone, not racing a dying one.
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job.active_pool = nullptr;
  }
  pool.reset();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    finish_job(job, terminal_state, terminal_error);
  }
}

ServiceStats Service::stats() const {
  ServiceStats s;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    s.queue_depth = queue_.size();
    s.queue_capacity = config_.queue_capacity;
    s.submitted = submitted_;
    s.rejected = rejected_;
    s.done = done_;
    s.failed = failed_;
    s.cancelled = cancelled_;
    s.recovered = recovered_;
    s.running_job = running_count_ > 0;
    s.dispatch.slots = static_cast<unsigned>(slots_.size());
    s.dispatch.policy = dispatch::to_string(queue_.policy());
    s.dispatch.running_jobs = running_count_;
    s.dispatch.depth_interactive =
        queue_.depth(dispatch::Class::kInteractive);
    s.dispatch.depth_batch = queue_.depth(dispatch::Class::kBatch);
  }
  s.cache = cache_.stats();
  // One coherent snapshot for all three quantiles (and it is one ring flip,
  // not three).
  const obs::Histogram::Snapshot h = obs::histogram("svc.job_ns").snapshot();
  s.job_p50_ms = h.quantile(0.50) * 1e-6;
  s.job_p95_ms = h.quantile(0.95) * 1e-6;
  s.job_p99_ms = h.quantile(0.99) * 1e-6;
  const support::topo::Machine& m = machine();
  s.topology.nodes = m.node_count();
  s.topology.cpus = m.cpu_count();
  s.topology.smt = m.smt_siblings;
  s.topology.from_sysfs = m.from_sysfs;
  // The partitions jointly cover the machine: report the aggregate worker
  // capacity and domain coverage across all slots.
  unsigned total_cpus = 0;
  std::set<int> domains;
  for (const dispatch::Partition& p : partitions_) {
    total_cpus += static_cast<unsigned>(p.cpus.size());
    domains.insert(p.domains.begin(), p.domains.end());
  }
  s.topology.pool_threads = std::max(1u, total_cpus);
  s.topology.pool_domains =
      support::topo::numa_disabled()
          ? 1u
          : std::max<unsigned>(1u, static_cast<unsigned>(domains.size()));
  s.topology.affinity = flux::to_string(partition_affinity());
  return s;
}

wire::Json Service::queue_snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  wire::Json j = wire::Json::object();
  j.set("policy", dispatch::to_string(queue_.policy()));
  j.set("slots", static_cast<std::uint64_t>(slots_.size()));
  wire::Json parts = wire::Json::array();
  for (const auto& s : slots_) {
    wire::Json p = wire::Json::object();
    p.set("slot", static_cast<std::uint64_t>(s->index));
    p.set("cpus", s->part.cpulist());
    wire::Json doms = wire::Json::array();
    for (const int d : s->part.domains) {
      doms.push(static_cast<std::int64_t>(d));
    }
    p.set("domains", std::move(doms));
    if (s->running != nullptr) {
      p.set("job", static_cast<std::uint64_t>(s->running->id));
    }
    parts.push(std::move(p));
  }
  j.set("partitions", std::move(parts));
  wire::Json running = wire::Json::array();
  for (const auto& s : slots_) {
    const Job* job = s->running;
    if (job == nullptr) continue;
    wire::Json r = wire::Json::object();
    r.set("id", static_cast<std::uint64_t>(job->id));
    r.set("class", dispatch::to_string(job->cls));
    r.set("weight", static_cast<std::uint64_t>(job->weight));
    if (!job->fair_client.empty()) r.set("client", job->fair_client);
    r.set("slot", static_cast<std::int64_t>(job->slot));
    if (!job->cpus.empty()) {
      r.set("cpus", cpulist_of(job->cpus));
      r.set("workers", static_cast<std::uint64_t>(job->cpus.size()));
    }
    running.push(std::move(r));
  }
  j.set("running", std::move(running));
  wire::Json pending = wire::Json::array();
  const std::int64_t now = support::now_ns();
  for (const dispatch::Item& it : queue_.snapshot()) {
    wire::Json p = wire::Json::object();
    p.set("id", static_cast<std::uint64_t>(it.id));
    p.set("class", dispatch::to_string(it.cls));
    p.set("weight", static_cast<std::uint64_t>(it.weight));
    if (!it.client.empty()) p.set("client", it.client);
    p.set("waiting_seconds",
          static_cast<double>(now - it.enqueue_ns) * 1e-9);
    pending.push(std::move(p));
  }
  j.set("pending", std::move(pending));
  return j;
}

void Service::drain() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stop_slots_) return; // already drained
    draining_ = true;
    // Pending jobs are cancelled, not silently dropped: each gets a
    // terminal state a waiting client can observe.
    dispatch::Item item;
    while (queue_.pop(&item)) {
      Job& job = *jobs_.at(item.id);
      job.token.request("drained");
      finish_job(job, JobState::kCancelled, "drained");
    }
    publish_queue_depth_locked();
    stop_slots_ = true;
    queue_cv_.notify_all();
  }
  for (const auto& s : slots_) {
    if (s->thread.joinable()) s->thread.join();
  }
}

void Service::request_shutdown() {
  shutdown_requested_.store(true, std::memory_order_release);
  shutdown_cv_.notify_all();
}

bool Service::shutdown_requested() const noexcept {
  return shutdown_requested_.load(std::memory_order_acquire);
}

void Service::wait_shutdown() const {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  shutdown_cv_.wait(lock, [this] { return shutdown_requested(); });
}

} // namespace sts::svc
