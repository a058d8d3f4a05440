#include "obs/obs.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <mutex>

#include "obs/trace_sink.hpp"
#include "support/env.hpp"
#include "support/escape.hpp"
#include "support/fault.hpp"
#include "support/timer.hpp"

namespace sts::obs {

namespace {

constexpr int kTraceBit = 1;
constexpr int kMetricsBit = 2;

// -1 = not yet initialized from the environment; >= 0 = active bit set.
std::atomic<int> g_flags{-1};
// Fast gate for the per-job capture window (mirrors JobTraceRing's active
// job) so span()/instant() stay one relaxed load when everything is off.
std::atomic<bool> g_job_capture{false};
std::mutex g_config_mutex;
std::string g_trace_path;   // guarded by g_config_mutex
std::string g_metrics_dest; // guarded by g_config_mutex
std::string g_prof_path;    // guarded by g_config_mutex
bool g_atexit_registered = false;

std::string json_number(double v) {
  // JSON has no nan/inf literals; a diverging solve's residual must not
  // corrupt the whole trace document, so render non-finite values as
  // strings.
  if (std::isnan(v)) return "\"nan\"";
  if (std::isinf(v)) return v > 0 ? "\"inf\"" : "\"-inf\"";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Fault observer: counts the fire and pins it to the firing thread's track
/// so trace instants correlate with the STS_FAULT site that caused them.
void on_fault_fired(const support::fault::Spec& spec, std::uint64_t visit) {
  static Counter& fired = counter("faults.injected");
  fired.add(1);
  instant("fault:" + spec.site, "fault",
          "{\"site\":\"" + support::json_escape(spec.site) +
              "\",\"kind\":\"" + support::fault::to_string(spec.kind) +
              "\",\"visit\":" + std::to_string(visit) + "}");
}

int init_flags() {
  std::lock_guard<std::mutex> lock(g_config_mutex);
  int f = g_flags.load(std::memory_order_acquire);
  if (f >= 0) return f;
  // Touch the singletons before registering the atexit hook so they are
  // destroyed after the final flush runs.
  Registry::instance();
  TraceSink::instance();
  f = 0;
  const std::string trace = support::env_string("STS_TRACE", "");
  if (!trace.empty()) {
    g_trace_path = trace;
    f |= kTraceBit;
  }
  const std::string metrics = support::env_string("STS_METRICS", "");
  if (!metrics.empty()) {
    g_metrics_dest = metrics;
    f |= kMetricsBit;
  }
  const std::string prof = support::env_string("STS_PROF", "");
  if (!prof.empty()) {
    g_prof_path = prof;
    prof::start_sampling();
  }
  support::fault::set_observer(&on_fault_fired);
  if (!g_atexit_registered) {
    std::atexit([] { flush(); });
    g_atexit_registered = true;
  }
  g_flags.store(f, std::memory_order_release);
  return f;
}

int flags() noexcept {
  const int f = g_flags.load(std::memory_order_acquire);
  if (f >= 0) return f;
  try {
    return init_flags();
  } catch (...) {
    return 0;
  }
}

} // namespace

bool tracing_enabled() noexcept { return (flags() & kTraceBit) != 0; }
bool metrics_enabled() noexcept { return (flags() & kMetricsBit) != 0; }
bool task_timing_enabled() noexcept {
  return flags() != 0 || job_trace_active();
}

void enable_tracing(const std::string& path) {
  flags(); // force init so the atexit hook and fault observer are in place
  TraceSink::instance().reset();
  {
    std::lock_guard<std::mutex> lock(g_config_mutex);
    g_trace_path = path;
  }
  g_flags.fetch_or(kTraceBit, std::memory_order_acq_rel);
}

void enable_metrics(const std::string& dest) {
  flags();
  {
    std::lock_guard<std::mutex> lock(g_config_mutex);
    g_metrics_dest = dest;
  }
  g_flags.fetch_or(kMetricsBit, std::memory_order_acq_rel);
}

void enable_profiling(const std::string& path) {
  flags(); // force init so the atexit flush is in place
  {
    std::lock_guard<std::mutex> lock(g_config_mutex);
    g_prof_path = path;
  }
  prof::start_sampling();
}

void disable() noexcept {
  if (g_flags.load(std::memory_order_acquire) > 0) {
    g_flags.fetch_and(0, std::memory_order_acq_rel);
  }
  prof::stop_sampling();
}

void flush() noexcept {
  const int f = flags();
  if (f == 0 && !prof::sampling_active()) return;
  try {
    std::string trace_path;
    std::string metrics_dest;
    std::string prof_path;
    {
      std::lock_guard<std::mutex> lock(g_config_mutex);
      trace_path = g_trace_path;
      metrics_dest = g_metrics_dest;
      prof_path = g_prof_path;
    }
    if (prof::sampling_active() && !prof_path.empty()) {
      prof::stop_sampling();
      std::ofstream os(prof_path);
      if (os) {
        prof::write_folded(os);
      } else {
        std::fprintf(stderr, "obs: cannot write profile to '%s'\n",
                     prof_path.c_str());
      }
    }
    if ((f & kTraceBit) != 0 && !trace_path.empty()) {
      std::ofstream os(trace_path);
      if (os) {
        TraceSink::instance().write_json(os);
      } else {
        std::fprintf(stderr, "obs: cannot write trace to '%s'\n",
                     trace_path.c_str());
      }
    }
    if ((f & kMetricsBit) != 0 && !metrics_dest.empty()) {
      if (metrics_dest == "stderr") {
        Registry::instance().write_text(std::cerr);
      } else {
        std::ofstream os(metrics_dest);
        if (os) {
          Registry::instance().write_csv(os);
        } else {
          std::fprintf(stderr, "obs: cannot write metrics to '%s'\n",
                       metrics_dest.c_str());
        }
      }
    }
  } catch (...) {
    // A failed dump must not take the process down during exit.
  }
  disable();
}

void write_trace_json(std::ostream& os) { TraceSink::instance().write_json(os); }

void write_metrics_csv(std::ostream& os) {
  Registry::instance().write_csv(os);
}

Counter& counter(const std::string& name) {
  return Registry::instance().counter(name);
}

Gauge& gauge(const std::string& name) {
  return Registry::instance().gauge(name);
}

Histogram& histogram(const std::string& name) {
  return Registry::instance().histogram(name);
}

void set_job_trace_capacity(std::size_t bytes) noexcept {
  try {
    JobTraceRing::instance().set_capacity(bytes);
  } catch (...) {
  }
}

void begin_job_trace(std::uint64_t job,
                     const std::string& trace_id) noexcept {
  if (job == 0) return;
  try {
    JobTraceRing& ring = JobTraceRing::instance();
    if (ring.capacity() == 0) return;
    ring.begin_job(job, trace_id);
    g_job_capture.store(true, std::memory_order_release);
  } catch (...) {
  }
}

void end_job_trace() noexcept {
  g_job_capture.store(false, std::memory_order_release);
  try {
    JobTraceRing::instance().end_job();
  } catch (...) {
  }
}

bool job_trace_active() noexcept {
  return g_job_capture.load(std::memory_order_relaxed);
}

bool write_job_trace_json(std::uint64_t job, std::ostream& os) {
  return JobTraceRing::instance().write_job_json(job, os);
}

void clear_job_traces() noexcept {
  try {
    JobTraceRing::instance().clear();
  } catch (...) {
  }
}

namespace {

/// Routes one finished event to the enabled trace consumers: the process
/// sink when STS_TRACE is on, the per-job ring while a capture window is
/// open. Callers check at least one is active first.
void emit_trace_event(const TraceEvent& event, bool to_sink,
                      bool to_ring) {
  if (to_sink) TraceSink::instance().push(event);
  if (to_ring) JobTraceRing::instance().push(event);
}

} // namespace

void publish_task(const char* runtime, const perf::TaskEvent& event,
                  perf::TraceRecorder* recorder) noexcept {
  try {
    if (recorder != nullptr) {
      // A negative worker (a thread outside the pool) gets the recorder's
      // mutexed overflow lane: lane 0 belongs to worker 0 and is unlocked.
      recorder->record(event.worker < 0 ? recorder->workers()
                                        : static_cast<unsigned>(event.worker),
                       event);
    }
    const int f = flags();
    const bool capture = job_trace_active();
    if (f == 0 && !capture) return;
    const char* kernel = graph::to_string(event.kind);
    const bool to_sink = (f & kTraceBit) != 0;
    if (to_sink || capture) {
      TraceSink::instance().name_current_lane(
          std::string(runtime) + "/w" + std::to_string(event.worker));
      emit_trace_event(
          TraceEvent{kernel, kernel, 'X', event.start_ns,
                     event.end_ns - event.start_ns,
                     "{\"task_id\":" + std::to_string(event.task_id) + "}"},
          to_sink, capture);
    }
    if ((f & kMetricsBit) != 0) {
      histogram(std::string(runtime) + ".task_ns." + kernel)
          .observe(event.end_ns - event.start_ns);
    }
  } catch (...) {
  }
}

void span(const std::string& name, const std::string& cat,
          std::int64_t start_ns, std::int64_t end_ns,
          const std::string& args) noexcept {
  const bool to_sink = tracing_enabled();
  const bool capture = job_trace_active();
  if (!to_sink && !capture) return;
  try {
    emit_trace_event(
        TraceEvent{name, cat, 'X', start_ns, end_ns - start_ns, args},
        to_sink, capture);
  } catch (...) {
  }
}

void instant(const std::string& name, const std::string& cat,
             const std::string& args) noexcept {
  const bool to_sink = tracing_enabled();
  const bool capture = job_trace_active();
  if (!to_sink && !capture) return;
  try {
    emit_trace_event(TraceEvent{name, cat, 'i', support::now_ns(), 0, args},
                     to_sink, capture);
  } catch (...) {
  }
}

RegionTimer::RegionTimer(const char* runtime, graph::KernelKind kind,
                         int threads)
    : runtime_(runtime), kind_(kind), enabled_(task_timing_enabled()) {
  if (!enabled_) return;
  const std::size_t n = threads > 0 ? static_cast<std::size_t>(threads) : 1;
  begin_ns_.assign(n, 0);
  end_ns_.assign(n, 0);
}

void RegionTimer::thread_begin(int tid) noexcept {
  prof::region_begin(runtime_, kind_);
  if (!enabled_ || tid < 0 ||
      static_cast<std::size_t>(tid) >= begin_ns_.size()) {
    return;
  }
  begin_ns_[static_cast<std::size_t>(tid)] = support::now_ns();
}

void RegionTimer::thread_end(int tid) noexcept {
  prof::region_end();
  if (!enabled_ || tid < 0 ||
      static_cast<std::size_t>(tid) >= end_ns_.size()) {
    return;
  }
  const std::size_t i = static_cast<std::size_t>(tid);
  if (begin_ns_[i] == 0) return;
  end_ns_[i] = support::now_ns();
  perf::TaskEvent ev;
  ev.kind = kind_;
  ev.worker = tid;
  ev.start_ns = begin_ns_[i];
  ev.end_ns = end_ns_[i];
  publish_task(runtime_, ev, nullptr);
}

RegionTimer::~RegionTimer() {
  if (!enabled_) return;
  try {
    std::int64_t lo = std::numeric_limits<std::int64_t>::max();
    std::int64_t hi = 0;
    int participants = 0;
    for (std::size_t i = 0; i < begin_ns_.size(); ++i) {
      if (end_ns_[i] == 0) continue;
      const std::int64_t busy = end_ns_[i] - begin_ns_[i];
      lo = std::min(lo, busy);
      hi = std::max(hi, busy);
      ++participants;
    }
    if (participants > 0 && metrics_enabled()) {
      histogram(std::string(runtime_) + ".imbalance_ns." +
                graph::to_string(kind_))
          .observe(participants > 1 ? hi - lo : 0);
    }
  } catch (...) {
  }
}

IterScope::IterScope(const char* label, int iteration) noexcept
    : label_(label), iteration_(iteration) {
  if (task_timing_enabled()) {
    start_ns_ = support::now_ns();
    hw_begin_ = prof::hw_read();
  }
}

void IterScope::metric(const char* name, double value) noexcept {
  if (!enabled() || values_ >= 4) return;
  names_[values_] = name;
  data_[values_] = value;
  ++values_;
}

IterScope::~IterScope() {
  if (!enabled()) return;
  try {
    const std::int64_t end = support::now_ns();
    const prof::HwCounts hw = prof::hw_delta(prof::hw_read(), hw_begin_);
    const int f = flags();
    if ((f & kTraceBit) != 0 || job_trace_active()) {
      std::string args;
      auto field = [&args](const char* name, const std::string& value) {
        args += args.empty() ? "{\"" : ",\"";
        args += name;
        args += "\":";
        args += value;
      };
      for (int i = 0; i < values_; ++i) {
        field(support::json_escape(names_[i]).c_str(), json_number(data_[i]));
      }
      if (hw.cycles >= 0) field("cycles", std::to_string(hw.cycles));
      if (hw.instructions >= 0) {
        field("instructions", std::to_string(hw.instructions));
      }
      if (hw.cache_misses >= 0) {
        field("cache_misses", std::to_string(hw.cache_misses));
      }
      if (!args.empty()) args += "}";
      span("iter[" + std::to_string(iteration_) + "]", label_, start_ns_, end,
           args);
    }
    if ((f & kMetricsBit) != 0) {
      const std::string label(label_);
      histogram(label + ".iter_ns").observe(end - start_ns_);
      counter(label + ".iterations").add(1);
      if (hw.cycles >= 0) histogram(label + ".iter_cycles").observe(hw.cycles);
      if (hw.instructions >= 0) {
        histogram(label + ".iter_instructions").observe(hw.instructions);
      }
      if (hw.cache_misses >= 0) {
        histogram(label + ".iter_cache_misses").observe(hw.cache_misses);
      }
    }
  } catch (...) {
  }
}

} // namespace sts::obs
