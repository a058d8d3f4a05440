// Unified telemetry layer: activation, the shared task-event stream, and
// the instrumentation primitives used by the runtimes and solvers.
//
// Activation is environment- or CLI-driven:
//
//   STS_TRACE=<file.json>        buffer a Chrome trace, write it at exit
//   STS_METRICS=stderr|<f.csv>   dump the metrics registry at exit
//   STS_PROF=<file.folded>       sample workers, write folded stacks at exit
//   stsolve --trace=f --metrics=f --prof=f   same, per invocation
//
// and near-zero-cost when off: every instrumentation site gates on one
// relaxed atomic load before touching a clock or allocating. Enabling
// tracing buffers events in memory (~150 bytes/event) until flush().
//
// All task execution — flux tasks, ds OpenMP tasks, rgt region tasks, and
// BSP parallel-for regions — funnels through publish_task(), which fans a
// single perf::TaskEvent out to (a) the caller's perf::TraceRecorder (the
// fig10/fig13 flow-graph path), (b) the Chrome trace sink, and (c) the
// per-runtime/per-kernel latency histograms. The TraceRecorder is thus one
// consumer of the same stream the always-on telemetry uses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/tdg.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "perf/trace.hpp"

namespace sts::obs {

// -- Activation ------------------------------------------------------------

[[nodiscard]] bool tracing_enabled() noexcept;
[[nodiscard]] bool metrics_enabled() noexcept;
/// True when either sink wants per-task timestamps (gate for clock reads).
[[nodiscard]] bool task_timing_enabled() noexcept;

/// Starts buffering trace events; `path` is where flush() writes the JSON
/// (empty = buffer only, for tests that export via write_trace_json()).
/// Clears any previously buffered events.
void enable_tracing(const std::string& path);

/// Starts metrics collection; `dest` is where flush() dumps the registry:
/// "stderr" for the text form, anything else a CSV path (empty = collect
/// only).
void enable_metrics(const std::string& dest);

/// Starts the sampling profiler (obs/profiler.hpp); `path` is where flush()
/// writes the folded stacks (empty = sample only, export via
/// prof::write_folded()).
void enable_profiling(const std::string& path);

/// Stops both collectors (buffers and registry contents are kept).
void disable() noexcept;

/// Writes the configured sinks (trace JSON to its path, metrics to stderr
/// or CSV), then disables collection. Registered via atexit on first
/// activation, so an early exit — including a fault-injected failure —
/// still produces the dumps; an explicit earlier call makes the atexit one
/// a no-op.
void flush() noexcept;

/// Export without disabling (test/inspection path).
void write_trace_json(std::ostream& os);
void write_metrics_csv(std::ostream& os);

// -- Metrics handles -------------------------------------------------------
// Lookup is mutex-protected; call sites cache the returned reference in a
// function-local static. Counters/gauges/histograms accumulate for the
// process lifetime (no reset — cached references must stay valid).

Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name);

// -- Per-job trace capture -------------------------------------------------
// stsd's live-trace path: while a job trace is open, every span/instant/
// publish_task event is also buffered in a byte-bounded ring tagged with
// the job id (obs::JobTraceRing), independent of STS_TRACE. The service
// opens the window around each job's execution on its single executor, so
// worker-thread events inside the window belong to that job.

/// Byte budget for the ring; 0 disables capture (then begin_job_trace is a
/// no-op window).
void set_job_trace_capacity(std::size_t bytes) noexcept;

/// Opens the capture window for `job` (> 0). `trace_id` is the
/// client-supplied correlation id recorded in the exported JSON.
void begin_job_trace(std::uint64_t job, const std::string& trace_id) noexcept;

/// Closes the capture window.
void end_job_trace() noexcept;

/// True while a capture window is open (gate for clock reads, like
/// task_timing_enabled()).
[[nodiscard]] bool job_trace_active() noexcept;

/// Chrome trace JSON for one captured job; false when nothing is buffered
/// for it (never captured, or evicted by the byte budget).
bool write_job_trace_json(std::uint64_t job, std::ostream& os);

/// Drops every buffered job trace. A fresh stsd service calls this so a
/// previous instance's slices (whose job-id space it is about to reuse)
/// cannot bleed into its own exports.
void clear_job_traces() noexcept;

// -- Event stream ----------------------------------------------------------

/// Publishes one executed task: records into `recorder` when non-null
/// (regardless of activation; a negative event.worker, i.e. a thread
/// outside the runtime's pool, lands in the recorder's overflow lane), and
/// — when enabled — emits a Chrome span on the calling thread's track
/// (category = kernel kind) and feeds the `<runtime>.task_ns.<kernel>`
/// histogram. Never throws.
void publish_task(const char* runtime, const perf::TaskEvent& event,
                  perf::TraceRecorder* recorder) noexcept;

/// Emits a span on the calling thread's track when tracing. `args` must be
/// a pre-rendered JSON object ("{...}") or empty. Never throws.
void span(const std::string& name, const std::string& cat,
          std::int64_t start_ns, std::int64_t end_ns,
          const std::string& args = {}) noexcept;

/// Emits an instant event (fault fired, task cancelled, watchdog tripped)
/// on the calling thread's track when tracing. Never throws.
void instant(const std::string& name, const std::string& cat,
             const std::string& args = {}) noexcept;

// -- Structured helpers ----------------------------------------------------

/// Times the per-thread portions of one BSP parallel region and publishes
/// (a) one span per participating thread via publish_task and (b) the
/// barrier imbalance max(thread time) - min(thread time) into
/// `<runtime>.imbalance_ns.<kernel>`. Intended use:
///
///   RegionTimer region("bsp", kind, omp_get_max_threads());
///   #pragma omp parallel
///   {
///     region.thread_begin(omp_get_thread_num());
///     #pragma omp for nowait
///     ...
///     region.thread_end(omp_get_thread_num());
///   }  // implicit barrier; destructor publishes the imbalance
///
/// When telemetry is off the constructor is one atomic load and the
/// begin/end calls are a branch each.
class RegionTimer {
public:
  RegionTimer(const char* runtime, graph::KernelKind kind, int threads);
  ~RegionTimer();
  RegionTimer(const RegionTimer&) = delete;
  RegionTimer& operator=(const RegionTimer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void thread_begin(int tid) noexcept;
  void thread_end(int tid) noexcept;

private:
  const char* runtime_;
  graph::KernelKind kind_;
  bool enabled_;
  std::vector<std::int64_t> begin_ns_;
  std::vector<std::int64_t> end_ns_;
};

/// Scopes one solver iteration: emits a `iter[n]` span (category =
/// `label`), feeds `<label>.iter_ns`, and bumps `<label>.iterations`.
/// Up to four named values (beta, residual, ...) attach as span args, so
/// the per-iteration convergence history is readable off the trace. When
/// the kernel permits perf_event counters (see obs/profiler.hpp), the
/// iteration's cycles / instructions / LLC misses attach as span args and
/// feed `<label>.iter_{cycles,instructions,cache_misses}` histograms — the
/// paper's cache-efficiency lens on live runs.
class IterScope {
public:
  IterScope(const char* label, int iteration) noexcept;
  ~IterScope();
  IterScope(const IterScope&) = delete;
  IterScope& operator=(const IterScope&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return start_ns_ != 0; }
  void metric(const char* name, double value) noexcept;

private:
  const char* label_;
  int iteration_;
  std::int64_t start_ns_ = 0;
  int values_ = 0;
  const char* names_[4] = {};
  double data_[4] = {};
  prof::HwCounts hw_begin_;
};

} // namespace sts::obs
