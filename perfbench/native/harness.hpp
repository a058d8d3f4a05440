// Measurement plumbing shared by every workload of the native benchmark:
// order statistics, the metric report, in-memory spans, and the host
// reference probes (streaming bandwidth and a fixed compute loop).
//
// Everything here times from outside the library: a span is opened and
// closed by the benchmark around a public call, never inside src/.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------- stats

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

/// Linear-interpolated percentile, p in [0, 100]; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> v, double p);

// --------------------------------------------------------------- report

/// One printed metric. `samples` is the number of timed repetitions the
/// value summarizes (1 for a single measurement or an exact count).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
};

/// An ordered set of metrics, printed in insertion order.
struct MetricSet {
  std::vector<Metric> items;

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 1);
  /// Adds the median of `samples`, times `scale`, under `name`.
  void add_median(const std::string& name, const std::vector<double>& samples,
                  const std::string& unit, double scale = 1.0);
  /// The metric called `name`, or null.
  [[nodiscard]] const Metric* find(const std::string& name) const;
};

/// What a workload run hands back to main(): the end-to-end metrics, the
/// per-layer metrics (filled by traced runs only), and the operation
/// accounting the result line reports.
struct Outcome {
  MetricSet e2e;
  MetricSet layer;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures; // first few failed-check messages

  /// Counts one operation; a non-empty `error` counts it failed.
  void record(const std::string& error);
};

// ---------------------------------------------------------------- spans

/// One timed interval recorded by the benchmark around a call into the
/// library. `parent` indexes the enclosing span (-1 at top level) and
/// `rep` the timed repetition it belongs to (-1 for set-up and probes).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int rep = -1;
};

/// In-memory span recorder. Disabled tracers record nothing; time()
/// measures either way, so end-to-end timings never depend on tracing.
class Tracer {
public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Runs `fn` and returns its wall time in seconds, recording a span
  /// named `name` (nested under any span still open) when enabled.
  double time(const std::string& name, int rep,
              const std::function<void()>& fn);

  /// Appends an already-timed span (e.g. one measured on another thread)
  /// and returns its index for use as a parent; -1 when disabled.
  int add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, int rep);

  /// Per span name: total self time, the span's duration minus the part
  /// covered by its direct children.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_seconds()
      const;

  /// Writes every span, the self-time table and the run's end-to-end
  /// metrics (to compare with an untraced run) as one JSON document.
  void write(const std::string& path, const std::string& workload,
             std::uint64_t seed, const MetricSet& e2e) const;

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_; // stack of open span indices
};

// ------------------------------------------------------------ reference

/// Host reference measured in every run and reported but never gated, so
/// a reader can tell a slow host from a slow change.
struct Reference {
  double stream_gbps = 0.0;     // triad a = b + s*c, `workers` threads
  double compute_loop_s = 0.0;  // fixed single-thread dependent FP chain
  std::size_t llc_bytes = 0;    // last-level cache the host reports
  std::size_t array_bytes = 0;  // bytes of one triad array
};

/// Measures the reference. The three triad arrays together span at least
/// four times the reported LLC. `small` shrinks both probes for smoke runs.
[[nodiscard]] Reference measure_reference(unsigned workers, bool small);

/// Cumulative CPU time of the whole machine from the aggregate `cpu` line
/// of /proc/stat, in clock ticks: the part the hypervisor stole for other
/// guests, and the total. Both zero where the file or its steal column is
/// missing.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
[[nodiscard]] CpuTicks cpu_ticks();

/// Share of the machine's CPU time stolen between two readings; 0 when
/// nothing was counted.
[[nodiscard]] double steal_share(const CpuTicks& before, const CpuTicks& after);

/// Which timed rounds to summarize, given each round's steal share: those
/// with at most `max_steal`, or, when fewer than a quarter of the rounds
/// (and at least three) qualify, that many rounds with the least steal.
[[nodiscard]] std::vector<bool> quiet_rounds(const std::vector<double>& steal,
                                             double max_steal);

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double rss_peak_mib();

/// Nanoseconds on the steady clock.
[[nodiscard]] std::int64_t now_ns();

} // namespace perfbench
