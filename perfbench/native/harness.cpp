#include "harness.hpp"

#include <omp.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>

#include "support/escape.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

void MetricSet::add(std::string name, double value, std::string unit,
                    std::size_t samples) {
  items.push_back({std::move(name), value, std::move(unit), samples});
}

void MetricSet::add_median(const std::string& name,
                           const std::vector<double>& samples,
                           const std::string& unit, double scale) {
  add(name, median(samples) * scale, unit, samples.size());
}

const Metric* MetricSet::find(const std::string& name) const {
  for (const Metric& m : items) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Outcome::record(const std::string& error) {
  ++attempted;
  if (error.empty()) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(error);
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Tracer::time(const std::string& name, int rep,
                    const std::function<void()>& fn) {
  if (!enabled_) {
    const std::int64_t t0 = now_ns();
    fn();
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, 0, 0, open_.empty() ? -1 : open_.back(), rep});
  open_.push_back(id);
  const std::int64_t t0 = now_ns();
  try {
    fn();
  } catch (...) {
    spans_[static_cast<std::size_t>(id)].start_ns = t0;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    open_.pop_back();
    throw;
  }
  const std::int64_t t1 = now_ns();
  spans_[static_cast<std::size_t>(id)].start_ns = t0;
  spans_[static_cast<std::size_t>(id)].end_ns = t1;
  open_.pop_back();
  return static_cast<double>(t1 - t0) * 1e-9;
}

int Tracer::add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
                int parent, int rep) {
  if (!enabled_) return -1;
  spans_.push_back({std::move(name), start_ns, end_ns, parent, rep});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<std::pair<std::string, double>> Tracer::self_seconds() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, std::int64_t> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.name] += (s.end_ns - s.start_ns) - child_ns[i];
  }
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [name, ns] : self) {
    out.emplace_back(name, static_cast<double>(ns) * 1e-9);
  }
  return out;
}

void Tracer::write(const std::string& path, const std::string& workload,
                   std::uint64_t seed, const MetricSet& e2e) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"workload\":\"" << sts::support::json_escape(workload)
      << "\",\"seed\":" << seed << ",\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\""
        << sts::support::json_escape(s.name)
        << "\",\"start_ns\":" << s.start_ns - t0
        << ",\"end_ns\":" << s.end_ns - t0 << ",\"parent\":" << s.parent
        << ",\"rep\":" << s.rep << "}";
  }
  out << "\n],\"self_s\":{";
  bool first = true;
  for (const auto& [name, secs] : self_seconds()) {
    out << (first ? "" : ",") << "\n\"" << sts::support::json_escape(name)
        << "\":" << secs;
    first = false;
  }
  out << "\n},\"e2e\":{";
  first = true;
  for (const Metric& m : e2e.items) {
    out << (first ? "" : ",") << "\n\"" << sts::support::json_escape(m.name)
        << "\":" << m.value;
    first = false;
  }
  out << "\n}}\n";
  if (!out) throw std::runtime_error("short write of spans to " + path);
}

namespace {

std::size_t last_level_cache_bytes() {
  for (const int level : {_SC_LEVEL4_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE,
                          _SC_LEVEL2_CACHE_SIZE}) {
    const long bytes = ::sysconf(level);
    if (bytes > 0) return static_cast<std::size_t>(bytes);
  }
  return std::size_t{32} << 20; // unreported: assume a 32 MiB LLC
}

double triad_gbps(unsigned workers, std::size_t n) {
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  std::unique_ptr<double[]> c(new double[n]);
  const auto len = static_cast<std::int64_t>(n);
  const int threads = static_cast<int>(workers);
  // Parallel first touch: each thread faults in the pages it later streams.
#pragma omp parallel for schedule(static) num_threads(threads)
  for (std::int64_t i = 0; i < len; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  std::vector<double> rates;
  const double s = 3.0;
  for (int pass = 0; pass < 4; ++pass) {
    const std::int64_t t0 = now_ns();
#pragma omp parallel for schedule(static) num_threads(threads)
    for (std::int64_t i = 0; i < len; ++i) a[i] = b[i] + s * c[i];
    const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
    // Two streams read, one written; write-allocate traffic not counted.
    if (pass > 0) rates.push_back(3.0 * 8.0 * static_cast<double>(n) / secs);
  }
  if (a[n / 2] != 7.0) throw std::runtime_error("triad produced wrong data");
  return median(rates) * 1e-9;
}

double compute_loop_seconds(std::int64_t iterations) {
  volatile double seed = 0.999999;
  double x = seed;
  const double mul = seed;
  const std::int64_t t0 = now_ns();
  for (std::int64_t i = 0; i < iterations; ++i) x = x * mul + 1e-7;
  const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
  seed = x; // keep the chain observable
  return secs;
}

} // namespace

Reference measure_reference(unsigned workers, bool small) {
  Reference r;
  r.llc_bytes = last_level_cache_bytes();
  const std::size_t total = small ? std::size_t{24} << 20 : 4 * r.llc_bytes;
  const std::size_t n = (total / 3 + 7) / 8;
  r.array_bytes = n * 8;
  r.stream_gbps = triad_gbps(workers, n);
  r.compute_loop_s = compute_loop_seconds(small ? 2'000'000 : 100'000'000);
  return r;
}

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTicks t;
  if (label != "cpu") return t;
  // user nice system idle iowait irq softirq steal [guest guest_nice]; the
  // guest fields are already counted in user and nice.
  std::uint64_t field[8] = {};
  for (std::uint64_t& f : field) {
    if (!(in >> f)) return {};
  }
  t.steal = field[7];
  for (const std::uint64_t f : field) t.total += f;
  return t;
}

double steal_share(const CpuTicks& before, const CpuTicks& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

std::vector<bool> quiet_rounds(const std::vector<double>& steal,
                               double max_steal) {
  const std::size_t want =
      std::min(steal.size(), std::max<std::size_t>(3, steal.size() / 4));
  std::vector<bool> keep(steal.size());
  std::size_t quiet = 0;
  for (std::size_t i = 0; i < steal.size(); ++i) {
    keep[i] = steal[i] <= max_steal;
    quiet += keep[i] ? 1 : 0;
  }
  if (quiet >= want) return keep;
  std::vector<std::size_t> order(steal.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return steal[a] < steal[b];
  });
  std::fill(keep.begin(), keep.end(), false);
  for (std::size_t i = 0; i < want; ++i) keep[order[i]] = true;
  return keep;
}

double rss_peak_mib() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

} // namespace perfbench
