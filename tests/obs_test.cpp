// Telemetry layer tests (ctest label "obs"): histogram quantile edge cases,
// concurrent counter increments (exercised under STS_SANITIZE=thread),
// string escaping, metrics CSV shape, and a full round trip — run a solver
// with tracing enabled, export the Chrome trace JSON, re-parse it, and
// check event nesting and timestamp sanity per thread track.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/expo.hpp"
#include "obs/obs.hpp"
#include "solvers/lanczos.hpp"
#include "sparse/generators.hpp"
#include "support/escape.hpp"
#include "support/timer.hpp"

namespace sts {
namespace {

using solver::Version;

// ---------------------------------------------------------------------------
// A deliberately strict, minimal JSON parser — enough to round-trip what the
// trace exporter emits. Any deviation from valid JSON fails the test.
// ---------------------------------------------------------------------------

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  [[nodiscard]] const Json* find(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json parse error at byte " +
                             std::to_string(pos_) + ": " + why);
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\r' ||
            s_[pos_] == '\t')) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  Json value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': {
        Json v;
        v.kind = Json::Kind::kString;
        v.string = string();
        return v;
      }
      case 't':
      case 'f': return boolean();
      case 'n': {
        literal("null");
        return Json{};
      }
      default: return number();
    }
  }
  void literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) expect(*p);
  }
  Json boolean() {
    Json v;
    v.kind = Json::Kind::kBool;
    if (peek() == 't') {
      literal("true");
      v.boolean = true;
    } else {
      literal("false");
    }
    return v;
  }
  Json number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a number");
    Json v;
    v.kind = Json::Kind::kNumber;
    v.number = std::stod(s_.substr(start, pos_ - start));
    return v;
  }
  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) fail("dangling escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u digit");
            }
          }
          // The exporter only emits \u00XX for control bytes.
          out.push_back(static_cast<char>(code & 0xFF));
          break;
        }
        default: fail("unknown escape");
      }
    }
  }
  Json array() {
    expect('[');
    Json v;
    v.kind = Json::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }
  Json object() {
    expect('{');
    Json v;
    v.kind = Json::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.object[std::move(key)] = value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

Json export_and_parse() {
  std::ostringstream os;
  obs::write_trace_json(os);
  return JsonParser(os.str()).parse();
}

// ---------------------------------------------------------------------------
// Histogram quantile edge cases
// ---------------------------------------------------------------------------

TEST(Histogram, EmptyHistogramReportsZeros) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.quantile(0.99), 0.0);
}

TEST(Histogram, SingleSampleQuantilesLandInItsBucket) {
  obs::Histogram h;
  h.observe(700); // bucket [512, 1024)
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 700);
  EXPECT_EQ(h.max(), 700);
  for (const double p : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    const double q = h.quantile(p);
    EXPECT_GE(q, 512.0) << "p=" << p;
    EXPECT_LE(q, 1024.0) << "p=" << p;
  }
}

TEST(Histogram, AllSamplesInOneBucketStayInThatBucket) {
  obs::Histogram h;
  for (int i = 0; i < 1000; ++i) h.observe(700);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum(), 700 * 1000);
  const double p50 = h.quantile(0.50);
  const double p95 = h.quantile(0.95);
  const double p99 = h.quantile(0.99);
  EXPECT_GE(p50, 512.0);
  EXPECT_LE(p99, 1024.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
}

TEST(Histogram, QuantilesAreMonotoneAcrossBuckets) {
  obs::Histogram h;
  for (std::int64_t v : {1, 3, 9, 70, 700, 7000, 70000, 700000}) {
    h.observe(v);
  }
  double prev = -1.0;
  for (double p = 0.0; p <= 1.0; p += 0.05) {
    const double q = h.quantile(p);
    EXPECT_GE(q, prev) << "p=" << p;
    prev = q;
  }
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 700000);
}

TEST(Histogram, TinyAndNegativeValuesFoldIntoBucketZero) {
  obs::Histogram h;
  h.observe(-5);
  h.observe(0);
  h.observe(1);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_LE(h.quantile(1.0), 2.0);
  // Negative observes still land in the sum and min as-is.
  EXPECT_EQ(h.sum(), -4);
  EXPECT_EQ(h.min(), -5);
  EXPECT_EQ(h.max(), 1);
}

TEST(Histogram, HugeValuesSaturateTheTopBucketWithoutOverflow) {
  obs::Histogram h;
  h.observe(std::numeric_limits<std::int64_t>::max());
  h.observe(std::int64_t{1} << 62);
  h.observe(1);
  const obs::Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.max, std::numeric_limits<std::int64_t>::max());
  // Bucket counts must cover every observation — the giants saturate into
  // the top bucket rather than indexing out of range.
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, 3u);
  EXPECT_GE(s.buckets.back(), 2u);
  // Quantiles stay finite and monotone even with a saturated top bucket.
  const double p50 = s.quantile(0.50);
  const double p99 = s.quantile(0.99);
  EXPECT_LE(p50, p99);
  EXPECT_GT(p99, 0.0);
}

TEST(Histogram, SnapshotIsSelfConsistent) {
  obs::Histogram h;
  for (int i = 1; i <= 100; ++i) h.observe(i);
  const obs::Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.sum, 5050);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, 100);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
  // A snapshot must not consume the data: the next one sees the same counts.
  const obs::Histogram::Snapshot again = h.snapshot();
  EXPECT_EQ(again.count, s.count);
  EXPECT_EQ(again.sum, s.sum);
}

TEST(Histogram, EmptySnapshotQuantilesAreZero) {
  obs::Histogram h;
  const obs::Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0);
  EXPECT_EQ(s.quantile(0.5), 0.0);
  EXPECT_EQ(s.quantile(0.99), 0.0);
}

// The seed's metric dumps could race in-flight observe() calls and render a
// torn count/sum pair. The hot/cold snapshot must always be coherent:
// every snapshot taken mid-storm sees sum == value * count exactly.
TEST(Histogram, ConcurrentObserveAndSnapshotStayCoherent) {
  obs::Histogram& h = obs::histogram("obs_test.snapshot_storm");
  constexpr std::int64_t kValue = 700;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 50000;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kPerWriter; ++i) h.observe(kValue);
    });
  }
  go.store(true, std::memory_order_release);
  // Snapshot continuously while the writers hammer. Coherence invariant:
  // the sum is exactly value*count — a torn read would break it.
  std::uint64_t last_count = 0;
  for (int round = 0; round < 200; ++round) {
    const obs::Histogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.sum, kValue * static_cast<std::int64_t>(s.count));
    std::uint64_t bucket_total = 0;
    for (const std::uint64_t b : s.buckets) bucket_total += b;
    EXPECT_EQ(bucket_total, s.count);
    EXPECT_GE(s.count, last_count); // monotone across snapshots
    last_count = s.count;
  }
  for (std::thread& w : writers) w.join();
  const obs::Histogram::Snapshot fin = h.snapshot();
  EXPECT_EQ(fin.count, static_cast<std::uint64_t>(kWriters) * kPerWriter);
  EXPECT_EQ(fin.sum, kValue * static_cast<std::int64_t>(fin.count));
}

// Same storm against the full-registry dumps (CSV and Prometheus): both
// render from one RegistrySnapshot, so rows must be internally coherent.
TEST(Registry, ConcurrentDumpsDuringObserveStormAreCoherent) {
  obs::Histogram& h = obs::histogram("obs_test.dump_storm");
  constexpr std::int64_t kValue = 48;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_acquire)) h.observe(kValue);
  });
  for (int round = 0; round < 50; ++round) {
    std::ostringstream os;
    obs::write_metrics_csv(os);
    std::istringstream lines(os.str());
    std::string line;
    while (std::getline(lines, line)) {
      if (line.rfind("obs_test.dump_storm,", 0) != 0) continue;
      std::vector<std::string> f;
      std::istringstream fs(line);
      std::string field;
      while (std::getline(fs, field, ',')) f.push_back(field);
      ASSERT_EQ(f.size(), 9u) << line;
      // value column holds the sum, count column the count.
      const std::int64_t sum = std::stoll(f[2]);
      const std::int64_t count = std::stoll(f[3]);
      EXPECT_EQ(sum, kValue * count) << line;
    }
  }
  stop.store(true, std::memory_order_release);
  writer.join();
}

// ---------------------------------------------------------------------------
// Counter / gauge semantics (TSan builds check the data-race freedom)
// ---------------------------------------------------------------------------

TEST(Counter, ConcurrentIncrementsAllLand) {
  obs::Counter& c = obs::counter("obs_test.concurrent");
  const std::uint64_t before = c.value();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add(1);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.value() - before,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Registry, SameNameYieldsSameMetric) {
  obs::Counter& a = obs::counter("obs_test.same");
  obs::Counter& b = obs::counter("obs_test.same");
  EXPECT_EQ(&a, &b);
  obs::Histogram& ha = obs::histogram("obs_test.same_h");
  obs::Histogram& hb = obs::histogram("obs_test.same_h");
  EXPECT_EQ(&ha, &hb);
}

TEST(Gauge, TracksValueAndPeakIndependently) {
  obs::Gauge& g = obs::gauge("obs_test.gauge");
  g.observe(5);
  g.observe(3);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.peak(), 5);
}

// ---------------------------------------------------------------------------
// String escaping
// ---------------------------------------------------------------------------

TEST(Escape, JsonEscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(support::json_escape("plain"), "plain");
  EXPECT_EQ(support::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(support::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(support::json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(support::json_escape(std::string_view("a\x01z", 3)), "a\\u0001z");
}

TEST(Escape, CsvQuotesOnlyWhenNeeded) {
  EXPECT_EQ(support::csv_field("plain"), "plain");
  EXPECT_EQ(support::csv_field("a,b"), "\"a,b\"");
  EXPECT_EQ(support::csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(support::csv_field("line\nbreak"), "\"line\nbreak\"");
}

TEST(Metrics, CsvDumpEscapesNamesAndOrdersQuantiles) {
  obs::counter("obs_test.csv,comma").add(3);
  obs::Histogram& h = obs::histogram("obs_test.csv_hist");
  for (int i = 1; i <= 100; ++i) h.observe(i * 10);
  std::ostringstream os;
  obs::write_metrics_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("name,type,value,count,min,max,p50,p95,p99"),
            std::string::npos);
  EXPECT_NE(csv.find("\"obs_test.csv,comma\",counter,3"), std::string::npos);

  // Pull the histogram row apart and check p50 <= p95 <= p99.
  std::istringstream lines(csv);
  std::string line;
  bool found = false;
  while (std::getline(lines, line)) {
    if (line.rfind("obs_test.csv_hist,", 0) != 0) continue;
    found = true;
    std::vector<std::string> fields;
    std::istringstream fs(line);
    std::string field;
    while (std::getline(fs, field, ',')) fields.push_back(field);
    ASSERT_EQ(fields.size(), 9u) << line;
    const double p50 = std::stod(fields[6]);
    const double p95 = std::stod(fields[7]);
    const double p99 = std::stod(fields[8]);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_GT(p50, 0.0);
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Trace export round trip
// ---------------------------------------------------------------------------

TEST(Trace, SpanNamesWithQuotesSurviveTheRoundTrip) {
  obs::enable_tracing("");
  const std::int64_t t0 = support::now_ns();
  obs::span("name \"quoted\" \\slash", "cat,comma", t0, t0 + 1000);
  obs::instant("fault:spmv_block", "fault");
  const Json doc = export_and_parse();
  obs::disable();

  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, Json::Kind::kArray);
  bool saw_span = false;
  bool saw_instant = false;
  for (const Json& ev : events->array) {
    const Json* name = ev.find("name");
    const Json* ph = ev.find("ph");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(ph, nullptr);
    if (name->string == "name \"quoted\" \\slash") {
      saw_span = true;
      EXPECT_EQ(ph->string, "X");
      EXPECT_EQ(ev.find("cat")->string, "cat,comma");
    }
    if (name->string == "fault:spmv_block") {
      saw_instant = true;
      EXPECT_EQ(ph->string, "i");
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
}

struct ParsedTrack {
  std::vector<const Json*> spans; // ph == "X", in file order
};

/// Spans on one track must nest: sorted by start, each next span either
/// starts at/after the previous top's end (sibling) or ends at/before it
/// (child). Partial overlap is a malformed trace.
void check_nesting(const std::vector<const Json*>& spans) {
  std::vector<std::pair<double, double>> sorted;
  sorted.reserve(spans.size());
  for (const Json* ev : spans) {
    const double ts = ev->find("ts")->number;
    const double dur = ev->find("dur")->number;
    ASSERT_GE(dur, 0.0);
    sorted.emplace_back(ts, ts + dur);
  }
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::pair<double, double>> stack;
  for (const auto& [begin, end] : sorted) {
    while (!stack.empty() && begin >= stack.back().second) stack.pop_back();
    if (!stack.empty()) {
      EXPECT_LE(end, stack.back().second + 1e-6)
          << "span [" << begin << ", " << end
          << ") partially overlaps an earlier span on the same track";
    }
    stack.emplace_back(begin, end);
  }
}

class TraceRoundTrip : public ::testing::TestWithParam<Version> {};

TEST_P(TraceRoundTrip, SolverRunExportsAWellFormedChromeTrace) {
  const sparse::Coo coo = sparse::gen_fem3d(5, 5, 5, 1, 31);
  const sparse::Csr csr = sparse::Csr::from_coo(coo);
  const sparse::Csb csb = sparse::Csb::from_coo(coo, 32);
  solver::SolverOptions options;
  options.block_size = 32;
  options.threads = 2;

  obs::enable_tracing(""); // buffer only; also clears earlier events
  const auto r = solver::lanczos(csr, csb, 6, GetParam(), options);
  const Json doc = export_and_parse();
  obs::disable();
  ASSERT_GE(r.timing.iterations, 1);

  ASSERT_EQ(doc.kind, Json::Kind::kObject);
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, Json::Kind::kArray);

  std::map<double, ParsedTrack> tracks;
  std::map<double, double> last_end; // per tid, event completion order
  std::map<double, std::vector<std::pair<double, double>>> iters; // per tid
  std::vector<std::pair<double, double>> kernels; // (tid, ts)
  int iter_spans = 0;
  int kernel_spans = 0;
  for (const Json& ev : events->array) {
    const Json* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "M") continue; // thread_name metadata
    const Json* ts = ev.find("ts");
    const Json* tid = ev.find("tid");
    ASSERT_NE(ts, nullptr);
    ASSERT_NE(tid, nullptr);
    EXPECT_GE(ts->number, 0.0); // rebased to the earliest event
    if (ph->string != "X") continue;
    const Json* dur = ev.find("dur");
    ASSERT_NE(dur, nullptr);
    tracks[tid->number].spans.push_back(&ev);
    // Events are pushed at completion: per track, end times never go back.
    const double end = ts->number + dur->number;
    const auto it = last_end.find(tid->number);
    if (it != last_end.end()) {
      EXPECT_GE(end, it->second - 1e-6);
    }
    last_end[tid->number] = end;

    const std::string& name = ev.find("name")->string;
    const std::string& cat = ev.find("cat")->string;
    if (name.rfind("iter[", 0) == 0) {
      ++iter_spans;
      EXPECT_NE(cat.find("lanczos."), std::string::npos);
      iters[tid->number].emplace_back(ts->number, end);
    }
    if (cat == "spmv" || cat == "spmm") {
      ++kernel_spans;
      kernels.emplace_back(tid->number, ts->number);
    }
  }
  EXPECT_EQ(iter_spans, r.timing.iterations);
  EXPECT_GT(kernel_spans, 0);
  for (const auto& [tid, track] : tracks) check_nesting(track.spans);
  // flux runs kernels on dedicated workers, away from the calling
  // thread's track.
  if (GetParam() == Version::kFlux) {
    EXPECT_GE(tracks.size(), 2u);
  }
  // rgt's launching thread also runs kernels, but only while it waits in
  // an iteration's wait_all(): a kernel on the calling thread's track lies
  // inside one of its iteration spans.
  if (GetParam() == Version::kRgt) {
    for (const auto& [tid, ts] : kernels) {
      const auto it = iters.find(tid);
      if (it == iters.end()) continue; // a pool worker's track
      const bool inside = std::any_of(
          it->second.begin(), it->second.end(),
          [ts = ts](const auto& span) {
            return ts >= span.first && ts <= span.second;
          });
      EXPECT_TRUE(inside) << "kernel at " << ts
                          << " on the calling thread's track, outside"
                          << " every iteration span";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllVersions, TraceRoundTrip,
                         ::testing::ValuesIn(solver::kAllVersions),
                         [](const ::testing::TestParamInfo<Version>& info) {
                           std::string name = solver::to_string(info.param);
                           for (char& c : name) {
                             if (std::isalnum(
                                     static_cast<unsigned char>(c)) == 0) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(Trace, SchedulerMetricsSurfaceStealAndLatencyData) {
  const sparse::Coo coo = sparse::gen_fem3d(5, 5, 5, 1, 31);
  const sparse::Csr csr = sparse::Csr::from_coo(coo);
  const sparse::Csb csb = sparse::Csb::from_coo(coo, 32);
  solver::SolverOptions options;
  options.block_size = 32;
  options.threads = 2;

  obs::enable_metrics(""); // collect only
  (void)solver::lanczos(csr, csb, 6, Version::kFlux, options);
  std::ostringstream os;
  obs::write_metrics_csv(os);
  obs::disable();
  const std::string csv = os.str();

  // The flux run must surface the scheduler counters and the per-kernel
  // latency histograms the issue calls out.
  EXPECT_NE(csv.find("flux.steals,counter"), std::string::npos);
  EXPECT_NE(csv.find("flux.cross_domain_steals,counter"), std::string::npos);
  EXPECT_NE(csv.find("flux.queue_depth,histogram"), std::string::npos);
  EXPECT_NE(csv.find("flux.task_wait_ns,histogram"), std::string::npos);
  EXPECT_NE(csv.find("flux.task_run_ns,histogram"), std::string::npos);
  EXPECT_NE(csv.find("flux.task_ns.spmv,histogram"), std::string::npos);
  EXPECT_NE(csv.find("lanczos.flux.iterations,counter"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

bool valid_prom_name(const std::string& name) {
  if (name.empty()) return false;
  if (std::isalpha(static_cast<unsigned char>(name[0])) == 0 &&
      name[0] != '_') {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
  });
}

TEST(Prometheus, NamesArePrefixedAndSanitized) {
  EXPECT_EQ(obs::prometheus_name("svc.queue_depth"), "sts_svc_queue_depth");
  EXPECT_EQ(obs::prometheus_name("flux.task_ns.spmv"),
            "sts_flux_task_ns_spmv");
  EXPECT_EQ(obs::prometheus_name("weird,name with spaces"),
            "sts_weird_name_with_spaces");
  EXPECT_TRUE(valid_prom_name(obs::prometheus_name("1leading.digit")));
}

TEST(Prometheus, ExpositionIsWellFormedAndCoversAllMetricKinds) {
  obs::counter("obs_test.prom_counter").add(7);
  obs::gauge("obs_test.prom_gauge").observe(42);
  obs::Histogram& h = obs::histogram("obs_test.prom_hist");
  for (int i = 1; i <= 100; ++i) h.observe(i * 10);

  std::ostringstream os;
  obs::write_prometheus(os);
  const std::string text = os.str();

  // Every non-comment line must be `<name>[{labels}] <value>` with a valid
  // metric name and a parseable number; every # TYPE must precede its
  // samples.
  std::istringstream lines(text);
  std::string line;
  std::map<std::string, std::string> typed; // prom name -> type
  std::map<std::string, bool> sampled;      // prom name -> sample seen
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, kind, name, rest;
      ls >> hash >> kind >> name;
      ASSERT_TRUE(kind == "HELP" || kind == "TYPE") << line;
      EXPECT_TRUE(valid_prom_name(name)) << line;
      if (kind == "TYPE") {
        ls >> rest;
        ASSERT_TRUE(rest == "counter" || rest == "gauge" ||
                    rest == "summary")
            << line;
        EXPECT_FALSE(sampled[name]) << "# TYPE after samples: " << line;
        typed[name] = rest;
      }
      continue;
    }
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string series = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    EXPECT_NO_THROW((void)std::stod(value)) << line;
    std::string labels;
    if (const std::size_t brace = series.find('{');
        brace != std::string::npos) {
      ASSERT_EQ(series.back(), '}') << line;
      labels = series.substr(brace + 1, series.size() - brace - 2);
      series.resize(brace);
    }
    EXPECT_TRUE(valid_prom_name(series)) << line;
    if (!labels.empty()) {
      EXPECT_EQ(labels.rfind("quantile=\"", 0), 0u) << line;
      EXPECT_EQ(labels.back(), '"') << line;
    }
    // Strip the data-model suffixes to find the family the TYPE names.
    std::string family = series;
    for (const char* suffix : {"_total", "_sum", "_count", "_peak"}) {
      const std::size_t n = std::string(suffix).size();
      if (family.size() > n && family.compare(family.size() - n, n, suffix) == 0) {
        family.resize(family.size() - n);
        break;
      }
    }
    if (typed.count(family) != 0) sampled[family] = true;
    if (typed.count(series) != 0) sampled[series] = true;
  }

  EXPECT_EQ(typed["sts_obs_test_prom_counter"], "counter");
  EXPECT_EQ(typed["sts_obs_test_prom_gauge"], "gauge");
  EXPECT_EQ(typed["sts_obs_test_prom_hist"], "summary");
  EXPECT_NE(text.find("sts_obs_test_prom_counter_total 7"),
            std::string::npos);
  EXPECT_NE(text.find("sts_obs_test_prom_gauge 42"), std::string::npos);
  EXPECT_NE(text.find("sts_obs_test_prom_hist{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("sts_obs_test_prom_hist{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("sts_obs_test_prom_hist_count 100"),
            std::string::npos);
  // The HELP line preserves the dotted registry name for greppability.
  EXPECT_NE(text.find("obs_test.prom_hist"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Sampling profiler + hardware counters
// ---------------------------------------------------------------------------

TEST(Profiler, TaskMarksShowUpInFoldedOutput) {
  obs::prof::reset_samples();
  obs::prof::start_sampling(2000.0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  // Keep a spmv mark live until the sampler has demonstrably swept it.
  while (obs::prof::sample_count() < 5 &&
         std::chrono::steady_clock::now() < deadline) {
    const obs::prof::TaskMark mark("flux", graph::KernelKind::kSpMV);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  obs::prof::stop_sampling();
  EXPECT_FALSE(obs::prof::sampling_active());
  ASSERT_GE(obs::prof::sample_count(), 5u);

  std::ostringstream os;
  obs::prof::write_folded(os);
  const std::string folded = os.str();
  EXPECT_NE(folded.find("flux;spmv "), std::string::npos) << folded;
  // Every line is `stack count` with a positive integer count.
  std::istringstream lines(folded);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(std::stoull(line.substr(space + 1)), 0u) << line;
    EXPECT_NE(line.find(';'), std::string::npos) << line;
  }
  obs::prof::reset_samples();
  EXPECT_EQ(obs::prof::sample_count(), 0u);
}

TEST(Profiler, NestedMarksRestoreTheOuterState) {
  obs::prof::reset_samples();
  obs::prof::start_sampling(2000.0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (obs::prof::sample_count() < 5 &&
         std::chrono::steady_clock::now() < deadline) {
    const obs::prof::TaskMark outer("rgt", graph::KernelKind::kSpMM);
    {
      const obs::prof::TaskMark inner("rgt", graph::KernelKind::kReduce);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  obs::prof::stop_sampling();
  std::ostringstream os;
  obs::prof::write_folded(os);
  const std::string folded = os.str();
  // Both frames appear; the inner mark didn't wipe the outer runtime.
  EXPECT_NE(folded.find("rgt;"), std::string::npos) << folded;
  obs::prof::reset_samples();
}

TEST(Profiler, HwCountersDegradeGracefully) {
  // Whatever the kernel allows (perf_event_paranoid, seccomp, no PMU),
  // these calls must never throw and -1 must propagate through deltas.
  const bool available = obs::prof::hw_counters_available();
  const obs::prof::HwCounts a = obs::prof::hw_read();
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
  const obs::prof::HwCounts b = obs::prof::hw_read();
  const obs::prof::HwCounts d = obs::prof::hw_delta(b, a);
  if (available) {
    EXPECT_TRUE(b.any());
    if (a.cycles >= 0 && b.cycles >= 0) {
      EXPECT_GE(d.cycles, 0);
    }
    if (a.instructions >= 0 && b.instructions >= 0) {
      EXPECT_GT(d.instructions, 0);
    }
  } else {
    EXPECT_EQ(a.cycles, -1);
    EXPECT_EQ(d.cycles, -1);
    EXPECT_FALSE(d.any());
  }
  // Missing on either side stays missing in the delta.
  obs::prof::HwCounts missing;
  const obs::prof::HwCounts dm = obs::prof::hw_delta(b, missing);
  EXPECT_EQ(dm.cycles, -1);
  EXPECT_EQ(dm.instructions, -1);
  EXPECT_EQ(dm.cache_misses, -1);
}

// ---------------------------------------------------------------------------
// Per-job trace ring
// ---------------------------------------------------------------------------

TEST(JobTrace, CapturesEventsForTheActiveJobOnly) {
  obs::set_job_trace_capacity(std::size_t{1} << 20);
  const std::int64_t t0 = support::now_ns();

  obs::begin_job_trace(101, "trace-aaa");
  EXPECT_TRUE(obs::job_trace_active());
  obs::span("job101:work", "svc", t0, t0 + 5000);
  obs::instant("job101:mark", "svc");
  obs::end_job_trace();
  EXPECT_FALSE(obs::job_trace_active());

  // Events emitted outside any capture window belong to no job.
  obs::span("orphan:work", "svc", t0, t0 + 1000);

  obs::begin_job_trace(102, "trace-bbb");
  obs::span("job102:work", "svc", t0, t0 + 3000);
  obs::end_job_trace();

  std::ostringstream os;
  ASSERT_TRUE(obs::write_job_trace_json(101, os));
  const Json doc = JsonParser(os.str()).parse();
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, Json::Kind::kArray);
  bool saw_work = false;
  bool saw_mark = false;
  bool saw_trace_id = false;
  for (const Json& ev : events->array) {
    const std::string& name = ev.find("name")->string;
    EXPECT_EQ(name.find("job102"), std::string::npos) << "cross-job leak";
    EXPECT_EQ(name.find("orphan"), std::string::npos) << "orphan leak";
    if (name == "job101:work") saw_work = true;
    if (name == "job101:mark") saw_mark = true;
    if (name == "process_name" &&
        ev.find("args")->find("name")->string.find("trace-aaa") !=
            std::string::npos) {
      saw_trace_id = true;
    }
  }
  EXPECT_TRUE(saw_work);
  EXPECT_TRUE(saw_mark);
  EXPECT_TRUE(saw_trace_id);

  std::ostringstream os2;
  EXPECT_TRUE(obs::write_job_trace_json(102, os2));
  std::ostringstream os3;
  EXPECT_FALSE(obs::write_job_trace_json(9999, os3)) << "unknown job";
}

TEST(JobTrace, ByteBudgetEvictsOldestJobsFirst) {
  // A budget big enough for one job's events but not two: job 2 must push
  // job 1 out entirely.
  obs::set_job_trace_capacity(8 * 1024);
  const std::int64_t t0 = support::now_ns();
  for (std::uint64_t job = 201; job <= 202; ++job) {
    obs::begin_job_trace(job, "t" + std::to_string(job));
    for (int i = 0; i < 100; ++i) {
      obs::span("ev" + std::to_string(i), "svc", t0 + i * 10, t0 + i * 10 + 5);
    }
    obs::end_job_trace();
  }
  std::ostringstream evicted;
  EXPECT_FALSE(obs::write_job_trace_json(201, evicted));
  std::ostringstream kept;
  ASSERT_TRUE(obs::write_job_trace_json(202, kept));
  EXPECT_NO_THROW((void)JsonParser(kept.str()).parse());
  obs::set_job_trace_capacity(std::size_t{4} << 20); // restore default
}

TEST(JobTrace, ZeroCapacityDisablesCapture) {
  obs::set_job_trace_capacity(0);
  obs::begin_job_trace(301, "nope");
  EXPECT_FALSE(obs::job_trace_active());
  obs::span("q", "svc", 0, 100);
  obs::end_job_trace();
  std::ostringstream os;
  EXPECT_FALSE(obs::write_job_trace_json(301, os));
  obs::set_job_trace_capacity(std::size_t{4} << 20);
}

} // namespace
} // namespace sts
