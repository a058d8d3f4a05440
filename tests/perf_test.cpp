#include <gtest/gtest.h>

#include <sstream>

#include "obs/obs.hpp"
#include "perf/profiles.hpp"
#include "perf/trace.hpp"

namespace sts::perf {
namespace {

TaskEvent ev(graph::KernelKind kind, int worker, std::int64_t start,
             std::int64_t end) {
  TaskEvent e;
  e.kind = kind;
  e.worker = worker;
  e.start_ns = start;
  e.end_ns = end;
  return e;
}

TEST(TraceRecorder, MergesAndRebasesLanes) {
  TraceRecorder rec(2);
  rec.record(0, ev(graph::KernelKind::kSpMM, 0, 1000, 1500));
  rec.record(1, ev(graph::KernelKind::kXY, 1, 1200, 1400));
  rec.record(0, ev(graph::KernelKind::kXTY, 0, 1600, 1700));
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].start_ns, 0);   // rebased to earliest start
  EXPECT_EQ(events[0].kind, graph::KernelKind::kSpMM);
  EXPECT_EQ(events[1].start_ns, 200);
  EXPECT_EQ(events[2].end_ns, 700);
}

TEST(TraceRecorder, ClearEmptiesLanes) {
  TraceRecorder rec(1);
  rec.record(0, ev(graph::KernelKind::kSpMM, 0, 0, 10));
  rec.clear();
  EXPECT_TRUE(rec.events().empty());
}

TEST(TraceRecorder, OutOfRangeWorkerLandsInOverflowLane) {
  // Regression: a worker id at/past the lane count (e.g. a helper thread
  // the caller did not size for) must not crash or drop the event.
  TraceRecorder rec(2);
  rec.record(0, ev(graph::KernelKind::kSpMM, 0, 100, 200));
  rec.record(2, ev(graph::KernelKind::kXY, 2, 150, 250));    // == lanes
  rec.record(99, ev(graph::KernelKind::kXTY, 99, 300, 400)); // way past
  EXPECT_EQ(rec.overflow_count(), 2u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 3u); // overflow events merge into events()
  bool saw_xy = false;
  bool saw_xty = false;
  for (const auto& e : events) {
    if (e.kind == graph::KernelKind::kXY) saw_xy = true;
    if (e.kind == graph::KernelKind::kXTY) saw_xty = true;
  }
  EXPECT_TRUE(saw_xy);
  EXPECT_TRUE(saw_xty);
  rec.clear();
  EXPECT_EQ(rec.overflow_count(), 0u);
  EXPECT_TRUE(rec.events().empty());
}

TEST(TraceRecorder, PublishedHelperEventLandsInOverflowLane) {
  // Regression: a thread outside the pool (worker -1, e.g. the main thread
  // helping inside future::get) must not share worker 0's unlocked lane.
  TraceRecorder rec(2);
  obs::publish_task("flux", ev(graph::KernelKind::kSpMM, -1, 0, 10), &rec);
  obs::publish_task("flux", ev(graph::KernelKind::kXY, 0, 5, 15), &rec);
  EXPECT_EQ(rec.overflow_count(), 1u);
  EXPECT_EQ(rec.events().size(), 2u);
}

TEST(FlowGraph, CountsConcurrency) {
  std::vector<TaskEvent> events = {
      ev(graph::KernelKind::kSpMM, 0, 0, 100),
      ev(graph::KernelKind::kSpMM, 1, 0, 100),
      ev(graph::KernelKind::kXY, 0, 100, 200),
  };
  const FlowGraph fg = build_flow_graph(events, 2);
  ASSERT_EQ(fg.kinds.size(), 2u);
  ASSERT_EQ(fg.counts.size(), 2u);
  // Bucket 0 has two concurrent spmm tasks, bucket 1 one xy task.
  EXPECT_NEAR(fg.counts[0][0], 2.0, 1e-9);
  EXPECT_NEAR(fg.counts[1][1], 1.0, 1e-9);
}

TEST(FlowGraph, EmptyTraceHandled) {
  const FlowGraph fg = build_flow_graph({}, 4);
  EXPECT_TRUE(fg.kinds.empty());
  std::ostringstream os;
  render_flow_graph(os, fg);
  EXPECT_NE(os.str().find("empty"), std::string::npos);
}

TEST(FlowGraph, CsvHasHeaderAndRows) {
  std::vector<TaskEvent> events = {ev(graph::KernelKind::kSpMV, 0, 0, 50)};
  const FlowGraph fg = build_flow_graph(events, 5);
  std::ostringstream os;
  write_flow_graph_csv(os, fg);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("time_ms,spmv"), std::string::npos);
  // header + 5 buckets
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 6);
}

TEST(FlowGraph, RenderShowsKernelRows) {
  std::vector<TaskEvent> events = {
      ev(graph::KernelKind::kSpMM, 0, 0, 100),
      ev(graph::KernelKind::kReduce, 0, 100, 150),
  };
  const FlowGraph fg = build_flow_graph(events, 10);
  std::ostringstream os;
  render_flow_graph(os, fg, 40);
  EXPECT_NE(os.str().find("spmm"), std::string::npos);
  EXPECT_NE(os.str().find("reduce"), std::string::npos);
}

TEST(Profiles, BestConfigIsAlwaysWithinTauOne) {
  // config0 always best, config1 1.5x slower, config2 3x slower.
  std::vector<std::vector<double>> times = {
      {1.0, 1.5, 3.0}, {2.0, 3.0, 6.0}, {0.5, 0.75, 1.5}};
  const auto curves = performance_profiles({"a", "b", "c"}, times,
                                           {1.0, 1.6, 2.0, 3.0});
  ASSERT_EQ(curves.size(), 3u);
  EXPECT_DOUBLE_EQ(curves[0].fraction[0], 1.0); // within tau=1 always
  EXPECT_DOUBLE_EQ(curves[1].fraction[0], 0.0);
  EXPECT_DOUBLE_EQ(curves[1].fraction[1], 1.0); // 1.5 <= 1.6
  EXPECT_DOUBLE_EQ(curves[2].fraction[2], 0.0);
  EXPECT_DOUBLE_EQ(curves[2].fraction[3], 1.0); // 3.0 <= 3.0
}

TEST(Profiles, MissingRunsNeverQualify) {
  std::vector<std::vector<double>> times = {{1.0, -1.0}};
  const auto curves = performance_profiles({"a", "b"}, times, {10.0});
  EXPECT_DOUBLE_EQ(curves[0].fraction[0], 1.0);
  EXPECT_DOUBLE_EQ(curves[1].fraction[0], 0.0);
}

TEST(Profiles, DefaultTausSpanOneToTwo) {
  const auto taus = default_taus(11);
  ASSERT_EQ(taus.size(), 11u);
  EXPECT_DOUBLE_EQ(taus.front(), 1.0);
  EXPECT_DOUBLE_EQ(taus.back(), 2.0);
}

} // namespace
} // namespace sts::perf
