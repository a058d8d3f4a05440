// Tests for the service layer: wire protocol, plan cache, job lifecycle,
// admission control, cancellation, fault containment, and the stsd /
// stsctl binaries end to end.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "proc_util.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "svc/cache.hpp"
#include "svc/client.hpp"
#include "svc/http.hpp"
#include "svc/journal.hpp"
#include "svc/server.hpp"
#include "svc/service.hpp"
#include "svc/wire.hpp"

namespace sts {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------- wire --

TEST(WireJson, DumpParseRoundTrip) {
  svc::wire::Json obj = svc::wire::Json::object();
  obj.set("str", "hello \"quoted\" \\ \n\t");
  obj.set("int", std::int64_t{42});
  obj.set("neg", -3.5);
  obj.set("yes", true);
  obj.set("nothing", svc::wire::Json());
  svc::wire::Json arr = svc::wire::Json::array();
  arr.push(1);
  arr.push("two");
  arr.push(false);
  obj.set("arr", std::move(arr));

  const svc::wire::Json back = svc::wire::Json::parse(obj.dump());
  EXPECT_EQ(back.get("str").as_string(), "hello \"quoted\" \\ \n\t");
  EXPECT_EQ(back.get("int").as_int(), 42);
  EXPECT_DOUBLE_EQ(back.get("neg").as_number(), -3.5);
  EXPECT_TRUE(back.get("yes").as_bool());
  EXPECT_TRUE(back.get("nothing").is_null());
  EXPECT_EQ(back.get("arr").items().size(), 3u);
  EXPECT_EQ(back.get("arr").items()[1].as_string(), "two");
}

TEST(WireJson, ParseRejectsMalformedInput) {
  EXPECT_THROW(svc::wire::Json::parse("{"), svc::wire::WireError);
  EXPECT_THROW(svc::wire::Json::parse("{}extra"), svc::wire::WireError);
  EXPECT_THROW(svc::wire::Json::parse("{'single':1}"), svc::wire::WireError);
  EXPECT_THROW(svc::wire::Json::parse(""), svc::wire::WireError);
  EXPECT_THROW(svc::wire::Json::parse("nul"), svc::wire::WireError);
}

TEST(WireJson, ParseHandlesUnicodeEscapes) {
  const svc::wire::Json j = svc::wire::Json::parse(R"({"s":"aé\n"})");
  EXPECT_EQ(j.get("s").as_string(), "a\xc3\xa9\n");
}

TEST(WireFrame, TruncatedFrameThrowsNotHangs) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Header promises 100 payload bytes; only 5 arrive before the writer
  // dies. The reader must fail loudly, not wait forever or return garbage.
  const std::uint32_t len = 100;
  ASSERT_EQ(::send(fds[0], &len, sizeof len, 0),
            static_cast<ssize_t>(sizeof len));
  ASSERT_EQ(::send(fds[0], "hello", 5, 0), 5);
  ::close(fds[0]);
  std::string payload;
  EXPECT_THROW((void)svc::wire::read_frame(fds[1], payload),
               svc::wire::WireError);
  ::close(fds[1]);
}

TEST(WireFrame, OversizedFrameRejectedBothDirections) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Inbound: a header past kMaxFrameBytes is rejected before any payload
  // allocation (a hostile or corrupt peer cannot OOM the daemon).
  const std::uint32_t huge = svc::wire::kMaxFrameBytes + 1;
  ASSERT_EQ(::send(fds[0], &huge, sizeof huge, 0),
            static_cast<ssize_t>(sizeof huge));
  std::string payload;
  EXPECT_THROW((void)svc::wire::read_frame(fds[1], payload),
               svc::wire::WireError);
  // Outbound: the writer refuses to produce such a frame in the first
  // place.
  const std::string too_big(svc::wire::kMaxFrameBytes + 1, 'x');
  EXPECT_THROW(svc::wire::write_frame(fds[0], too_big),
               svc::wire::WireError);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(WireFrame, RoundTripOverSocketPair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  svc::wire::write_frame(fds[0], R"({"op":"ping"})");
  std::string payload;
  ASSERT_TRUE(svc::wire::read_frame(fds[1], payload));
  EXPECT_EQ(payload, R"({"op":"ping"})");
  ::close(fds[0]); // EOF for the reader: clean false, not a throw
  EXPECT_FALSE(svc::wire::read_frame(fds[1], payload));
  ::close(fds[1]);
}

// ------------------------------------------------------------ run spec --

TEST(RunSpec, JsonRoundTripPreservesFields) {
  svc::RunSpec spec;
  spec.suite_name = "inline_1";
  spec.scale = 0.05;
  spec.solver = svc::SolverKind::kLanczos;
  spec.version = solver::Version::kDs;
  spec.iterations = 12;
  spec.nev = 6;
  spec.block = 48;
  spec.threads = 3;
  spec.timeout_sec = 2.5;

  const svc::RunSpec back = svc::RunSpec::from_json(spec.to_json());
  EXPECT_EQ(back.suite_name, "inline_1");
  EXPECT_DOUBLE_EQ(back.scale, 0.05);
  EXPECT_EQ(back.solver, svc::SolverKind::kLanczos);
  EXPECT_EQ(back.version, solver::Version::kDs);
  EXPECT_EQ(back.iterations, 12);
  EXPECT_EQ(back.nev, 6);
  EXPECT_EQ(back.block, 48);
  EXPECT_EQ(back.threads, 3u);
  EXPECT_DOUBLE_EQ(back.timeout_sec, 2.5);
  EXPECT_EQ(back.source_key(), spec.source_key());
  EXPECT_EQ(back.block_directive(), spec.block_directive());
}

TEST(RunSpec, CacheKeysDistinguishSourceAndBlockPolicy) {
  svc::RunSpec a;
  a.suite_name = "inline_1";
  a.block = 64;
  svc::RunSpec b = a;
  EXPECT_EQ(a.source_key(), b.source_key());
  EXPECT_EQ(a.block_directive(), "b64");
  b.block = 0;
  b.autotune = true;
  EXPECT_NE(a.block_directive(), b.block_directive());
  b.scale = 0.5;
  EXPECT_NE(a.source_key(), b.source_key());
}

TEST(RunSpec, ValidateRejectsNonsense) {
  svc::RunSpec spec; // no source
  EXPECT_THROW(spec.validate(), support::Error);
  spec.suite_name = "inline_1";
  EXPECT_NO_THROW(spec.validate());
  spec.iterations = 0;
  EXPECT_THROW(spec.validate(), support::Error);
  spec.iterations = 5;
  spec.block = 32;
  spec.autotune = true;
  EXPECT_THROW(spec.validate(), support::Error);
}

TEST(RunSpec, ConsumeArgEdgeCases) {
  svc::RunSpec spec;
  std::vector<std::string> values;
  std::size_t vi = 0;
  auto next = [&]() -> std::string { return values.at(vi++); };

  // Unknown flags are left for the caller (stsolve/stsctl own --wait etc.).
  EXPECT_FALSE(spec.consume_arg("--wait", next));
  EXPECT_FALSE(spec.consume_arg("--definitely-not-a-flag", next));

  values = {"inline_1", "lobpcg", "ds", "client-42"};
  EXPECT_TRUE(spec.consume_arg("--suite", next));
  EXPECT_TRUE(spec.consume_arg("--solver", next));
  EXPECT_TRUE(spec.consume_arg("--version", next));
  EXPECT_TRUE(spec.consume_arg("--key", next));
  EXPECT_EQ(spec.suite_name, "inline_1");
  EXPECT_EQ(spec.solver, svc::SolverKind::kLobpcg);
  EXPECT_EQ(spec.version, solver::Version::kDs);
  EXPECT_EQ(spec.client_key, "client-42");

  // Unknown enum values throw instead of silently defaulting.
  values = {"gauss-seidel"};
  vi = 0;
  EXPECT_THROW((void)spec.consume_arg("--solver", next), support::Error);
  values = {"opencl"};
  vi = 0;
  EXPECT_THROW((void)spec.consume_arg("--version", next), support::Error);
}

TEST(RunSpec, ClientKeySurvivesTheJsonRoundTrip) {
  svc::RunSpec spec;
  spec.suite_name = "inline_1";
  spec.client_key = "retry-key-1";
  const svc::RunSpec back = svc::RunSpec::from_json(spec.to_json());
  EXPECT_EQ(back.client_key, "retry-key-1");

  // Absent key stays absent (no accidental dedup of unkeyed submissions).
  svc::RunSpec unkeyed;
  unkeyed.suite_name = "inline_1";
  EXPECT_FALSE(unkeyed.to_json().has("key"));
  EXPECT_TRUE(svc::RunSpec::from_json(unkeyed.to_json()).client_key.empty());
}

TEST(RunSpec, HeuristicBlockUsesTheResolvedThreadCount) {
  // No --block: a flux job at 3 threads takes the small-machine bucket,
  // 8-15 blocks per dimension.
  svc::RunSpec spec;
  spec.suite_name = "inline_1";
  spec.scale = 0.05;
  spec.version = solver::Version::kFlux;
  spec.threads = 3;
  const sparse::Csr csr = sparse::Csr::from_coo(spec.load());
  const svc::RunSpec::BlockChoice choice = spec.resolve_block(csr);
  EXPECT_TRUE(choice.heuristic);
  ASSERT_GT(choice.block, 0);
  const la::index_t blocks = (csr.rows() + choice.block - 1) / choice.block;
  EXPECT_GE(blocks, 8);
  EXPECT_LE(blocks, 15);
}


// --------------------------------------------------------------- cache --

svc::Plan fake_plan(std::size_t bytes) {
  svc::Plan p;
  p.bytes = bytes;
  p.block_size = 32;
  return p;
}

TEST(PlanCache, HitsMissesAndByteBudgetEviction) {
  svc::PlanCache cache(/*budget_bytes=*/1000);
  bool hit = true;
  auto a = cache.get_or_build("A", "b32", [] { return fake_plan(600); }, &hit);
  EXPECT_FALSE(hit);
  auto a2 = cache.get_or_build("A", "b32", [] { return fake_plan(600); }, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(a.get(), a2.get()); // same shared plan, no rebuild

  // B pushes the footprint to 1200 > 1000: the LRU victim is A. B itself is
  // never evicted even though it alone would still be over a tiny budget.
  auto b = cache.get_or_build("B", "b32", [] { return fake_plan(600); }, &hit);
  EXPECT_FALSE(hit);
  const svc::CacheStats st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 2u);
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.bytes, 600u);

  // A was evicted -> rebuilding it is a miss; the old shared_ptr is still
  // alive for whoever held it (a running job).
  cache.get_or_build("A", "b32", [] { return fake_plan(600); }, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(a->bytes, 600u);
}

TEST(PlanCache, LruOrderEvictsColdestFirst) {
  svc::PlanCache cache(/*budget_bytes=*/2000);
  bool hit = false;
  cache.get_or_build("A", "k", [] { return fake_plan(800); }, &hit);
  cache.get_or_build("B", "k", [] { return fake_plan(800); }, &hit);
  cache.get_or_build("A", "k", [] { return fake_plan(800); }, &hit); // warm A
  EXPECT_TRUE(hit);
  cache.get_or_build("C", "k", [] { return fake_plan(800); }, &hit);
  // C (2400 bytes total) evicts B, the coldest; A stays.
  cache.get_or_build("A", "k", [] { return fake_plan(800); }, &hit);
  EXPECT_TRUE(hit);
  cache.get_or_build("B", "k", [] { return fake_plan(800); }, &hit);
  EXPECT_FALSE(hit);
}

// ------------------------------------------------------------- service --

svc::RunSpec quick_spec(svc::SolverKind solver, solver::Version version) {
  svc::RunSpec spec;
  spec.suite_name = "inline_1";
  spec.scale = 0.02;
  spec.solver = solver;
  spec.version = version;
  spec.iterations = 5;
  spec.nev = 4;
  spec.block = 64;
  spec.threads = 2;
  return spec;
}

/// LOBPCG with an unreachable tolerance never converges, so the job runs
/// until cancelled (timeout_sec is a watchdog backstop against test hangs).
svc::RunSpec long_spec() {
  svc::RunSpec spec = quick_spec(svc::SolverKind::kLobpcg,
                                 solver::Version::kFlux);
  spec.iterations = 2000000;
  spec.tolerance = 1e-300;
  spec.timeout_sec = 60.0;
  return spec;
}

svc::Service::Config test_config(std::size_t queue_capacity = 16) {
  svc::Service::Config config;
  config.queue_capacity = queue_capacity;
  config.threads = 2;
  return config;
}

void wait_for_running(svc::Service& service, std::uint64_t id) {
  for (int i = 0; i < 600; ++i) {
    const svc::JobInfo info = service.status(id);
    if (info.state == svc::JobState::kRunning) return;
    ASSERT_FALSE(info.terminal()) << "job finished before it could be seen "
                                     "running: "
                                  << info.error;
    std::this_thread::sleep_for(10ms);
  }
  FAIL() << "job never entered RUNNING";
}

TEST(Service, RunsJobsAndServesRepeatsFromCache) {
  svc::Service service(test_config());
  const auto first = service.submit(
      quick_spec(svc::SolverKind::kLanczos, solver::Version::kFlux));
  ASSERT_TRUE(first.accepted);
  const svc::JobInfo cold = service.wait(first.id, 30s);
  ASSERT_EQ(cold.state, svc::JobState::kDone) << cold.error;
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_GT(cold.block_size, 0);
  ASSERT_TRUE(cold.summary.is_object());
  EXPECT_EQ(cold.summary.get("iterations").as_int(), 5);

  const auto second = service.submit(
      quick_spec(svc::SolverKind::kLanczos, solver::Version::kFlux));
  ASSERT_TRUE(second.accepted);
  const svc::JobInfo warm = service.wait(second.id, 30s);
  ASSERT_EQ(warm.state, svc::JobState::kDone) << warm.error;
  EXPECT_TRUE(warm.cache_hit);

  const svc::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.done, 2u);
  EXPECT_GE(stats.cache.hits, 1u); // the recorded-hit counter, asserted
  EXPECT_EQ(stats.cache.misses, 1u);
  EXPECT_EQ(stats.cache.entries, 1u);

  // Detected topology rides along in stats (and hence `stsctl stats`).
  EXPECT_GE(stats.topology.nodes, 1u);
  EXPECT_GE(stats.topology.cpus, stats.topology.nodes);
  EXPECT_GE(stats.topology.pool_threads, 1u);
  EXPECT_GE(stats.topology.pool_domains, 1u);
  EXPECT_LE(stats.topology.pool_domains, stats.topology.pool_threads);
  EXPECT_FALSE(stats.topology.affinity.empty());
  const svc::wire::Json j = svc::to_json(stats);
  ASSERT_TRUE(j.get("topology").is_object());
  EXPECT_GE(j.get("topology").get("nodes").as_int(), 1);
  EXPECT_GE(j.get("topology").get("cpus").as_int(), 1);
}

TEST(Service, EvictsPlansOverCacheBudget) {
  svc::Service::Config config = test_config();
  config.cache_bytes = 1024; // smaller than any real plan
  svc::Service service(config);
  svc::RunSpec a = quick_spec(svc::SolverKind::kLanczos,
                              solver::Version::kLibCsb);
  svc::RunSpec b = a;
  b.scale = 0.03; // different source key -> second cache entry
  ASSERT_EQ(service.wait(service.submit(a).id, 30s).state,
            svc::JobState::kDone);
  ASSERT_EQ(service.wait(service.submit(b).id, 30s).state,
            svc::JobState::kDone);
  const svc::ServiceStats stats = service.stats();
  EXPECT_GE(stats.cache.evictions, 1u);
  EXPECT_EQ(stats.cache.entries, 1u); // only the newest plan kept
}

TEST(Service, QueueFullSubmissionsRejectedImmediately) {
  svc::Service service(test_config(/*queue_capacity=*/1));
  const auto running = service.submit(long_spec());
  ASSERT_TRUE(running.accepted);
  wait_for_running(service, running.id);

  const auto queued = service.submit(
      quick_spec(svc::SolverKind::kLanczos, solver::Version::kLibCsb));
  ASSERT_TRUE(queued.accepted); // fills the single queue slot

  const auto rejected = service.submit(
      quick_spec(svc::SolverKind::kLanczos, solver::Version::kLibCsb));
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(rejected.error, "queue_full");
  EXPECT_GE(service.stats().rejected, 1u);

  EXPECT_TRUE(service.cancel(running.id));
  EXPECT_EQ(service.wait(running.id, 30s).state, svc::JobState::kCancelled);
  EXPECT_EQ(service.wait(queued.id, 30s).state, svc::JobState::kDone);
}

TEST(Service, CancelMovesRunningFluxJobToCancelled) {
  svc::Service service(test_config());
  const auto out = service.submit(long_spec());
  ASSERT_TRUE(out.accepted);
  wait_for_running(service, out.id);

  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(service.cancel(out.id, "user asked"));
  const svc::JobInfo info = service.wait(out.id, 30s);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(info.state, svc::JobState::kCancelled);
  EXPECT_EQ(info.error, "user asked");
  EXPECT_LT(elapsed, 10s); // prompt, not the 60 s watchdog backstop

  // The shared pool survived the unwound job: the next job runs clean.
  const auto next = service.submit(
      quick_spec(svc::SolverKind::kLobpcg, solver::Version::kFlux));
  ASSERT_TRUE(next.accepted);
  EXPECT_EQ(service.wait(next.id, 30s).state, svc::JobState::kDone);
  EXPECT_FALSE(service.cancel(out.id)); // already terminal
}

TEST(Service, DrainCancelsPendingAndRejectsNewWork) {
  svc::Service service(test_config());
  const auto running = service.submit(long_spec());
  ASSERT_TRUE(running.accepted);
  wait_for_running(service, running.id);
  const auto pending = service.submit(long_spec());
  ASSERT_TRUE(pending.accepted);

  std::thread drainer([&] { service.drain(); });
  // The executor is pinned by the running job, so drain's pending sweep is
  // observable before the drain itself completes.
  EXPECT_EQ(service.wait(pending.id, 10s).state, svc::JobState::kCancelled);
  EXPECT_EQ(service.status(pending.id).error, "drained");
  EXPECT_TRUE(service.cancel(running.id, "test over"));
  drainer.join();
  EXPECT_EQ(service.status(running.id).state, svc::JobState::kCancelled);

  const auto late = service.submit(
      quick_spec(svc::SolverKind::kLanczos, solver::Version::kLibCsb));
  EXPECT_FALSE(late.accepted);
  EXPECT_EQ(late.error, "draining");
}

TEST(Service, SvcJobFaultFailsExactlyOneJob) {
  svc::Service service(test_config());
  support::fault::ScopedFault inject("svc:job:hit=1:kind=throw");
  const auto poisoned = service.submit(
      quick_spec(svc::SolverKind::kLanczos, solver::Version::kLibCsb));
  ASSERT_TRUE(poisoned.accepted);
  const svc::JobInfo failed = service.wait(poisoned.id, 30s);
  EXPECT_EQ(failed.state, svc::JobState::kFailed);
  EXPECT_NE(failed.error.find("injected fault at 'svc:job'"),
            std::string::npos)
      << failed.error;

  // The daemon survives a poisoned job: the next one is untouched.
  const auto healthy = service.submit(
      quick_spec(svc::SolverKind::kLanczos, solver::Version::kLibCsb));
  ASSERT_TRUE(healthy.accepted);
  EXPECT_EQ(service.wait(healthy.id, 30s).state, svc::JobState::kDone);
  EXPECT_EQ(service.stats().failed, 1u);
}

TEST(Service, ClientKeyDeduplicatesResubmission) {
  svc::Service service(test_config());
  svc::RunSpec spec = quick_spec(svc::SolverKind::kLanczos,
                                 solver::Version::kLibCsb);
  spec.client_key = "idem-1";
  const auto first = service.submit(spec);
  ASSERT_TRUE(first.accepted);
  // The retrying client resends after a lost ack: same key, same job.
  const auto second = service.submit(spec);
  ASSERT_TRUE(second.accepted);
  EXPECT_EQ(second.id, first.id);
  EXPECT_EQ(service.wait(first.id, 30s).state, svc::JobState::kDone);

  svc::RunSpec other = spec;
  other.client_key = "idem-2";
  const auto third = service.submit(other);
  ASSERT_TRUE(third.accepted);
  EXPECT_NE(third.id, first.id);
  EXPECT_EQ(service.wait(third.id, 30s).state, svc::JobState::kDone);
}

TEST(Service, SolverBreakdownMarksJobFailed) {
  svc::Service service(test_config());
  // A NaN fault poisons the spmv output; the breakdown guard truncates the
  // run with kNotFinite, which the service reports as a FAILED job.
  support::fault::ScopedFault inject("spmv_block:hit=4:kind=nan");
  const auto out = service.submit(
      quick_spec(svc::SolverKind::kLanczos, solver::Version::kLibCsb));
  ASSERT_TRUE(out.accepted);
  const svc::JobInfo info = service.wait(out.id, 30s);
  EXPECT_EQ(info.state, svc::JobState::kFailed);
  EXPECT_NE(info.error.find("solver:"), std::string::npos) << info.error;
}

// ---------------------------------------------------------- obs gauges --

std::int64_t queue_depth_gauge() {
  return obs::gauge("svc.queue_depth").value();
}

// Regression for gauge drift: svc.queue_depth is republished (absolute,
// under the service mutex) at every queue mutation, so it must agree with
// stats().queue_depth at every quiescent point and never go negative.
TEST(Service, QueueDepthGaugeMatchesStatsThroughLifecycle) {
  svc::Service service(test_config(/*queue_capacity=*/2));
  EXPECT_EQ(queue_depth_gauge(), 0);

  const auto running = service.submit(long_spec());
  ASSERT_TRUE(running.accepted);
  wait_for_running(service, running.id);
  // The running job left the queue; the executor is now pinned, so the
  // queue is quiescent and the gauge must match exactly.
  EXPECT_EQ(queue_depth_gauge(),
            static_cast<std::int64_t>(service.stats().queue_depth));
  EXPECT_EQ(service.stats().queue_depth, 0u);

  const auto p1 = service.submit(long_spec());
  const auto p2 = service.submit(long_spec());
  ASSERT_TRUE(p1.accepted);
  ASSERT_TRUE(p2.accepted);
  EXPECT_EQ(service.stats().queue_depth, 2u);
  EXPECT_EQ(queue_depth_gauge(), 2);

  // Backpressure rejection must not touch the gauge.
  const auto rejected = service.submit(long_spec());
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(queue_depth_gauge(), 2);

  // Cancelling a PENDING job removes it from the queue (executor is still
  // pinned by `running`, so this is deterministic).
  EXPECT_TRUE(service.cancel(p2.id, "gauge test"));
  EXPECT_EQ(service.wait(p2.id, 30s).state, svc::JobState::kCancelled);
  EXPECT_EQ(service.stats().queue_depth, 1u);
  EXPECT_EQ(queue_depth_gauge(), 1);
  EXPECT_GE(queue_depth_gauge(), 0);

  // Run everything down; a settled service must leave the gauge at zero.
  EXPECT_TRUE(service.cancel(running.id));
  EXPECT_EQ(service.wait(running.id, 30s).state, svc::JobState::kCancelled);
  EXPECT_TRUE(service.cancel(p1.id));
  EXPECT_EQ(service.wait(p1.id, 30s).state, svc::JobState::kCancelled);
  service.drain();
  EXPECT_EQ(service.stats().queue_depth, 0u);
  EXPECT_EQ(queue_depth_gauge(), 0);
}

TEST(Service, RecoveredJobsRepublishQueueDepthGauge) {
  const std::string journal_path =
      "/tmp/sts-svc-test-gauge-journal-" + std::to_string(::getpid()) +
      ".log";
  std::remove(journal_path.c_str());
  {
    svc::Journal journal;
    journal.open(journal_path, 0);
    svc::wire::Json extra = svc::wire::Json::object();
    extra.set("spec", quick_spec(svc::SolverKind::kLanczos,
                                 solver::Version::kLibCsb)
                          .to_json());
    journal.append("SUBMITTED", 7, extra);
  }
  svc::Service::Config config = test_config();
  config.journal_path = journal_path;
  svc::Service service(config);
  EXPECT_EQ(service.stats().recovered, 1u);
  // The re-admitted job flows through the same gauge republish as a live
  // submit; once it completes the gauge settles back to the true depth.
  EXPECT_EQ(service.wait(7, 30s).state, svc::JobState::kDone);
  EXPECT_EQ(service.stats().queue_depth, 0u);
  EXPECT_EQ(queue_depth_gauge(), 0);
  std::remove(journal_path.c_str());
}

TEST(PlanCache, GaugesTrackBytesAndEntriesAbsolutely) {
  {
    svc::PlanCache cache(/*budget_bytes=*/1000);
    EXPECT_EQ(obs::gauge("svc.cache.bytes").value(), 0);
    EXPECT_EQ(obs::gauge("svc.cache.entries").value(), 0);
    bool hit = false;
    cache.get_or_build("A", "k", [] { return fake_plan(600); }, &hit);
    EXPECT_EQ(obs::gauge("svc.cache.bytes").value(), 600);
    EXPECT_EQ(obs::gauge("svc.cache.entries").value(), 1);
    // B evicts A (1200 > 1000): the gauges reflect the post-eviction state,
    // not a stale sum.
    cache.get_or_build("B", "k", [] { return fake_plan(600); }, &hit);
    EXPECT_EQ(obs::gauge("svc.cache.bytes").value(), 600);
    EXPECT_EQ(obs::gauge("svc.cache.entries").value(), 1);
  }
  // A fresh cache resets whatever the destroyed one left behind.
  svc::PlanCache fresh(/*budget_bytes=*/1000);
  EXPECT_EQ(obs::gauge("svc.cache.bytes").value(), 0);
  EXPECT_EQ(obs::gauge("svc.cache.entries").value(), 0);
}

// ------------------------------------------------------- server/client --

std::string test_socket_path(const char* tag) {
  return "/tmp/sts-svc-test-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + ".sock";
}

TEST(Server, ServesFourConcurrentClientsMixedSolvers) {
  svc::Service service(test_config());
  svc::Server server(service, test_socket_path("conc"));
  server.start();

  constexpr int kClients = 4;
  const solver::Version versions[kClients] = {
      solver::Version::kLibCsb, solver::Version::kDs, solver::Version::kFlux,
      solver::Version::kRgt};
  std::atomic<int> done{0};
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      try {
        svc::Client client(server.socket_path());
        const svc::SolverKind kind = (i % 2 == 0) ? svc::SolverKind::kLanczos
                                                  : svc::SolverKind::kLobpcg;
        const auto out = client.submit(quick_spec(kind, versions[i]));
        if (!out.accepted) {
          errors[i] = "rejected: " + out.error;
          return;
        }
        const svc::wire::Json job = client.result(out.id);
        if (job.string_or("state", "") != "DONE") {
          errors[i] = "state=" + job.string_or("state", "?") + " error=" +
                      job.string_or("error", "");
          return;
        }
        done.fetch_add(1);
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_TRUE(errors[i].empty()) << "client " << i << ": " << errors[i];
  }
  EXPECT_EQ(done.load(), kClients);

  svc::Client checker(server.socket_path());
  const svc::wire::Json stats = checker.stats();
  EXPECT_GE(stats.get("done").as_int(), kClients);
  server.stop();
}

TEST(Server, AcceptFaultDropsOneConnectionNotTheListener) {
  svc::Service service(test_config());
  svc::Server server(service, test_socket_path("accept"));
  server.start();
  support::fault::ScopedFault inject("svc:accept:hit=1:kind=throw");

  // First connection: accepted then dropped by the armed fault — the
  // client's request sees a closed channel.
  svc::Client doomed(server.socket_path());
  EXPECT_THROW((void)doomed.ping(), support::Error);

  // Second connection: the listener is alive and serves normally.
  svc::Client healthy(server.socket_path());
  EXPECT_TRUE(healthy.ping());
  server.stop();
}

TEST(Server, BadRequestsGetTypedErrorsNotDisconnects) {
  svc::Service service(test_config());
  svc::Server server(service, test_socket_path("bad"));
  server.start();
  svc::Client client(server.socket_path());

  svc::wire::Json bogus = svc::wire::Json::object();
  bogus.set("op", "frobnicate");
  svc::wire::Json reply = client.request(bogus);
  EXPECT_FALSE(reply.get("ok").as_bool());
  EXPECT_EQ(reply.string_or("kind", ""), "bad_request");

  svc::wire::Json submit = svc::wire::Json::object();
  submit.set("op", "submit");
  submit.set("spec", svc::wire::Json::object()); // no matrix source
  reply = client.request(submit);
  EXPECT_FALSE(reply.get("ok").as_bool());
  EXPECT_EQ(reply.string_or("kind", ""), "bad_request");

  EXPECT_TRUE(client.ping()); // connection still usable afterwards
  server.stop();
}

TEST(Server, MetricsOpServesPrometheusAndCsv) {
  svc::Service service(test_config());
  svc::Server server(service, test_socket_path("metrics"));
  server.start();
  svc::Client client(server.socket_path());

  // Run one job so the svc counters and the job-latency histogram exist.
  const auto out = client.submit(
      quick_spec(svc::SolverKind::kLanczos, solver::Version::kLibCsb));
  ASSERT_TRUE(out.accepted);
  ASSERT_EQ(client.result(out.id).string_or("state", ""), "DONE");

  const std::string prom = client.metrics("prom");
  EXPECT_NE(prom.find("sts_svc_jobs_submitted_total"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE sts_svc_job_ns summary"), std::string::npos);
  EXPECT_NE(prom.find("sts_svc_job_ns{quantile=\"0.95\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("sts_svc_queue_depth"), std::string::npos);

  const std::string csv = client.metrics("csv");
  EXPECT_EQ(csv.rfind("name,type,value,count,min,max,p50,p95,p99", 0), 0u);
  EXPECT_NE(csv.find("svc.jobs_submitted,counter"), std::string::npos);

  // Unknown formats are a typed bad_request, not a disconnect.
  svc::wire::Json req = svc::wire::Json::object();
  req.set("op", "metrics");
  req.set("format", "xml");
  const svc::wire::Json reply = client.request(req);
  EXPECT_FALSE(reply.get("ok").as_bool());
  EXPECT_EQ(reply.string_or("kind", ""), "bad_request");
  EXPECT_TRUE(client.ping());
  server.stop();
}

// stop() racing the accept thread: a client connects over and over while
// the server starts and stops 50 times. stop() must neither hang nor close
// the listener under a running accept(). Only pings are sent, so no solver
// (and no OpenMP region) runs: the test is safe to run under TSan.
TEST(Server, StopWhileAcceptingIsClean) {
  svc::Service service(test_config());
  const std::string path = test_socket_path("stoprace");
  std::atomic<bool> done{false};
  std::atomic<int> pings{0};
  std::thread client([&] {
    while (!done.load()) {
      try {
        svc::Client c(path);
        if (c.ping()) pings.fetch_add(1);
      } catch (const std::exception&) {
        // Refused or dropped by a stopping server: expected, retry.
      }
    }
  });
  for (int cycle = 0; cycle < 50; ++cycle) {
    svc::Server server(service, path);
    server.start();
    // Stop only once this cycle has served the client, so every stop()
    // lands while the client is connecting.
    const int before = pings.load();
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (pings.load() == before &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    EXPECT_GT(pings.load(), before) << "cycle " << cycle;
    server.stop();
  }
  done.store(true);
  client.join();
}

TEST(Server, TraceOpReturnsPerJobChromeTrace) {
  svc::Service service(test_config());
  svc::Server server(service, test_socket_path("trace"));
  server.start();
  svc::Client client(server.socket_path());

  svc::RunSpec spec =
      quick_spec(svc::SolverKind::kLanczos, solver::Version::kFlux);
  spec.trace_id = "wire-trace-1";
  const auto out = client.submit(spec);
  ASSERT_TRUE(out.accepted);
  ASSERT_EQ(client.result(out.id).string_or("state", ""), "DONE");

  const std::string trace = client.trace_json(out.id);
  // Must be valid JSON with a non-empty traceEvents array carrying the
  // job's root span and the propagated trace id.
  const svc::wire::Json doc = svc::wire::Json::parse(trace);
  const svc::wire::Json& events = doc.get("traceEvents");
  EXPECT_FALSE(events.items().empty());
  EXPECT_NE(trace.find("job[" + std::to_string(out.id) + "]"),
            std::string::npos);
  EXPECT_NE(trace.find("wire-trace-1"), std::string::npos);

  // Unknown job ids surface as a typed error through the client.
  EXPECT_THROW((void)client.trace_json(999999), support::Error);
  server.stop();
}

// --------------------------------------------------------- http scrape --

std::string http_fetch(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  (void)::send(fd, request.data(), request.size(), 0);
  std::string out;
  char buf[4096];
  for (ssize_t n = 0; (n = ::recv(fd, buf, sizeof buf, 0)) > 0;) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(HttpMetrics, ServesPrometheusOverRawHttp) {
  obs::counter("svc.http_test_marker").add(1);
  svc::MetricsHttpServer http(/*port=*/0); // ephemeral
  http.start();
  ASSERT_GT(http.port(), 0);

  const std::string ok = http_fetch(http.port(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_EQ(ok.rfind("HTTP/1.0 200", 0), 0u) << ok.substr(0, 200);
  EXPECT_NE(ok.find("text/plain; version=0.0.4; charset=utf-8"),
            std::string::npos);
  EXPECT_NE(ok.find("sts_svc_http_test_marker_total"), std::string::npos);

  const std::string index = http_fetch(http.port(), "GET / HTTP/1.0\r\n\r\n");
  EXPECT_EQ(index.rfind("HTTP/1.0 200", 0), 0u);

  const std::string missing =
      http_fetch(http.port(), "GET /nope HTTP/1.0\r\n\r\n");
  EXPECT_EQ(missing.rfind("HTTP/1.0 404", 0), 0u);

  const std::string wrong_verb =
      http_fetch(http.port(), "POST /metrics HTTP/1.0\r\n\r\n");
  EXPECT_EQ(wrong_verb.rfind("HTTP/1.0 405", 0), 0u);

  // The listener survives all of the above and still counts requests.
  EXPECT_GE(obs::counter("svc.http_requests").value(), 4u);
  http.stop();
}

// ------------------------------------------------------- stsd e2e ------

std::vector<std::string> stsd_argv(const std::string& socket_path,
                                   const std::vector<std::string>& extra) {
  std::vector<std::string> argv = {STSD_BIN, "--socket", socket_path,
                                   "--threads", "2"};
  argv.insert(argv.end(), extra.begin(), extra.end());
  return argv;
}

class StsdDaemon {
public:
  explicit StsdDaemon(const std::string& socket_path,
                      const std::vector<std::string>& extra_args = {},
                      const std::string& log_path =
                          "/tmp/sts-svc-test-stsd.log")
      : socket_path_(socket_path),
        child_(testutil::spawn(stsd_argv(socket_path, extra_args), {},
                               log_path)) {}

  ~StsdDaemon() {
    if (!reaped_) {
      child_.signal(SIGKILL);
      child_.wait();
    }
  }

  [[nodiscard]] bool wait_ready() const {
    for (int i = 0; i < 100; ++i) {
      try {
        svc::Client probe(socket_path_);
        if (probe.ping()) return true;
      } catch (const support::Error&) {
      }
      std::this_thread::sleep_for(50ms);
    }
    return false;
  }

  int terminate_and_wait() {
    child_.signal(SIGTERM);
    const int code = child_.wait();
    reaped_ = true;
    return code;
  }

  const std::string socket_path_;

private:
  testutil::ChildProcess child_;
  bool reaped_ = false;
};

TEST(StsdEndToEnd, SigtermDrainsAndExitsZero) {
  StsdDaemon daemon(test_socket_path("sigterm"));
  ASSERT_TRUE(daemon.wait_ready());
  {
    svc::Client client(daemon.socket_path_);
    const auto out = client.submit(
        quick_spec(svc::SolverKind::kLanczos, solver::Version::kFlux));
    ASSERT_TRUE(out.accepted);
    const svc::wire::Json job = client.result(out.id);
    EXPECT_EQ(job.string_or("state", ""), "DONE");
  }
  EXPECT_EQ(daemon.terminate_and_wait(), 0);
}

TEST(StsdEndToEnd, StsctlCancelMovesRunningJobToCancelled) {
  StsdDaemon daemon(test_socket_path("ctl"));
  ASSERT_TRUE(daemon.wait_ready());
  svc::Client client(daemon.socket_path_);
  const auto out = client.submit(long_spec());
  ASSERT_TRUE(out.accepted);
  for (int i = 0; i < 600; ++i) {
    if (client.status(out.id).string_or("state", "") == "RUNNING") break;
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_EQ(client.status(out.id).string_or("state", ""), "RUNNING");

  const int ctl_exit =
      testutil::spawn({STSCTL_BIN, "--socket", daemon.socket_path_, "cancel",
                       std::to_string(out.id)},
                      {}, "/tmp/sts-svc-test-stsctl.log")
          .wait();
  EXPECT_EQ(ctl_exit, 0);
  const svc::wire::Json job = client.result(out.id, 30000);
  EXPECT_EQ(job.string_or("state", ""), "CANCELLED");
  EXPECT_EQ(daemon.terminate_and_wait(), 0);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// Live observability end to end: a daemon serving real jobs answers
// `stsctl metrics --prom` with parseable Prometheus text and
// `stsctl trace <job>` with a well-formed per-job Chrome trace carrying
// the client-chosen trace id.
TEST(StsdEndToEnd, StsctlScrapesMetricsAndFetchesAJobTrace) {
  StsdDaemon daemon(test_socket_path("obs"));
  ASSERT_TRUE(daemon.wait_ready());
  svc::Client client(daemon.socket_path_);

  svc::RunSpec spec =
      quick_spec(svc::SolverKind::kLanczos, solver::Version::kFlux);
  spec.trace_id = "e2e-trace-1";
  const auto out = client.submit(spec);
  ASSERT_TRUE(out.accepted);
  ASSERT_EQ(client.result(out.id).string_or("state", ""), "DONE");

  // stsctl metrics --prom: stdout is the exposition, verbatim.
  const std::string prom_path =
      "/tmp/sts-svc-test-metrics-" + std::to_string(::getpid()) + ".prom";
  std::remove(prom_path.c_str());
  ASSERT_EQ(testutil::spawn({STSCTL_BIN, "--socket", daemon.socket_path_,
                             "metrics", "--prom"},
                            {}, prom_path)
                .wait(),
            0);
  const std::string prom = slurp(prom_path);
  EXPECT_NE(prom.find("sts_svc_jobs_submitted_total"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE sts_svc_job_ns summary"), std::string::npos);
  // Light Prometheus parse: every sample line splits into `series value`
  // with a numeric value.
  std::istringstream lines(prom);
  std::string line;
  int samples = 0;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_NO_THROW((void)std::stod(line.substr(space + 1))) << line;
    ++samples;
  }
  EXPECT_GT(samples, 10);

  // stsctl trace <id> -o: the file is one job's Chrome trace.
  const std::string trace_path =
      "/tmp/sts-svc-test-trace-" + std::to_string(::getpid()) + ".json";
  std::remove(trace_path.c_str());
  ASSERT_EQ(testutil::spawn({STSCTL_BIN, "--socket", daemon.socket_path_,
                             "trace", std::to_string(out.id), "-o",
                             trace_path},
                            {}, "/tmp/sts-svc-test-stsctl.log")
                .wait(),
            0);
  const std::string trace = slurp(trace_path);
  const svc::wire::Json doc = svc::wire::Json::parse(trace);
  EXPECT_FALSE(doc.get("traceEvents").items().empty());
  EXPECT_NE(trace.find("job[" + std::to_string(out.id) + "]"),
            std::string::npos);
  EXPECT_NE(trace.find("e2e-trace-1"), std::string::npos);

  // Asking for a job that buffered no trace exits non-zero with a message,
  // not a crash.
  EXPECT_NE(testutil::spawn({STSCTL_BIN, "--socket", daemon.socket_path_,
                             "trace", "999999"},
                            {}, "/tmp/sts-svc-test-stsctl.log")
                .wait(),
            0);

  std::remove(prom_path.c_str());
  std::remove(trace_path.c_str());
  EXPECT_EQ(daemon.terminate_and_wait(), 0);
}

TEST(StsdEndToEnd, HttpListenerServesScrapesOnTheAdvertisedPort) {
  const std::string log_path =
      "/tmp/sts-svc-test-stsd-http-" + std::to_string(::getpid()) + ".log";
  std::remove(log_path.c_str());
  StsdDaemon daemon(test_socket_path("http"), {"--http-port", "0"},
                    log_path);
  ASSERT_TRUE(daemon.wait_ready());

  // The daemon prints the ephemeral port it bound; parse it from the log.
  int port = 0;
  for (int i = 0; i < 100 && port == 0; ++i) {
    const std::string log = slurp(log_path);
    const std::string needle = "metrics on http://127.0.0.1:";
    if (const std::size_t at = log.find(needle); at != std::string::npos) {
      port = std::atoi(log.c_str() + at + needle.size());
    } else {
      std::this_thread::sleep_for(50ms);
    }
  }
  ASSERT_GT(port, 0) << slurp(log_path);

  const std::string reply = http_fetch(port, "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_EQ(reply.rfind("HTTP/1.0 200", 0), 0u) << reply.substr(0, 200);
  EXPECT_NE(reply.find("sts_svc_connections_total"), std::string::npos);
  EXPECT_EQ(daemon.terminate_and_wait(), 0);
  std::remove(log_path.c_str());
}

} // namespace
} // namespace sts
