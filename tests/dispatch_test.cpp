// Tests for the concurrent job dispatcher (DESIGN.md §15): the two-level
// FairQueue (strict priority + deficit round robin) driven by a fake clock,
// the partition arithmetic against canned sysfs fixtures, and the Service's
// slot machinery — disjoint domain-aligned partitions, fixed pool widths,
// quotas and deadlines — run in-process with an injected Machine so the
// tests describe multi-socket shapes even in a 1-CPU container.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/error.hpp"
#include "support/topology.hpp"
#include "svc/dispatch/partition.hpp"
#include "svc/dispatch/queue.hpp"
#include "svc/service.hpp"

namespace sts {
namespace {

using namespace std::chrono_literals;
using support::topo::Machine;
using svc::dispatch::Class;
using svc::dispatch::FairQueue;
using svc::dispatch::Item;
using svc::dispatch::Policy;

// ---------------------------------------------------------------- fixtures

/// Canned sysfs tree rooted at a fresh /tmp directory; removed on scope
/// exit (same shape as topology_test's fixture — duplicated on purpose so
/// each test binary stays self-contained).
class SysFixture {
public:
  SysFixture() {
    char tmpl[] = "/tmp/sts-disp-XXXXXX";
    root_ = ::mkdtemp(tmpl);
    EXPECT_FALSE(root_.empty());
  }
  ~SysFixture() {
    for (auto it = files_.rbegin(); it != files_.rend(); ++it) {
      ::unlink(it->c_str());
    }
    for (auto it = dirs_.rbegin(); it != dirs_.rend(); ++it) {
      ::rmdir(it->c_str());
    }
    ::rmdir(root_.c_str());
  }

  [[nodiscard]] const std::string& root() const { return root_; }

  void write(const std::string& rel, const std::string& contents) {
    std::string dir = root_;
    std::size_t pos = 0;
    while (true) {
      const std::size_t slash = rel.find('/', pos);
      if (slash == std::string::npos) break;
      dir += "/" + rel.substr(pos, slash - pos);
      if (::mkdir(dir.c_str(), 0755) == 0) dirs_.push_back(dir);
      pos = slash + 1;
    }
    const std::string path = root_ + "/" + rel;
    std::ofstream f(path);
    f << contents << "\n";
    files_.push_back(path);
  }

private:
  std::string root_;
  std::vector<std::string> dirs_;
  std::vector<std::string> files_;
};

/// 2 nodes x 4 CPUs: node0 = cpus 0-3, node1 = cpus 4-7.
Machine two_node_machine(SysFixture& fx) {
  fx.write("devices/system/cpu/online", "0-7");
  fx.write("devices/system/node/node0/cpulist", "0-3");
  fx.write("devices/system/node/node1/cpulist", "4-7");
  return support::topo::detect(fx.root());
}

Item item(std::uint64_t id, Class cls, unsigned weight = 1,
          const std::string& client = "") {
  Item it;
  it.id = id;
  it.cls = cls;
  it.weight = weight;
  it.client = client;
  return it;
}

/// Pops everything, returning the client key sequence.
std::vector<std::string> pop_clients(FairQueue& q) {
  std::vector<std::string> order;
  Item out;
  while (q.pop(&out)) order.push_back(out.client);
  return order;
}

// ------------------------------------------------------- policy parsing --

TEST(DispatchPolicy, ParseAndRenderRoundTrip) {
  EXPECT_EQ(svc::dispatch::parse_policy("fifo"), Policy::kFifo);
  EXPECT_EQ(svc::dispatch::parse_policy("fair"), Policy::kFair);
  EXPECT_THROW((void)svc::dispatch::parse_policy("lifo"), support::Error);
  EXPECT_STREQ(svc::dispatch::to_string(Policy::kFair), "fair");
  EXPECT_EQ(svc::dispatch::parse_class("interactive"), Class::kInteractive);
  EXPECT_EQ(svc::dispatch::parse_class("batch"), Class::kBatch);
  EXPECT_THROW((void)svc::dispatch::parse_class("best-effort"),
               support::Error);
  EXPECT_STREQ(svc::dispatch::to_string(Class::kInteractive), "interactive");
}

// ------------------------------------------------------------ FairQueue --

TEST(FairQueueTest, FifoIgnoresClassAndWeightButCountsDepths) {
  FairQueue q(Policy::kFifo);
  q.push(item(1, Class::kBatch, 1, "a"));
  q.push(item(2, Class::kInteractive, 99, "b"));
  q.push(item(3, Class::kBatch, 1, "a"));
  EXPECT_EQ(q.size(), 3u);
  // Depths still report real classes so stats stay honest under kFifo.
  EXPECT_EQ(q.depth(Class::kInteractive), 1u);
  EXPECT_EQ(q.depth(Class::kBatch), 2u);

  Item out;
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.id, 1u); // arrival order, not class order
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.id, 2u);
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.id, 3u);
  EXPECT_FALSE(q.pop(&out));
  EXPECT_EQ(q.depth(Class::kBatch), 0u);
}

TEST(FairQueueTest, StrictPriorityInteractiveDrainsFirst) {
  FairQueue q(Policy::kFair);
  q.push(item(1, Class::kBatch));
  q.push(item(2, Class::kBatch));
  q.push(item(3, Class::kInteractive));

  Item out;
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.id, 3u); // pushed last, popped first

  // An interactive arrival mid-stream still jumps every queued batch job.
  q.push(item(4, Class::kInteractive));
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.id, 4u);
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.id, 1u);
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.id, 2u);
}

TEST(FairQueueTest, DrrGrantsFollowWeights) {
  // A (weight 3) vs B (weight 1), same class: the DRR cursor gives A three
  // grants per visit and B one, so the steady-state pattern is A,A,A,B.
  FairQueue q(Policy::kFair);
  for (std::uint64_t i = 0; i < 6; ++i) q.push(item(10 + i, Class::kBatch, 3, "A"));
  for (std::uint64_t i = 0; i < 2; ++i) q.push(item(20 + i, Class::kBatch, 1, "B"));

  const std::vector<std::string> order = pop_clients(q);
  const std::vector<std::string> expect = {"A", "A", "A", "B",
                                           "A", "A", "A", "B"};
  EXPECT_EQ(order, expect);
}

TEST(FairQueueTest, WeightOneClientIsNeverStarvedBesideWeightSixteen) {
  FairQueue q(Policy::kFair);
  for (std::uint64_t i = 0; i < 64; ++i) {
    q.push(item(100 + i, Class::kBatch, 16, "heavy"));
  }
  for (std::uint64_t i = 0; i < 4; ++i) {
    q.push(item(200 + i, Class::kBatch, 1, "light"));
  }

  // Starvation-freedom: in every window of 17 consecutive grants while the
  // light client has work queued, it appears at least once.
  std::vector<std::string> order = pop_clients(q);
  std::size_t since_light = 0;
  std::size_t light_seen = 0;
  for (const std::string& c : order) {
    if (light_seen == 4) break; // light queue drained
    if (c == "light") {
      ++light_seen;
      since_light = 0;
    } else {
      ++since_light;
      EXPECT_LE(since_light, 16u) << "light client starved";
    }
  }
  EXPECT_EQ(light_seen, 4u);
}

TEST(FairQueueTest, DrainedClientForfeitsCreditAndRejoinsAtTheBack) {
  // A huge-weight client that drains forfeits its unspent quantum and, on
  // re-arrival, joins the back of the ring: B (weight 1) still gets its one
  // grant per round, so the tail alternates instead of A monopolizing.
  FairQueue q(Policy::kFair);
  q.push(item(1, Class::kBatch, 100, "A"));
  q.push(item(2, Class::kBatch, 1, "B"));
  q.push(item(3, Class::kBatch, 1, "B"));

  Item out;
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.client, "A"); // A drains with 99 credit left — forfeited

  q.push(item(4, Class::kBatch, 100, "A")); // re-activation, back of ring
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.client, "B"); // B's cursor turn comes first
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.client, "A"); // B out of credit for this round -> rotate
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.client, "B");
  EXPECT_TRUE(q.empty());
}

TEST(FairQueueTest, RemoveDropsPendingJobsById) {
  FairQueue q(Policy::kFair);
  q.push(item(1, Class::kBatch, 1, "a"));
  q.push(item(2, Class::kBatch, 1, "a"));
  q.push(item(3, Class::kInteractive, 1, "b"));

  EXPECT_TRUE(q.remove(2));
  EXPECT_FALSE(q.remove(2)); // already gone
  EXPECT_FALSE(q.remove(42));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.depth(Class::kBatch), 1u);

  Item out;
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.id, 3u);
  ASSERT_TRUE(q.pop(&out));
  EXPECT_EQ(out.id, 1u); // 2 was removed, not reordered
  EXPECT_FALSE(q.pop(&out));
}

TEST(FairQueueTest, InjectedClockStampsEnqueueTimes) {
  std::int64_t now = 42;
  FairQueue q(Policy::kFair, [&now] { return now; });
  q.push(item(1, Class::kBatch));
  now = 1000;
  q.push(item(2, Class::kBatch));
  Item pre = item(3, Class::kBatch);
  pre.enqueue_ns = 7; // pre-stamped (journal recovery) wins over the clock
  q.push(pre);

  const std::vector<Item> snap = q.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  std::vector<std::int64_t> stamps;
  for (const Item& it : snap) stamps.push_back(it.enqueue_ns);
  std::sort(stamps.begin(), stamps.end());
  EXPECT_EQ(stamps, (std::vector<std::int64_t>{7, 42, 1000}));
}

TEST(FairQueueTest, SnapshotIsClassMajor) {
  FairQueue q(Policy::kFair);
  q.push(item(1, Class::kBatch, 1, "a"));
  q.push(item(2, Class::kInteractive, 1, "b"));
  q.push(item(3, Class::kBatch, 1, "a"));

  const std::vector<Item> snap = q.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].cls, Class::kInteractive);
  EXPECT_EQ(snap[1].cls, Class::kBatch);
  EXPECT_EQ(snap[2].cls, Class::kBatch);
  EXPECT_EQ(snap[1].id, 1u); // per-client FIFO preserved
  EXPECT_EQ(snap[2].id, 3u);
}

// ------------------------------------------------------- partition_cpus --

TEST(PartitionCpus, TwoNodesSplitOnTheNodeBoundary) {
  SysFixture fx;
  const Machine m = two_node_machine(fx);
  ASSERT_EQ(m.node_count(), 2u);

  const auto one = support::topo::partition_cpus(m, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));

  const auto two = support::topo::partition_cpus(m, 2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(two[1], (std::vector<int>{4, 5, 6, 7}));
}

TEST(PartitionCpus, MorePartsThanNodesSubdivideWithoutStraddling) {
  SysFixture fx;
  const Machine m = two_node_machine(fx);

  const auto four = support::topo::partition_cpus(m, 4);
  ASSERT_EQ(four.size(), 4u);
  EXPECT_EQ(four[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(four[1], (std::vector<int>{2, 3}));
  EXPECT_EQ(four[2], (std::vector<int>{4, 5}));
  EXPECT_EQ(four[3], (std::vector<int>{6, 7}));

  // Odd counts: every node still contributes whole chunks of itself; no
  // slice mixes CPUs from both nodes.
  const auto three = support::topo::partition_cpus(m, 3);
  ASSERT_EQ(three.size(), 3u);
  std::size_t total = 0;
  for (const auto& slice : three) {
    ASSERT_FALSE(slice.empty());
    total += slice.size();
    const bool node0 = slice.front() <= 3;
    for (const int c : slice) {
      EXPECT_EQ(c <= 3, node0) << "slice straddles the node boundary";
    }
  }
  EXPECT_EQ(total, 8u);
}

TEST(PartitionCpus, PartsClampToCpuCount) {
  SysFixture fx;
  const Machine m = two_node_machine(fx);

  const auto many = support::topo::partition_cpus(m, 100);
  ASSERT_EQ(many.size(), 8u); // clamped to cpu_count
  for (const auto& slice : many) EXPECT_EQ(slice.size(), 1u);

  const auto zero = support::topo::partition_cpus(m, 0);
  ASSERT_EQ(zero.size(), 1u); // clamped up to 1
  EXPECT_EQ(zero[0].size(), 8u);
}

TEST(PartitionCpus, OfflineCpuShrinksItsNodeSlice) {
  // cpu 3 is listed in node0's cpulist but offline: detection drops it, and
  // the carve balances the remaining 3+4 CPUs on the node boundary.
  SysFixture fx;
  fx.write("devices/system/cpu/online", "0-2,4-7");
  fx.write("devices/system/node/node0/cpulist", "0-3");
  fx.write("devices/system/node/node1/cpulist", "4-7");
  const Machine m = support::topo::detect(fx.root());
  ASSERT_EQ(m.cpu_count(), 7u);

  const auto two = support::topo::partition_cpus(m, 2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(two[1], (std::vector<int>{4, 5, 6, 7}));
}

TEST(PartitionCpus, CpulessMemoryOnlyNodeIsSkipped) {
  // node1 is a memory-only node (empty cpulist, as CXL/HBM nodes report):
  // the carve sees two CPU-bearing nodes and splits between them.
  SysFixture fx;
  fx.write("devices/system/cpu/online", "0-7");
  fx.write("devices/system/node/node0/cpulist", "0-3");
  fx.write("devices/system/node/node1/cpulist", "");
  fx.write("devices/system/node/node2/cpulist", "4-7");
  const Machine m = support::topo::detect(fx.root());
  ASSERT_EQ(m.node_count(), 2u);

  const auto two = support::topo::partition_cpus(m, 2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(two[1], (std::vector<int>{4, 5, 6, 7}));
}

TEST(PartitionCpus, UnevenNodesBalanceByCpuCount) {
  // 3 nodes x 4 CPUs into 2 slices: the cut lands after node1 (8 >= 6),
  // never splitting a node.
  SysFixture fx;
  fx.write("devices/system/cpu/online", "0-11");
  fx.write("devices/system/node/node0/cpulist", "0-3");
  fx.write("devices/system/node/node1/cpulist", "4-7");
  fx.write("devices/system/node/node2/cpulist", "8-11");
  const Machine m = support::topo::detect(fx.root());

  const auto two = support::topo::partition_cpus(m, 2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(two[1], (std::vector<int>{8, 9, 10, 11}));
}

// ----------------------------------------------------------------- carve --

TEST(Carve, AnnotatesSlotIndicesAndDomains) {
  SysFixture fx;
  const Machine m = two_node_machine(fx);

  const auto parts = svc::dispatch::carve(m, 2);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].slot, 0u);
  EXPECT_EQ(parts[1].slot, 1u);
  EXPECT_EQ(parts[0].domains, (std::vector<int>{0}));
  EXPECT_EQ(parts[1].domains, (std::vector<int>{1}));
  EXPECT_EQ(parts[0].cpulist(), "0-3");
  EXPECT_EQ(parts[1].cpulist(), "4-7");
}

TEST(Carve, CpulistRendersRunsAndSingles) {
  svc::dispatch::Partition p;
  p.cpus = {0, 1, 2, 4};
  EXPECT_EQ(p.cpulist(), "0-2,4");
  p.cpus = {5};
  EXPECT_EQ(p.cpulist(), "5");
}

// ------------------------------------------------------ service dispatch --

svc::RunSpec flux_spec(int iterations = 5) {
  svc::RunSpec spec;
  spec.suite_name = "inline_1";
  spec.scale = 0.02;
  spec.solver = svc::SolverKind::kLanczos;
  spec.version = solver::Version::kFlux;
  spec.iterations = iterations;
  spec.nev = 4;
  spec.block = 64;
  spec.threads = 0; // partition-sized pool
  return spec;
}

/// LOBPCG/flux with an unreachable tolerance: runs until cancelled, hits an
/// iteration boundary constantly. timeout_sec is a watchdog backstop against
/// test hangs.
svc::RunSpec endless_flux_spec() {
  svc::RunSpec spec = flux_spec();
  spec.solver = svc::SolverKind::kLobpcg;
  spec.iterations = 2000000;
  spec.tolerance = 1e-300;
  spec.timeout_sec = 60.0;
  return spec;
}

svc::Service::Config dispatch_config(const Machine* machine, unsigned slots,
                                     std::size_t queue_capacity = 16) {
  svc::Service::Config config;
  config.queue_capacity = queue_capacity;
  config.threads = 0; // per-job width = partition size
  config.slots = slots;
  config.machine = machine;
  return config;
}

void wait_running(svc::Service& service, std::uint64_t id) {
  for (int i = 0; i < 600; ++i) {
    const svc::JobInfo info = service.status(id);
    if (info.state == svc::JobState::kRunning) return;
    ASSERT_FALSE(info.terminal())
        << "job terminal before RUNNING was seen: " << info.error;
    std::this_thread::sleep_for(10ms);
  }
  FAIL() << "job never entered RUNNING";
}

TEST(Dispatcher, SlotsRunOnDisjointDomainAlignedPartitions) {
  SysFixture fx;
  const Machine m = two_node_machine(fx);
  svc::Service service(dispatch_config(&m, 4));

  // The carve: 4 slots over 2 nodes -> 2-CPU slices, one domain each,
  // pairwise disjoint.
  const auto& parts = service.partitions();
  ASSERT_EQ(parts.size(), 4u);
  std::set<int> seen;
  for (const auto& p : parts) {
    EXPECT_EQ(p.cpus.size(), 2u);
    EXPECT_EQ(p.domains.size(), 1u) << "partition straddles NUMA domains";
    for (const int c : p.cpus) {
      EXPECT_TRUE(seen.insert(c).second) << "cpu " << c << " shared";
    }
  }
  EXPECT_EQ(seen.size(), 8u);

  // Each job runs on its slot's 2-CPU, single-domain pool: two workers and
  // no cross-domain steals, which is the whole point of the carve.
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    const auto out = service.submit(flux_spec());
    ASSERT_TRUE(out.accepted);
    ids.push_back(out.id);
  }
  for (const std::uint64_t id : ids) {
    const svc::JobInfo info = service.wait(id, 60s);
    ASSERT_EQ(info.state, svc::JobState::kDone) << info.error;
    const svc::wire::Json flux = info.summary.get("flux");
    ASSERT_FALSE(flux.is_null());
    EXPECT_EQ(flux.get("workers").as_int(), 2);
    EXPECT_EQ(flux.get("domains").as_int(), 1);
    EXPECT_EQ(flux.get("steals_remote").as_int(), 0);
  }
}

TEST(Dispatcher, InteractiveJumpsAheadOfQueuedBatch) {
  svc::Service service(dispatch_config(nullptr, 1));

  const auto blocker = service.submit(endless_flux_spec());
  ASSERT_TRUE(blocker.accepted);
  wait_running(service, blocker.id);

  std::vector<std::uint64_t> batch_ids;
  for (int i = 0; i < 3; ++i) {
    const auto out = service.submit(flux_spec());
    ASSERT_TRUE(out.accepted);
    batch_ids.push_back(out.id);
  }
  svc::RunSpec urgent = endless_flux_spec();
  urgent.priority = "interactive";
  const auto inter = service.submit(urgent);
  ASSERT_TRUE(inter.accepted);

  // Free the slot: the interactive job must be popped ahead of all three
  // batch jobs that were queued before it.
  EXPECT_TRUE(service.cancel(blocker.id));
  wait_running(service, inter.id);
  for (const std::uint64_t id : batch_ids) {
    EXPECT_EQ(service.status(id).state, svc::JobState::kPending)
        << "batch job overtook the interactive one";
  }
  EXPECT_TRUE(service.cancel(inter.id));
  // The destructor drains the remaining batch jobs.
}

TEST(Dispatcher, StatsAndQueueSnapshotExposeDispatchState) {
  svc::Service service(dispatch_config(nullptr, 1));

  const auto blocker = service.submit(endless_flux_spec());
  ASSERT_TRUE(blocker.accepted);
  wait_running(service, blocker.id);
  svc::RunSpec urgent = flux_spec();
  urgent.priority = "interactive";
  urgent.weight = 4;
  urgent.client_key = "tenant-a/req-1";
  const auto qi = service.submit(urgent);
  const auto qb = service.submit(flux_spec());
  ASSERT_TRUE(qi.accepted);
  ASSERT_TRUE(qb.accepted);

  const svc::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.dispatch.slots, 1u);
  EXPECT_EQ(stats.dispatch.policy, "fair");
  EXPECT_EQ(stats.dispatch.running_jobs, 1u);
  EXPECT_EQ(stats.dispatch.depth_interactive, 1u);
  EXPECT_EQ(stats.dispatch.depth_batch, 1u);
  EXPECT_EQ(stats.queue_depth, 2u);

  const svc::wire::Json snap = service.queue_snapshot();
  EXPECT_EQ(snap.get("policy").as_string(), "fair");
  const auto& parts = snap.get("partitions").items();
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(parts[0].get("job").as_int()),
            blocker.id);
  const auto& running = snap.get("running").items();
  ASSERT_EQ(running.size(), 1u);
  EXPECT_EQ(running[0].get("class").as_string(), "batch");
  const auto& pending = snap.get("pending").items();
  ASSERT_EQ(pending.size(), 2u);
  // Class-major: the interactive job leads, carrying its fairness identity
  // (client key prefix before '/').
  EXPECT_EQ(pending[0].get("class").as_string(), "interactive");
  EXPECT_EQ(pending[0].get("weight").as_int(), 4);
  EXPECT_EQ(pending[0].get("client").as_string(), "tenant-a");
  EXPECT_GE(pending[0].get("waiting_seconds").as_number(), 0.0);

  EXPECT_TRUE(service.cancel(blocker.id));
}

TEST(Dispatcher, QueueFullRejectionCarriesDepthAndCapacity) {
  svc::Service service(dispatch_config(nullptr, 1, /*queue_capacity=*/1));

  const auto running = service.submit(endless_flux_spec());
  ASSERT_TRUE(running.accepted);
  wait_running(service, running.id);
  const auto queued = service.submit(flux_spec());
  ASSERT_TRUE(queued.accepted);

  const auto rejected = service.submit(flux_spec());
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(rejected.error, "queue_full");
  EXPECT_EQ(rejected.queue_depth, 1u);
  EXPECT_EQ(rejected.queue_capacity, 1u);

  EXPECT_TRUE(service.cancel(running.id));
}

TEST(Dispatcher, MaxWorkersQuotaCapsThePoolWidth) {
  SysFixture fx;
  const Machine m = two_node_machine(fx);
  svc::Service service(dispatch_config(&m, 1)); // one 8-CPU partition

  svc::RunSpec spec = flux_spec();
  spec.max_workers = 3;
  const auto out = service.submit(spec);
  ASSERT_TRUE(out.accepted);
  const svc::JobInfo info = service.wait(out.id, 60s);
  ASSERT_EQ(info.state, svc::JobState::kDone) << info.error;
  EXPECT_EQ(info.summary.get("flux").get("workers").as_int(), 3);
}

TEST(Dispatcher, MemQuotaFailsAnOversizedPlan) {
  svc::Service service(dispatch_config(nullptr, 1));

  svc::RunSpec spec = flux_spec();
  spec.max_mem_bytes = 1; // no real plan fits in one byte
  const auto out = service.submit(spec);
  ASSERT_TRUE(out.accepted);
  const svc::JobInfo info = service.wait(out.id, 60s);
  EXPECT_EQ(info.state, svc::JobState::kFailed);
  EXPECT_NE(info.error.find("quota"), std::string::npos) << info.error;
}

TEST(Dispatcher, DeadlineExpiredInQueueCancelsBeforeStart) {
  svc::Service service(dispatch_config(nullptr, 1));

  const auto blocker = service.submit(endless_flux_spec());
  ASSERT_TRUE(blocker.accepted);
  wait_running(service, blocker.id);

  svc::RunSpec spec = flux_spec();
  spec.deadline_ms = 50;
  const auto doomed = service.submit(spec);
  ASSERT_TRUE(doomed.accepted);

  // Let the deadline lapse while the job is still queued, then free the
  // slot: the pop must cancel, not run.
  std::this_thread::sleep_for(200ms);
  EXPECT_TRUE(service.cancel(blocker.id));
  const svc::JobInfo info = service.wait(doomed.id, 60s);
  EXPECT_EQ(info.state, svc::JobState::kCancelled);
  EXPECT_NE(info.error.find("deadline"), std::string::npos) << info.error;
}

TEST(Dispatcher, IdleSlotNeitherWidensARunningJobNorHoldsBackQueuedWork) {
  SysFixture fx;
  const Machine m = two_node_machine(fx);
  svc::Service service(dispatch_config(&m, 2)); // two 4-CPU partitions

  // One endless flux job on one slot while the other slot idles. Give the
  // job many iteration boundaries: its pool must keep its partition's 4
  // workers, never taking the idle slot's CPUs.
  const auto endless = service.submit(endless_flux_spec());
  ASSERT_TRUE(endless.accepted);
  wait_running(service, endless.id);
  std::this_thread::sleep_for(1s);
  const svc::wire::Json snap = service.queue_snapshot();
  const auto& running = snap.get("running").items();
  ASSERT_EQ(running.size(), 1u);
  EXPECT_EQ(running[0].get("workers").as_int(), 4);

  // The idle slot takes queued work at once: the next job finishes well
  // inside the endless job's 60 s watchdog, on its own 4-worker pool.
  const auto next = service.submit(flux_spec());
  ASSERT_TRUE(next.accepted);
  const svc::JobInfo info = service.wait(next.id, 20s);
  EXPECT_EQ(info.state, svc::JobState::kDone) << info.error;
  if (info.state == svc::JobState::kDone) {
    EXPECT_EQ(info.summary.get("flux").get("workers").as_int(), 4);
  }

  EXPECT_TRUE(service.cancel(endless.id));
}

} // namespace
} // namespace sts
