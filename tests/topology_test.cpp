// Topology detection (support/topology), scheduler placement over it, and
// the CSB domain partition / first-touch placement machinery (DESIGN.md §14).
//
// Sysfs parsing is tested against canned fixture trees written under /tmp
// and handed to detect() as the sys root — the same injection STS_SYS_ROOT
// gives the daemon — so the tests describe 2-node EPYC-like shapes even in
// a 1-CPU container.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "flux/scheduler.hpp"
#include "solvers/common.hpp"
#include "sparse/csb.hpp"
#include "support/error.hpp"
#include "support/topology.hpp"

namespace sts {
namespace {

using support::topo::Machine;
using support::topo::parse_cpulist;

// ---------------------------------------------------------------- fixtures

/// Canned sysfs tree rooted at a fresh /tmp directory; removed on scope
/// exit. write("devices/system/cpu/online", "0-3") style.
class SysFixture {
public:
  SysFixture() {
    char tmpl[] = "/tmp/sts-topo-XXXXXX";
    root_ = ::mkdtemp(tmpl);
    EXPECT_FALSE(root_.empty());
  }
  ~SysFixture() {
    // Best-effort recursive cleanup; fixture trees are tiny and flat.
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

  /// cpuN/topology/{core_id,physical_package_id} for one CPU.
  void add_cpu(int cpu, int core, int pkg) {
    const std::string base =
        "devices/system/cpu/cpu" + std::to_string(cpu) + "/topology/";
    write(base + "core_id", std::to_string(core));
    write(base + "physical_package_id", std::to_string(pkg));
  }

private:
  std::string root_;
  std::vector<std::string> dirs_;
  std::vector<std::string> files_;
};

/// 2 nodes x 4 CPUs, SMT pairs: node0 = cpus 0-3 (cores 0,0,1,1 on pkg 0),
/// node1 = cpus 4-7 (cores 0,0,1,1 on pkg 1).
void build_two_node(SysFixture& fx) {
  fx.write("devices/system/cpu/online", "0-7");
  fx.write("devices/system/node/node0/cpulist", "0-3");
  fx.write("devices/system/node/node1/cpulist", "4-7");
  for (int c = 0; c < 8; ++c) {
    fx.add_cpu(c, (c % 4) / 2, c / 4);
  }
}

// ------------------------------------------------------------ parse_cpulist

TEST(ParseCpulist, RangesSinglesAndWhitespace) {
  EXPECT_EQ(parse_cpulist("0-3"), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(parse_cpulist("5"), (std::vector<int>{5}));
  EXPECT_EQ(parse_cpulist("0-3,8-11"),
            (std::vector<int>{0, 1, 2, 3, 8, 9, 10, 11}));
  EXPECT_EQ(parse_cpulist(" 2 , 0 ,2"), (std::vector<int>{0, 2}));
  EXPECT_TRUE(parse_cpulist("").empty());
  EXPECT_TRUE(parse_cpulist(" , ,").empty());
}

TEST(ParseCpulist, MalformedTokensThrow) {
  EXPECT_THROW((void)parse_cpulist("abc"), support::Error);
  EXPECT_THROW((void)parse_cpulist("1,x-3"), support::Error);
  EXPECT_THROW((void)parse_cpulist("5-2"), support::Error);
}

// ------------------------------------------------------------------ detect

TEST(Detect, TwoNodeFixture) {
  SysFixture fx;
  build_two_node(fx);
  const Machine m = support::topo::detect(fx.root());
  EXPECT_TRUE(m.from_sysfs);
  EXPECT_EQ(m.node_count(), 2u);
  EXPECT_EQ(m.cpu_count(), 8u);
  EXPECT_EQ(m.cpus_per_node(), 4u);
  EXPECT_EQ(m.smt_siblings, 2u); // cpus 0/1 share (pkg 0, core 0)
  ASSERT_NE(m.find_cpu(5), nullptr);
  EXPECT_EQ(m.find_cpu(5)->node, 1);
  EXPECT_EQ(m.find_cpu(42), nullptr);
  // SMT pairs resolve to the same machine-unique core key; cross-package
  // core_id collisions (both packages number cores from 0) must not.
  EXPECT_EQ(m.find_cpu(0)->core, m.find_cpu(1)->core);
  EXPECT_NE(m.find_cpu(0)->core, m.find_cpu(4)->core);
}

TEST(Detect, SingleNodeFixture) {
  SysFixture fx;
  fx.write("devices/system/cpu/online", "0-3");
  fx.write("devices/system/node/node0/cpulist", "0-3");
  for (int c = 0; c < 4; ++c) fx.add_cpu(c, c, 0);
  const Machine m = support::topo::detect(fx.root());
  EXPECT_TRUE(m.from_sysfs);
  EXPECT_EQ(m.node_count(), 1u);
  EXPECT_EQ(m.cpu_count(), 4u);
  EXPECT_EQ(m.smt_siblings, 1u);
}

TEST(Detect, OfflineCpusAreExcluded) {
  SysFixture fx;
  fx.write("devices/system/cpu/online", "0-2"); // cpu 3 offline
  fx.write("devices/system/node/node0/cpulist", "0-3");
  for (int c = 0; c < 4; ++c) fx.add_cpu(c, c, 0);
  const Machine m = support::topo::detect(fx.root());
  EXPECT_EQ(m.cpu_count(), 3u);
  EXPECT_EQ(m.find_cpu(3), nullptr);
}

TEST(Detect, SparseCpulistAndNodeIdGaps) {
  SysFixture fx;
  fx.write("devices/system/cpu/online", "0-3,8-11");
  fx.write("devices/system/node/node0/cpulist", "0-3");
  fx.write("devices/system/node/node2/cpulist", "8-11"); // node1 absent
  for (int c : {0, 1, 2, 3, 8, 9, 10, 11}) fx.add_cpu(c, c, c >= 8 ? 1 : 0);
  const Machine m = support::topo::detect(fx.root());
  EXPECT_EQ(m.node_count(), 2u);
  EXPECT_EQ(m.cpu_count(), 8u);
  EXPECT_EQ(m.nodes[1].id, 2); // sysfs id preserved, index dense
  EXPECT_EQ(m.find_cpu(9)->node, 2);
}

TEST(Detect, CpuLessNodesAreDropped) {
  SysFixture fx;
  fx.write("devices/system/cpu/online", "0-1");
  fx.write("devices/system/node/node0/cpulist", "0-1");
  fx.write("devices/system/node/node1/cpulist", ""); // memory-only node
  for (int c = 0; c < 2; ++c) fx.add_cpu(c, c, 0);
  const Machine m = support::topo::detect(fx.root());
  EXPECT_EQ(m.node_count(), 1u);
}

TEST(Detect, MissingRootFallsBack) {
  const Machine m = support::topo::detect("/nonexistent-sts-sys-root");
  EXPECT_FALSE(m.from_sysfs);
  EXPECT_EQ(m.node_count(), 1u);
  EXPECT_GE(m.cpu_count(), 1u);
  EXPECT_EQ(m.cpu_count(),
            std::max(1u, std::thread::hardware_concurrency()));
}

TEST(Detect, MissingNodeTreeYieldsSingleNode) {
  SysFixture fx;
  fx.write("devices/system/cpu/online", "0-1");
  for (int c = 0; c < 2; ++c) fx.add_cpu(c, c, 0);
  const Machine m = support::topo::detect(fx.root());
  EXPECT_TRUE(m.from_sysfs); // cpu structure is real even without nodes
  EXPECT_EQ(m.node_count(), 1u);
  EXPECT_EQ(m.cpu_count(), 2u);
}

TEST(Detect, StsNumaOffDisablesDomains) {
  ::setenv("STS_NUMA", "off", 1);
  EXPECT_TRUE(support::topo::numa_disabled());
  EXPECT_EQ(support::topo::effective_domains(16), 1u);
  ::setenv("STS_NUMA", "0", 1);
  EXPECT_TRUE(support::topo::numa_disabled());
  ::unsetenv("STS_NUMA");
  EXPECT_FALSE(support::topo::numa_disabled());
  // Domains never exceed the worker count, whatever the machine has.
  EXPECT_EQ(support::topo::effective_domains(1), 1u);
}

// ------------------------------------------------------- scheduler placement

TEST(SchedulerPlacement, UnpinnedDomainsAreContiguousRanges) {
  flux::Scheduler sched({.threads = 4, .numa_domains = 2, .numa_aware = true});
  EXPECT_EQ(sched.domain_of_worker(0), 0u);
  EXPECT_EQ(sched.domain_of_worker(1), 0u);
  EXPECT_EQ(sched.domain_of_worker(2), 1u);
  EXPECT_EQ(sched.domain_of_worker(3), 1u);
  EXPECT_EQ(sched.cpu_of_worker(0), -1); // unpinned
}

TEST(SchedulerPlacement, CompactPinningFillsNodeZeroFirst) {
  SysFixture fx;
  build_two_node(fx);
  const Machine m = support::topo::detect(fx.root());
  flux::Scheduler sched({.threads = 8,
                         .numa_domains = 2,
                         .numa_aware = true,
                         .affinity = flux::Affinity::kCompact,
                         .machine = &m});
  // Compact order: node 0's cpus (core-sorted) before node 1's. Binding to
  // fixture cpus that don't exist on the real host just floats the worker;
  // the placement *tables* are what hints and stealing consult.
  for (unsigned w = 0; w < 4; ++w) {
    EXPECT_EQ(sched.domain_of_worker(w), 0u) << w;
    EXPECT_LT(sched.cpu_of_worker(w), 4);
  }
  for (unsigned w = 4; w < 8; ++w) {
    EXPECT_EQ(sched.domain_of_worker(w), 1u) << w;
    EXPECT_GE(sched.cpu_of_worker(w), 4);
  }
}

TEST(SchedulerPlacement, ScatterPinningInterleavesNodes) {
  SysFixture fx;
  build_two_node(fx);
  const Machine m = support::topo::detect(fx.root());
  flux::Scheduler sched({.threads = 4,
                         .numa_domains = 2,
                         .numa_aware = true,
                         .affinity = flux::Affinity::kScatter,
                         .machine = &m});
  EXPECT_EQ(sched.domain_of_worker(0), 0u);
  EXPECT_EQ(sched.domain_of_worker(1), 1u);
  EXPECT_EQ(sched.domain_of_worker(2), 0u);
  EXPECT_EQ(sched.domain_of_worker(3), 1u);
}

TEST(SchedulerPlacement, AffinityFromEnvParsesAllValues) {
  ::setenv("STS_AFFINITY", "compact", 1);
  EXPECT_EQ(flux::Scheduler::Config::affinity_from_env(),
            flux::Affinity::kCompact);
  ::setenv("STS_AFFINITY", "scatter", 1);
  EXPECT_EQ(flux::Scheduler::Config::affinity_from_env(),
            flux::Affinity::kScatter);
  ::setenv("STS_AFFINITY", "off", 1);
  EXPECT_EQ(flux::Scheduler::Config::affinity_from_env(),
            flux::Affinity::kOff);
  ::unsetenv("STS_AFFINITY");
}

TEST(SchedulerPlacement, TopologyAwareHonorsNumaOff) {
  ::setenv("STS_NUMA", "off", 1);
  const flux::Scheduler::Config c =
      flux::Scheduler::Config::topology_aware(4);
  ::unsetenv("STS_NUMA");
  EXPECT_EQ(c.numa_domains, 1u);
  EXPECT_FALSE(c.numa_aware);
  EXPECT_EQ(c.affinity, flux::Affinity::kOff);
  EXPECT_EQ(c.threads, 4u);
}

TEST(SchedulerPlacement, ForPartitionPinsEachWorkerToItsCpu) {
  ::unsetenv("STS_AFFINITY"); // a partition pins unless this says off
  SysFixture fx;
  build_two_node(fx);
  const Machine m = support::topo::detect(fx.root());

  // One node's CPUs in any order: worker i takes cpus[i], one domain.
  const std::vector<int> one_node{5, 4, 6};
  flux::Scheduler single(
      flux::Scheduler::Config::for_partition(one_node, &m));
  ASSERT_EQ(single.thread_count(), 3u);
  EXPECT_EQ(single.domain_count(), 1u);
  for (unsigned w = 0; w < 3; ++w) {
    EXPECT_EQ(single.cpu_of_worker(w), one_node[w]) << w;
    EXPECT_EQ(single.domain_of_worker(w), 0u) << w;
  }

  // Straddling both nodes: one domain per node, workers grouped by node.
  flux::Scheduler split(
      flux::Scheduler::Config::for_partition({2, 3, 4, 5}, &m));
  ASSERT_EQ(split.thread_count(), 4u);
  ASSERT_EQ(split.domain_count(), 2u);
  EXPECT_EQ(split.domain_of_worker(0), split.domain_of_worker(1));
  EXPECT_EQ(split.domain_of_worker(2), split.domain_of_worker(3));
  EXPECT_NE(split.domain_of_worker(0), split.domain_of_worker(2));

  // Domain-hinted submits land on that domain's workers and all run.
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    split.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); },
                 i % 3 - 1); // hints -1, 0, 1
  }
  split.wait_for_quiescence();
  EXPECT_EQ(ran.load(), 64);
}

TEST(SchedulerStats, TierCountsSumToTotalSteals) {
  flux::Scheduler sched({.threads = 4, .numa_domains = 2, .numa_aware = true});
  std::atomic<int> ran{0};
  // External submissions round-robin across workers; idle workers must
  // steal, and every successful steal lands in exactly one tier.
  for (int i = 0; i < 400; ++i) {
    sched.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  sched.wait_for_quiescence();
  EXPECT_EQ(ran.load(), 400);
  const flux::Scheduler::Stats s = sched.stats();
  EXPECT_EQ(s.steals, s.steals_sibling + s.steals_local + s.steals_remote);
  EXPECT_EQ(s.steals_sibling, 0u); // unpinned workers have no core identity
}

// ------------------------------------------------- CSB partition & placement

sparse::Coo tridiag(la::index_t n) {
  sparse::Coo coo(n, n);
  for (la::index_t i = 0; i < n; ++i) {
    coo.add(i, i, 2.0);
    if (i > 0) coo.add(i, i - 1, -1.0);
    if (i + 1 < n) coo.add(i, i + 1, -1.0);
  }
  return coo;
}

TEST(DomainMap, PartitionIsContiguousAndBalanced) {
  const sparse::Csb csb = sparse::Csb::from_coo(tridiag(1000), 32);
  const auto map = csb.partition_block_rows(3);
  ASSERT_EQ(map.domains(), 3);
  EXPECT_EQ(map.stripe_end.back(), csb.block_rows());
  la::index_t prev = 0;
  for (int d = 0; d < 3; ++d) {
    EXPECT_GE(map.stripe_end[static_cast<std::size_t>(d)], prev);
    // Every row inside the stripe reports this owner.
    for (la::index_t bi = prev; bi < map.stripe_end[static_cast<std::size_t>(d)];
         ++bi) {
      EXPECT_EQ(map.owner(bi), d);
    }
    prev = map.stripe_end[static_cast<std::size_t>(d)];
  }
  // A uniform tridiagonal matrix splits near-evenly: no stripe is empty and
  // none holds more than half the rows.
  prev = 0;
  for (int d = 0; d < 3; ++d) {
    const la::index_t len =
        map.stripe_end[static_cast<std::size_t>(d)] - prev;
    EXPECT_GT(len, 0);
    EXPECT_LE(len, csb.block_rows() / 2 + 1);
    prev = map.stripe_end[static_cast<std::size_t>(d)];
  }
}

TEST(DomainMap, SingleDomainOwnsEverything) {
  const sparse::Csb csb = sparse::Csb::from_coo(tridiag(100), 16);
  const auto map = csb.partition_block_rows(1);
  EXPECT_EQ(map.domains(), 1);
  EXPECT_EQ(map.owner(0), 0);
  EXPECT_EQ(map.owner(csb.block_rows() - 1), 0);
}

TEST(DomainMap, MoreDomainsThanRowsYieldsEmptyTailStripes) {
  const sparse::Csb csb = sparse::Csb::from_coo(tridiag(64), 32); // 2 rows
  const auto map = csb.partition_block_rows(4);
  EXPECT_EQ(map.stripe_end.back(), csb.block_rows());
  for (la::index_t bi = 0; bi < csb.block_rows(); ++bi) {
    EXPECT_LT(map.owner(bi), 4);
  }
}

TEST(PlaceStripes, InlineExecutionRoundTripsTheMatrix) {
  sparse::Csb csb = sparse::Csb::from_coo(tridiag(500), 17);
  const sparse::Coo before = csb.to_coo();
  const auto map = csb.partition_block_rows(3);
  int submitted = 0;
  csb.place_stripes(
      map,
      [&submitted](int domain, std::function<void()> work) {
        EXPECT_GE(domain, 0);
        EXPECT_LT(domain, 3);
        ++submitted;
        work(); // inline "scheduler"
      },
      [] {});
  EXPECT_GT(submitted, 0);
  const sparse::Coo after = csb.to_coo();
  ASSERT_EQ(before.entries().size(), after.entries().size());
  for (std::size_t i = 0; i < before.entries().size(); ++i) {
    EXPECT_EQ(before.entries()[i].row, after.entries()[i].row);
    EXPECT_EQ(before.entries()[i].col, after.entries()[i].col);
    EXPECT_EQ(before.entries()[i].value, after.entries()[i].value);
  }
}

TEST(PlaceStripes, OnSchedulerWithDomainHints) {
  sparse::Csb csb = sparse::Csb::from_coo(tridiag(800), 32);
  const sparse::Coo before = csb.to_coo();
  flux::Scheduler sched({.threads = 2, .numa_domains = 2, .numa_aware = true});
  const auto map = solver::place_csb(csb, sched);
  EXPECT_EQ(map.domains(), 2);
  const sparse::Coo after = csb.to_coo();
  ASSERT_EQ(before.entries().size(), after.entries().size());
  for (std::size_t i = 0; i < before.entries().size(); ++i) {
    EXPECT_EQ(before.entries()[i].value, after.entries()[i].value);
  }
}

} // namespace
} // namespace sts
