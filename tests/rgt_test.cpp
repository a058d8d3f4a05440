#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "rgt/runtime.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"

namespace sts::rgt {
namespace {

Runtime::Config cfg(unsigned workers = 2, bool verify = false) {
  return {.cpu_workers = workers,
          .verify_index_launches = verify,
          .window = 1024};
}

TEST(Runtime, RunsIndependentTasks) {
  std::vector<double> data(10, 0.0);
  Runtime rt(cfg());
  const RegionId r = rt.register_region(data, "d");
  rt.partition_equal(r, 10);
  for (std::int32_t i = 0; i < 10; ++i) {
    rt.execute({[&data, i](TaskContext&) { data[static_cast<std::size_t>(i)] = i; },
                {{r, i, Privilege::kWrite}},
                "w"});
  }
  rt.wait_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(data[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(rt.stats().tasks_launched, 10u);
}

TEST(Runtime, ReadAfterWriteIsOrdered) {
  std::vector<double> data(1, 0.0);
  std::vector<double> out(1, 0.0);
  Runtime rt(cfg(4));
  const RegionId rd = rt.register_region(data, "d");
  const RegionId ro = rt.register_region(out, "o");
  for (int iter = 0; iter < 50; ++iter) {
    rt.execute({[&data](TaskContext&) { data[0] += 1.0; },
                {{rd, -1, Privilege::kReadWrite}},
                "inc"});
  }
  rt.execute({[&data, &out](TaskContext&) { out[0] = data[0]; },
              {{rd, -1, Privilege::kRead}, {ro, -1, Privilege::kWrite}},
              "read"});
  rt.wait_all();
  EXPECT_EQ(out[0], 50.0);
}

TEST(Runtime, ParallelReadsDoNotSerialize) {
  // Many readers of one region plus a final writer: readers must all finish
  // before the writer (WAR).
  std::vector<double> data(1, 5.0);
  Runtime rt(cfg(4));
  const RegionId r = rt.register_region(data, "d");
  std::atomic<int> reads{0};
  std::atomic<int> reads_at_write{-1};
  for (int i = 0; i < 32; ++i) {
    rt.execute({[&](TaskContext&) { reads.fetch_add(1); },
                {{r, -1, Privilege::kRead}},
                "r"});
  }
  rt.execute({[&](TaskContext&) { reads_at_write = reads.load(); },
              {{r, -1, Privilege::kWrite}},
              "w"});
  rt.wait_all();
  EXPECT_EQ(reads_at_write.load(), 32);
}

TEST(Runtime, DisjointPiecesRunWithoutFalseDependencies) {
  std::vector<double> data(8, 0.0);
  Runtime rt(cfg(4));
  const RegionId r = rt.register_region(data, "d");
  rt.partition_equal(r, 8);
  // Writers on distinct pieces: no dependence edges should be created.
  for (std::int32_t i = 0; i < 8; ++i) {
    rt.execute({[&data, i](TaskContext&) { data[static_cast<std::size_t>(i)] = 1.0; },
                {{r, i, Privilege::kWrite}},
                "w"});
  }
  rt.wait_all();
  EXPECT_EQ(rt.stats().dependence_edges, 0u);
}

TEST(IndexLaunch, RunsAllPointTasks) {
  std::vector<double> data(64, 0.0);
  Runtime rt(cfg(4));
  const RegionId r = rt.register_region(data, "d");
  rt.partition_equal(r, 64);
  rt.index_launch(64, [&](std::int32_t i) {
    return TaskLaunch{[&data, i](TaskContext&) {
                        data[static_cast<std::size_t>(i)] = 2.0 * i;
                      },
                      {{r, i, Privilege::kWrite}},
                      "il"};
  });
  rt.wait_all();
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(data[static_cast<std::size_t>(i)], 2.0 * i);
  }
}

TEST(IndexLaunch, VerificationCatchesInterference) {
  std::vector<double> data(8, 0.0);
  Runtime rt(cfg(2, /*verify=*/true));
  const RegionId r = rt.register_region(data, "d");
  rt.partition_equal(r, 8);
  EXPECT_THROW(rt.index_launch(2,
                               [&](std::int32_t) {
                                 return TaskLaunch{[](TaskContext&) {},
                                                   {{r, 3, Privilege::kWrite}},
                                                   "conflict"};
                               }),
               support::Error);
  rt.wait_all();
}

TEST(IndexLaunch, VerificationAllowsReadSharing) {
  std::vector<double> data(8, 0.0);
  Runtime rt(cfg(2, /*verify=*/true));
  const RegionId r = rt.register_region(data, "d");
  std::vector<double> out(8, 0.0);
  const RegionId ro = rt.register_region(out, "o");
  rt.partition_equal(ro, 8);
  EXPECT_NO_THROW(rt.index_launch(8, [&](std::int32_t i) {
    return TaskLaunch{[](TaskContext&) {},
                      {{r, -1, Privilege::kRead}, {ro, i, Privilege::kWrite}},
                      "ok"};
  }));
  rt.wait_all();
}

TEST(Reduction, FoldsPerWorkerInstances) {
  std::vector<double> acc(4, 0.0);
  std::vector<double> out(4, 0.0);
  Runtime rt(cfg(4));
  const RegionId r = rt.register_region(acc, "acc");
  const RegionId ro = rt.register_region(out, "out");
  for (int i = 0; i < 100; ++i) {
    rt.execute({[r](TaskContext& ctx) {
                  auto buf = ctx.reduce_target(r);
                  buf[0] += 1.0;
                  buf[2] += 0.5;
                },
                {{r, -1, Privilege::kReduce}},
                "red"});
  }
  rt.execute({[&acc, &out](TaskContext&) {
                for (int i = 0; i < 4; ++i) out[static_cast<std::size_t>(i)] = acc[static_cast<std::size_t>(i)];
              },
              {{r, -1, Privilege::kRead},
               {ro, -1, Privilege::kWrite}},
              "read"});
  rt.wait_all();
  EXPECT_DOUBLE_EQ(out[0], 100.0);
  EXPECT_DOUBLE_EQ(out[1], 0.0);
  EXPECT_DOUBLE_EQ(out[2], 50.0);
  EXPECT_GE(rt.stats().folds_inserted, 1u);
}

TEST(Reduction, AccumulatesOntoExistingContents) {
  std::vector<double> acc(1, 10.0);
  Runtime rt(cfg(2));
  const RegionId r = rt.register_region(acc, "acc");
  for (int i = 0; i < 5; ++i) {
    rt.execute({[r](TaskContext& ctx) { ctx.reduce_target(r)[0] += 1.0; },
                {{r, -1, Privilege::kReduce}},
                "red"});
  }
  rt.wait_all(); // wait_all closes the epoch
  EXPECT_DOUBLE_EQ(acc[0], 15.0);
}

TEST(Reduction, DestructorFoldsAnOpenEpoch) {
  std::vector<double> acc = {1.0, 2.0, 7.0};
  {
    Runtime rt(cfg(3));
    const RegionId r = rt.register_region(acc, "acc");
    for (int i = 0; i < 50; ++i) {
      rt.execute({[r](TaskContext& ctx) {
                    auto buf = ctx.reduce_target(r);
                    buf[0] += 1.0;
                    buf[1] += 0.25;
                  },
                  {{r, -1, Privilege::kReduce}},
                  "red"});
    }
    // No wait_all(): the destructor must close the epoch and drain.
  }
  EXPECT_DOUBLE_EQ(acc[0], 51.0);
  EXPECT_DOUBLE_EQ(acc[1], 14.5);
  EXPECT_DOUBLE_EQ(acc[2], 7.0);
}

/// Property test: a random sequence of read/write/readwrite tasks over
/// partitioned regions must produce the same result as serial execution.
TEST(Runtime, RandomProgramMatchesSerialSemantics) {
  support::Xoshiro256 rng(321);
  for (int trial = 0; trial < 6; ++trial) {
    const int np = 4 + static_cast<int>(rng.below(5));
    const int ntasks = 80;
    std::vector<double> serial(static_cast<std::size_t>(np), 0.0);
    std::vector<double> parallel(static_cast<std::size_t>(np), 0.0);

    struct Op {
      std::int32_t src;
      std::int32_t dst;
      double scale;
    };
    std::vector<Op> ops;
    for (int t = 0; t < ntasks; ++t) {
      ops.push_back({static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(np))),
                     static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(np))),
                     rng.uniform(0.5, 1.5)});
    }
    for (const Op& op : ops) {
      serial[static_cast<std::size_t>(op.dst)] =
          serial[static_cast<std::size_t>(op.dst)] * 0.5 +
          serial[static_cast<std::size_t>(op.src)] * op.scale + 1.0;
    }

    Runtime rt(cfg(4));
    const RegionId r = rt.register_region(parallel, "v");
    rt.partition_equal(r, np);
    for (const Op& op : ops) {
      std::vector<RegionReq> reqs;
      reqs.push_back({r, op.dst, Privilege::kReadWrite});
      if (op.src != op.dst) reqs.push_back({r, op.src, Privilege::kRead});
      rt.execute({[&parallel, op](TaskContext&) {
                    parallel[static_cast<std::size_t>(op.dst)] =
                        parallel[static_cast<std::size_t>(op.dst)] * 0.5 +
                        parallel[static_cast<std::size_t>(op.src)] * op.scale +
                        1.0;
                  },
                  std::move(reqs),
                  "op"});
    }
    rt.wait_all();
    for (int p = 0; p < np; ++p) {
      ASSERT_DOUBLE_EQ(parallel[static_cast<std::size_t>(p)],
                       serial[static_cast<std::size_t>(p)])
          << "trial " << trial << " piece " << p;
    }
  }
}

TEST(Faults, FailedTaskSuppressesSuccessorsAndNamesItself) {
  std::vector<double> data(1, 0.0);
  Runtime rt(cfg(2));
  const RegionId r = rt.register_region(data, "d");
  std::atomic<bool> ran_after{false};
  rt.execute({[](TaskContext&) { throw std::runtime_error("boom"); },
              {{r, -1, Privilege::kWrite}},
              "bad_write"});
  rt.execute({[&](TaskContext&) { ran_after = true; },
              {{r, -1, Privilege::kRead}},
              "read"});
  try {
    rt.wait_all();
    FAIL() << "expected TaskError";
  } catch (const support::TaskError& e) {
    EXPECT_EQ(e.task(), "bad_write");
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
  // The dependent read was suppressed, not run against poisoned data.
  EXPECT_FALSE(ran_after.load());
  // The runtime is clean again and reusable.
  EXPECT_FALSE(rt.cancelled());
  rt.execute({[&data](TaskContext&) { data[0] = 7.0; },
              {{r, -1, Privilege::kWrite}},
              "write"});
  rt.wait_all();
  EXPECT_EQ(data[0], 7.0);
}

TEST(Faults, InjectedFaultAtTaskSite) {
  std::vector<double> data(4, 0.0);
  Runtime rt(cfg(2));
  const RegionId r = rt.register_region(data, "d");
  rt.partition_equal(r, 4);
  support::fault::ScopedFault inject("rgt:task:hit=2");
  for (std::int32_t i = 0; i < 4; ++i) {
    rt.execute({[&data, i](TaskContext&) { data[static_cast<std::size_t>(i)] = 1.0; },
                {{r, i, Privilege::kWrite}},
                "w"});
  }
  try {
    rt.wait_all();
    FAIL() << "expected TaskError from the injected fault";
  } catch (const support::TaskError& e) {
    EXPECT_EQ(e.task(), "w");
    EXPECT_NE(std::string(e.what()).find("rgt:task"), std::string::npos);
  }
}

TEST(Faults, WaitAllDeadlineReportsInFlightTasks) {
  std::vector<double> data(1, 0.0);
  Runtime rt(cfg(2));
  const RegionId r = rt.register_region(data, "d");
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  rt.execute({[&](TaskContext&) {
                std::unique_lock<std::mutex> lock(m);
                cv.wait(lock, [&] { return release; });
              },
              {{r, -1, Privilege::kWrite}},
              "stall"});
  try {
    rt.wait_all(std::chrono::milliseconds(100));
    FAIL() << "expected TimeoutError";
  } catch (const support::TimeoutError& e) {
    EXPECT_NE(std::string(e.what()).find("in flight"), std::string::npos);
  }
  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();
  rt.wait_all(std::chrono::seconds(5));
}

// Spins until `flag` is set, failing the test (instead of hanging it) if
// nobody sets it within 5 s.
void spin_until(const std::atomic<bool>& flag) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!flag.load(std::memory_order_acquire)) {
    if (std::chrono::steady_clock::now() > give_up) {
      ADD_FAILURE() << "flag never set: nobody ran the releasing task";
      return;
    }
    std::this_thread::yield();
  }
}

TEST(Launcher, RunsReadyTasksWhileWaiting) {
  // The only worker is held by "a" until "b" runs, so "b" can only run on
  // the launching thread inside wait_all().
  std::vector<double> data(2, 0.0);
  Runtime rt(cfg(1));
  const RegionId r = rt.register_region(data, "d");
  rt.partition_equal(r, 2);
  std::atomic<bool> a_started{false};
  std::atomic<bool> b_ran{false};
  std::atomic<int> b_worker{-1};
  rt.execute({[&](TaskContext&) {
                a_started.store(true, std::memory_order_release);
                spin_until(b_ran);
              },
              {{r, 0, Privilege::kWrite}},
              "a"});
  spin_until(a_started);
  rt.execute({[&](TaskContext& ctx) {
                b_worker.store(ctx.worker());
                b_ran.store(true, std::memory_order_release);
              },
              {{r, 1, Privilege::kWrite}},
              "b"});
  rt.wait_all();
  EXPECT_EQ(b_worker.load(), 1);
  EXPECT_GE(rt.stats().tasks_helped, 1u);
}

TEST(Launcher, ReducesIntoItsOwnSlot) {
  // "a" reduces on the only worker (slot 0) and holds it until "b", a
  // reducer of the same epoch, has run on the launcher (slot cpu_workers).
  // Dyadic values make the folded sum exact in any order.
  std::vector<double> acc(4, 1.0);
  Runtime rt(cfg(1));
  const RegionId r = rt.register_region(acc, "acc");
  std::atomic<bool> a_started{false};
  std::atomic<bool> b_ran{false};
  std::atomic<int> a_worker{-1};
  std::atomic<int> b_worker{-1};
  rt.execute({[&, r](TaskContext& ctx) {
                a_worker.store(ctx.worker());
                auto buf = ctx.reduce_target(r);
                for (std::size_t k = 0; k < buf.size(); ++k) {
                  buf[k] += 0.5 + static_cast<double>(k) / 8.0;
                }
                a_started.store(true, std::memory_order_release);
                spin_until(b_ran);
              },
              {{r, -1, Privilege::kReduce}},
              "a"});
  spin_until(a_started);
  rt.execute({[&, r](TaskContext& ctx) {
                b_worker.store(ctx.worker());
                auto buf = ctx.reduce_target(r);
                for (std::size_t k = 0; k < buf.size(); ++k) buf[k] += 0.25;
                b_ran.store(true, std::memory_order_release);
              },
              {{r, -1, Privilege::kReduce}},
              "b"});
  rt.wait_all(); // closes the epoch: the fold sums both slots
  EXPECT_EQ(a_worker.load(), 0);
  EXPECT_EQ(b_worker.load(), static_cast<int>(rt.cpu_workers()));
  for (std::size_t k = 0; k < acc.size(); ++k) {
    EXPECT_EQ(acc[k], 1.75 + static_cast<double>(k) / 8.0) << "k=" << k;
  }
}

TEST(Launcher, FullWindowHelpsInsteadOfBlocking) {
  // With a window of 2, nearly every execute() waits for room and runs
  // tasks on the launcher meanwhile; the chained updates stay ordered.
  std::vector<double> data(4, 0.0);
  Runtime rt({.cpu_workers = 2, .window = 2});
  const RegionId r = rt.register_region(data, "d");
  rt.partition_equal(r, 4);
  for (int i = 0; i < 200; ++i) {
    const std::int32_t p = i % 4;
    rt.execute({[&data, p, i](TaskContext&) {
                  double& x = data[static_cast<std::size_t>(p)];
                  x = 2.0 * x + static_cast<double>(i);
                },
                {{r, p, Privilege::kReadWrite}},
                "step"});
  }
  rt.wait_all();
  for (std::int32_t p = 0; p < 4; ++p) {
    // Serial replay: any reordering of a piece's updates changes the value.
    double x = 0.0;
    for (int i = p; i < 200; i += 4) x = 2.0 * x + static_cast<double>(i);
    EXPECT_EQ(data[static_cast<std::size_t>(p)], x) << "piece " << p;
  }
  EXPECT_EQ(rt.stats().tasks_launched, 200u);
}

TEST(Runtime, StatsTrackAnalysis) {
  std::vector<double> d(4, 0.0);
  Runtime rt(cfg(2));
  const RegionId r = rt.register_region(d, "d");
  rt.partition_equal(r, 4);
  // An edge is only recorded when the predecessor is still pending at
  // analysis time, so hold "a" open until "b" has been analyzed (analysis
  // runs inline in execute() on this thread).
  std::atomic<bool> release{false};
  rt.execute({[&release](TaskContext&) {
                while (!release.load(std::memory_order_acquire)) {
                  std::this_thread::yield();
                }
              },
              {{r, 0, Privilege::kWrite}},
              "a"});
  rt.execute({[](TaskContext&) {}, {{r, 0, Privilege::kRead}}, "b"});
  release.store(true, std::memory_order_release);
  rt.wait_all();
  const auto st = rt.stats();
  EXPECT_EQ(st.tasks_launched, 2u);
  EXPECT_EQ(st.dependence_edges, 1u);
  EXPECT_GT(st.piece_checks, 0u);
  EXPECT_GE(st.analysis_seconds, 0.0);
}

} // namespace
} // namespace sts::rgt
