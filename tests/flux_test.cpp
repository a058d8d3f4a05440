#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <new>
#include <numeric>
#include <thread>
#include <vector>

#include "flux/dataflow.hpp"
#include "flux/stf.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/rng.hpp"

// Allocation counting for the dataflow-node tests: operator new bumps the
// calling thread's counter while an AllocationCount is alive on it, so
// allocations made by scheduler workers never leak into a count.
namespace {
thread_local std::size_t* t_alloc_count = nullptr;

void* counted_malloc(std::size_t n) {
  if (t_alloc_count != nullptr) ++*t_alloc_count;
  return std::malloc(n == 0 ? 1 : n);
}

// Out of line so the compiler never pairs an inlined free() with the
// operator new call that produced the pointer (-Wmismatched-new-delete).
[[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }
} // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace sts::flux {
namespace {

/// Counts the calling thread's operator-new calls during its lifetime.
class AllocationCount {
public:
  AllocationCount() { t_alloc_count = &count_; }
  ~AllocationCount() { t_alloc_count = nullptr; }
  AllocationCount(const AllocationCount&) = delete;
  AllocationCount& operator=(const AllocationCount&) = delete;
  [[nodiscard]] std::size_t value() const { return count_; }

private:
  std::size_t count_ = 0;
};

Scheduler::Config cfg(unsigned threads, unsigned domains = 1,
                      bool numa = false) {
  return {.threads = threads, .numa_domains = domains, .numa_aware = numa};
}

TEST(Scheduler, RunsSubmittedTasks) {
  Scheduler s(cfg(2));
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    s.submit([&count] { count.fetch_add(1); });
  }
  s.wait_for_quiescence();
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(s.stats().executed, 100u);
}

TEST(Scheduler, NestedSubmissionsComplete) {
  Scheduler s(cfg(2));
  std::atomic<int> count{0};
  s.submit([&] {
    for (int i = 0; i < 10; ++i) {
      s.submit([&] {
        count.fetch_add(1);
        s.submit([&] { count.fetch_add(1); });
      });
    }
  });
  s.wait_for_quiescence();
  EXPECT_EQ(count.load(), 20);
}

TEST(Scheduler, DomainHintsTargetDomains) {
  Scheduler s(cfg(4, 2, true));
  EXPECT_EQ(s.domain_count(), 2u);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    s.submit([&count] { count.fetch_add(1); }, i % 2);
  }
  s.wait_for_quiescence();
  EXPECT_EQ(count.load(), 50);
}

TEST(Scheduler, CurrentWorkerOnlyInsideWorkers) {
  Scheduler s(cfg(2));
  EXPECT_EQ(s.current_worker(), -1);
  std::atomic<int> seen{-2};
  s.submit([&] { seen = s.current_worker(); });
  s.wait_for_quiescence();
  EXPECT_GE(seen.load(), 0);
  EXPECT_LT(seen.load(), 2);
}

TEST(Future, PromiseDeliversValue) {
  promise<int> p;
  auto f = p.get_future();
  EXPECT_FALSE(f.is_ready());
  p.set_value(42);
  EXPECT_TRUE(f.is_ready());
  EXPECT_EQ(f.get(), 42);
}

TEST(Future, MakeReadyFuture) {
  auto f = make_ready_future();
  EXPECT_TRUE(f.is_ready());
  auto g = make_ready_future(3.5);
  EXPECT_EQ(g.get(), 3.5);
}

TEST(Future, SharedFutureMultipleReaders) {
  promise<int> p;
  shared_future<int> a = p.get_shared_future();
  shared_future<int> b = a;
  p.set_value(7);
  EXPECT_EQ(a.get(), 7);
  EXPECT_EQ(b.get(), 7);
}

TEST(Future, ContinuationFiresOnce) {
  promise<void> p;
  auto f = p.get_shared_future();
  std::atomic<int> fired{0};
  auto bump = [](detail::Continuation& link) noexcept {
    static_cast<std::atomic<int>*>(link.context)->fetch_add(1);
  };
  detail::Continuation first{bump, &fired};
  f.state()->add_continuation(first);
  p.set_value();
  EXPECT_EQ(fired.load(), 1);
  // Late link on a ready state fires immediately.
  detail::Continuation late{bump, &fired};
  f.state()->add_continuation(late);
  EXPECT_EQ(fired.load(), 2);
}

TEST(Future, LinksFireInRegistrationOrder) {
  promise<void> p;
  auto f = p.get_shared_future();
  struct Probe {
    std::vector<int>* order;
    int id;
  };
  constexpr int kLinks = 9;
  std::vector<int> order;
  order.reserve(kLinks);
  std::array<Probe, kLinks> probes{};
  std::array<detail::Continuation, kLinks> links{};
  for (int i = 0; i < kLinks; ++i) {
    const auto k = static_cast<std::size_t>(i);
    probes[k] = {&order, i};
    links[k].fire = [](detail::Continuation& link) noexcept {
      const auto* probe = static_cast<const Probe*>(link.context);
      probe->order->push_back(probe->id);
    };
    links[k].context = &probes[k];
    f.state()->add_continuation(links[k]);
  }
  EXPECT_TRUE(order.empty());
  p.set_value();
  std::vector<int> expected(kLinks);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(Future, HelperlessGetWakesPlainThreads) {
  Scheduler s(cfg(2));
  promise<void> gate;
  auto f = dataflow(s, unwrapping([] { return 42; }), gate.get_shared_future())
               .share();
  constexpr int kWaiters = 3;
  std::array<std::atomic<int>, kWaiters> got{};
  std::vector<std::thread> waiters;
  for (int w = 0; w < kWaiters; ++w) {
    // No helper: these threads block on the state word itself.
    waiters.emplace_back(
        [&got, f, w] { got[static_cast<std::size_t>(w)] = f.get(); });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (const auto& g : got) EXPECT_EQ(g.load(), 0);
  gate.set_value();
  for (std::thread& t : waiters) t.join();
  for (const auto& g : got) EXPECT_EQ(g.load(), 42);
  s.wait_for_quiescence();
}

TEST(DataflowNode, TwoDependencyDataflowIsOneAllocation) {
  Scheduler s(cfg(2));
  promise<void> p1;
  promise<void> p2;
  const shared_future<void> f1 = p1.get_shared_future();
  const shared_future<void> f2 = p2.get_shared_future();
  std::atomic<bool> ran{false};
  future<void> node;
  std::size_t allocations = 0;
  {
    const AllocationCount count;
    node = dataflow(s, unwrapping([&ran] { ran = true; }), f1, f2);
    allocations = count.value();
  }
  EXPECT_EQ(allocations, 1u);
  p1.set_value();
  p2.set_value();
  node.get();
  EXPECT_TRUE(ran.load());
  s.wait_for_quiescence();
}

TEST(DataflowNode, WideWhenAllIsAtMostTwoAllocations) {
  // The Lanczos reduce shape: one join over a producer per block row.
  Scheduler s(cfg(2));
  std::vector<promise<void>> promises(48);
  std::vector<shared_future<void>> futs;
  futs.reserve(promises.size());
  for (auto& p : promises) futs.push_back(p.get_shared_future());
  future<void> all;
  std::size_t allocations = 0;
  {
    const AllocationCount count;
    all = when_all(s, std::move(futs));
    allocations = count.value();
  }
  EXPECT_LE(allocations, 2u); // the node plus one link array
  EXPECT_FALSE(all.is_ready());
  for (auto& p : promises) p.set_value();
  all.get();
  s.wait_for_quiescence();
}

TEST(Async, ReturnsResult) {
  Scheduler s(cfg(2));
  auto f = async(s, [] { return std::string("hi"); });
  EXPECT_EQ(f.get(), "hi");
  s.wait_for_quiescence();
}

TEST(Async, PropagatesExceptions) {
  Scheduler s(cfg(2));
  auto f = async(s, []() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW((void)f.get(), std::runtime_error);
  // The scheduler latched the same error; the next quiescence wait
  // surfaces it once, then the scheduler is clean again.
  EXPECT_THROW(s.wait_for_quiescence(), std::runtime_error);
  s.wait_for_quiescence();
}

TEST(Dataflow, WaitsForAllDependencies) {
  Scheduler s(cfg(2));
  promise<void> p1;
  promise<void> p2;
  std::atomic<bool> ran{false};
  auto f = dataflow(s, unwrapping([&ran] { ran = true; }),
                    p1.get_shared_future(), p2.get_shared_future());
  EXPECT_FALSE(ran.load());
  p1.set_value();
  EXPECT_FALSE(ran.load());
  p2.set_value();
  f.get();
  EXPECT_TRUE(ran.load());
  s.wait_for_quiescence();
}

TEST(Dataflow, VectorOfFuturesAsDependency) {
  Scheduler s(cfg(2));
  std::vector<promise<void>> promises(8);
  std::vector<shared_future<void>> futs;
  for (auto& p : promises) futs.push_back(p.get_shared_future());
  std::atomic<bool> ran{false};
  auto f = dataflow(s, unwrapping([&ran] { ran = true; }), futs);
  for (std::size_t i = 0; i + 1 < promises.size(); ++i) {
    promises[i].set_value();
  }
  EXPECT_FALSE(ran.load());
  promises.back().set_value();
  f.get();
  EXPECT_TRUE(ran.load());
  s.wait_for_quiescence();
}

TEST(Dataflow, UnwrappingPassesValuesAndDropsVoids) {
  Scheduler s(cfg(2));
  auto vf = make_ready_future();
  auto iv = make_ready_future(5);
  auto f = dataflow(
      s, unwrapping([](int v, double d) { return v + static_cast<int>(d); }),
      vf, iv, 2.0);
  EXPECT_EQ(f.get(), 7);
  s.wait_for_quiescence();
}

TEST(Dataflow, SelfChainSerializesWrites) {
  Scheduler s(cfg(4));
  int value = 0; // unsynchronized on purpose: the chain must serialize
  shared_future<void> chain = make_ready_future();
  for (int i = 0; i < 200; ++i) {
    chain = dataflow(s, unwrapping([&value] { ++value; }), chain).share();
  }
  chain.get();
  s.wait_for_quiescence();
  EXPECT_EQ(value, 200);
}

TEST(WhenAll, ReadyWhenAllReady) {
  Scheduler s(cfg(2));
  std::vector<promise<void>> promises(4);
  std::vector<shared_future<void>> futs;
  for (auto& p : promises) futs.push_back(p.get_shared_future());
  auto all = when_all(s, futs);
  for (auto& p : promises) p.set_value();
  all.get();
  s.wait_for_quiescence();
}

/// Property test: a random dataflow DAG computed with flux must produce the
/// same values as a sequential evaluation.
TEST(Dataflow, RandomDagMatchesSerialEvaluation) {
  support::Xoshiro256 rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    const int n = 30 + static_cast<int>(rng.below(40));
    // node value = 1 + sum of dependency values (mod large prime).
    std::vector<std::vector<int>> deps(static_cast<std::size_t>(n));
    for (int i = 1; i < n; ++i) {
      const int ndeps = static_cast<int>(rng.below(4));
      for (int d = 0; d < ndeps; ++d) {
        deps[static_cast<std::size_t>(i)].push_back(
            static_cast<int>(rng.below(static_cast<std::uint64_t>(i))));
      }
    }
    std::vector<std::int64_t> serial(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      std::int64_t v = 1;
      for (int d : deps[static_cast<std::size_t>(i)]) {
        v += serial[static_cast<std::size_t>(d)];
      }
      serial[static_cast<std::size_t>(i)] = v % 1000003;
    }

    Scheduler s(cfg(4));
    std::vector<std::int64_t> values(static_cast<std::size_t>(n), 0);
    std::vector<shared_future<void>> done(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      std::vector<shared_future<void>> my_deps;
      for (int d : deps[static_cast<std::size_t>(i)]) {
        my_deps.push_back(done[static_cast<std::size_t>(d)]);
      }
      auto body = [i, &values, deps_copy = deps[static_cast<std::size_t>(i)]] {
        std::int64_t v = 1;
        for (int d : deps_copy) v += values[static_cast<std::size_t>(d)];
        values[static_cast<std::size_t>(i)] = v % 1000003;
      };
      done[static_cast<std::size_t>(i)] =
          dataflow(s, unwrapping(body), std::move(my_deps)).share();
    }
    for (auto& f : done) f.get();
    s.wait_for_quiescence();
    ASSERT_EQ(values, serial) << "trial " << trial;
  }
}

/// The same property with 10,000 nodes created by 4 threads at once, each
/// node depending on recent nodes another thread may still be creating, so
/// link registration races completion on the same states.
TEST(Dataflow, ConcurrentlyBuiltRandomDagMatchesSerialEvaluation) {
  constexpr int kNodes = 10000;
  constexpr int kBuilders = 4;
  constexpr std::int64_t kMod = 1000003;
  support::Xoshiro256 rng(77);
  std::vector<std::vector<int>> deps(static_cast<std::size_t>(kNodes));
  for (int i = 1; i < kNodes; ++i) {
    const int ndeps = static_cast<int>(rng.below(6));
    const auto window = static_cast<std::uint64_t>(std::min(i, 64));
    for (int d = 0; d < ndeps; ++d) {
      deps[static_cast<std::size_t>(i)].push_back(
          i - 1 - static_cast<int>(rng.below(window)));
    }
  }
  std::vector<std::int64_t> serial(static_cast<std::size_t>(kNodes));
  for (int i = 0; i < kNodes; ++i) {
    std::int64_t v = 1;
    for (int d : deps[static_cast<std::size_t>(i)]) {
      v += serial[static_cast<std::size_t>(d)];
    }
    serial[static_cast<std::size_t>(i)] = v % kMod;
  }

  Scheduler s(cfg(4));
  std::vector<std::int64_t> values(static_cast<std::size_t>(kNodes), 0);
  std::vector<shared_future<void>> done(static_cast<std::size_t>(kNodes));
  std::vector<std::atomic<bool>> published(static_cast<std::size_t>(kNodes));
  std::vector<std::thread> builders;
  for (int b = 0; b < kBuilders; ++b) {
    builders.emplace_back([&, b] {
      for (int i = b; i < kNodes; i += kBuilders) {
        const auto& my = deps[static_cast<std::size_t>(i)];
        std::vector<shared_future<void>> my_deps;
        for (int d : my) {
          const auto k = static_cast<std::size_t>(d);
          while (!published[k].load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
          my_deps.push_back(done[k]);
        }
        auto body = [i, &values, &my] {
          std::int64_t v = 1;
          for (int d : my) v += values[static_cast<std::size_t>(d)];
          values[static_cast<std::size_t>(i)] = v % kMod;
        };
        done[static_cast<std::size_t>(i)] =
            dataflow(s, unwrapping(body), std::move(my_deps)).share();
        published[static_cast<std::size_t>(i)].store(
            true, std::memory_order_release);
      }
    });
  }
  for (std::thread& t : builders) t.join();
  for (auto& f : done) f.get(&s);
  s.wait_for_quiescence();
  EXPECT_EQ(values, serial);
}

TEST(Faults, MidChainErrorSkipsSuccessorsAndSurfacesOnce) {
  Scheduler s(cfg(2));
  std::atomic<bool> ran_a{false};
  std::atomic<bool> ran_c{false};
  auto a = dataflow(s, unwrapping([&] { ran_a = true; })).share();
  auto b = dataflow(s, unwrapping([]() -> void {
                      throw support::TaskError("spmv[1,1]", "injected");
                    }),
                    a)
               .share();
  auto c = dataflow(s, unwrapping([&] { ran_c = true; }), b).share();
  try {
    c.get();
    FAIL() << "expected TaskError";
  } catch (const support::TaskError& e) {
    EXPECT_EQ(e.task(), "spmv[1,1]");
  }
  EXPECT_TRUE(ran_a.load());
  EXPECT_FALSE(ran_c.load()); // the dependency's error was forwarded
  EXPECT_TRUE(s.cancelled());
  EXPECT_THROW(s.wait_for_quiescence(), support::TaskError);
  // Clean after the rethrow: the scheduler is reusable.
  EXPECT_FALSE(s.cancelled());
  std::atomic<int> count{0};
  for (int i = 0; i < 16; ++i) s.submit([&] { count.fetch_add(1); });
  s.wait_for_quiescence();
  EXPECT_EQ(count.load(), 16);
}

TEST(Faults, CancellationDropsQueuedTasks) {
  // One worker makes the schedule deterministic: the failing task enqueues
  // its successors, throws, and only then can the worker dequeue them.
  Scheduler s(cfg(1));
  std::atomic<int> ran{0};
  s.submit([&] {
    for (int i = 0; i < 64; ++i) s.submit([&] { ran.fetch_add(1); });
    throw std::runtime_error("abort the rest");
  });
  EXPECT_THROW(s.wait_for_quiescence(), std::runtime_error);
  EXPECT_EQ(ran.load(), 0);
  s.wait_for_quiescence(); // reusable and clean
}

TEST(Faults, InjectedFaultAtTaskSite) {
  Scheduler s(cfg(2));
  support::fault::ScopedFault f("flux:task:hit=3");
  for (int i = 0; i < 8; ++i) {
    s.submit([] {});
  }
  try {
    s.wait_for_quiescence();
    FAIL() << "expected fault::Injected";
  } catch (const support::fault::Injected& e) {
    EXPECT_EQ(e.site(), "flux:task");
  }
}

TEST(Faults, QuiescenceDeadlineReportsDiagnostics) {
  Scheduler s(cfg(2));
  std::mutex m;
  std::condition_variable cv;
  bool release = false;
  s.submit([&] {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return release; });
  });
  try {
    s.wait_for_quiescence(std::chrono::milliseconds(100));
    FAIL() << "expected TimeoutError";
  } catch (const support::TimeoutError& e) {
    EXPECT_NE(std::string(e.what()).find("outstanding"), std::string::npos);
  }
  {
    std::lock_guard<std::mutex> lock(m);
    release = true;
  }
  cv.notify_all();
  s.wait_for_quiescence(std::chrono::seconds(5));
}

TEST(Scheduler, StealStatsAccumulate) {
  Scheduler s(cfg(4));
  std::atomic<int> count{0};
  // Submit chains from outside so some workers must steal.
  for (int i = 0; i < 400; ++i) {
    s.submit([&count] {
      volatile double x = 0;
      for (int k = 0; k < 1000; ++k) x = x + k;
      count.fetch_add(1);
    });
  }
  s.wait_for_quiescence();
  EXPECT_EQ(count.load(), 400);
  // steals is machine-dependent; just verify the counter is readable.
  EXPECT_GE(s.stats().steals, 0u);
}

TEST(Scheduler, ExecutedCountsTasksRunByHelpers) {
  Scheduler s(cfg(1));
  // Park the only worker so the async task below can only run on the
  // helping main thread.
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  s.submit([&] {
    started = true;
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
  auto f = async(s, [] { return 7; });
  EXPECT_EQ(f.get(&s), 7);
  release = true;
  s.wait_for_quiescence();
  EXPECT_EQ(s.stats().executed, 2u);
}

TEST(Task, SmallClosureIsStoredInline) {
  int x = 0;
  Task small([&x] { ++x; });
  EXPECT_TRUE(static_cast<bool>(small));
  EXPECT_TRUE(small.inline_stored());
  small();
  EXPECT_EQ(x, 1);

  // Move transfers the closure and empties the source.
  Task moved(std::move(small));
  EXPECT_FALSE(static_cast<bool>(small)); // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(moved));
  moved();
  EXPECT_EQ(x, 2);
}

TEST(Task, LargeClosureFallsBackToHeapAndDestroysOnce) {
  auto tracked = std::make_shared<int>(7);
  std::array<char, 2 * Task::kInlineSize> pad{};
  int sum = 0;
  {
    Task big([tracked, pad, &sum] { sum += *tracked + pad[0]; });
    EXPECT_FALSE(big.inline_stored());
    EXPECT_EQ(tracked.use_count(), 2);
    Task moved = std::move(big);
    EXPECT_EQ(tracked.use_count(), 2); // heap move relocates, no copy
    moved();
  }
  EXPECT_EQ(sum, 7);
  EXPECT_EQ(tracked.use_count(), 1); // closure destroyed exactly once
}

TEST(Scheduler, StressConcurrentSubmittersAndRecursiveSpawns) {
  // Hammers every queue path at once: external submissions (inboxes) from
  // several threads, domain-hinted submissions, and worker-local recursive
  // spawns (the lock-free ring), with 4 workers stealing from each other.
  Scheduler s(cfg(4, 2, true));
  std::atomic<int> count{0};
  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 250;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int sub = 0; sub < kSubmitters; ++sub) {
    submitters.emplace_back([&s, &count, sub] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        const int hint = (i % 3 == 0) ? sub % 2 : -1;
        s.submit(
            [&s, &count] {
              count.fetch_add(1);
              // Worker-local child + grandchild: ring push/pop under
              // concurrent steals.
              s.submit([&s, &count] {
                count.fetch_add(1);
                s.submit([&count] { count.fetch_add(1); });
              });
            },
            hint);
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  s.wait_for_quiescence();
  EXPECT_EQ(count.load(), kSubmitters * kPerSubmitter * 3);
  EXPECT_EQ(s.stats().executed,
            static_cast<std::uint64_t>(kSubmitters * kPerSubmitter * 3));
}

TEST(Scheduler, RingOverflowFallsBackToInbox) {
  // A single worker spawning more children than the ring holds must spill
  // into its inbox and still run everything (no drops, no deadlock).
  Scheduler s(cfg(1));
  std::atomic<int> count{0};
  const int n = static_cast<int>(Scheduler::kRingCapacity) + 500;
  s.submit([&s, &count, n] {
    for (int i = 0; i < n; ++i) {
      s.submit([&count] { count.fetch_add(1); });
    }
  });
  s.wait_for_quiescence();
  EXPECT_EQ(count.load(), n);
}

/// A random sequential task flow over three objects of kPieces pieces:
/// each task reads and writes random pieces (or whole objects, piece -1),
/// and the host syncs on random pieces along the way. Every task folds
/// what it reads into what it writes, so any inferred edge that is missing
/// or points the wrong way changes the values; they must equal the
/// program's sequential execution, mid-flight (at each sync) and at the end.
TEST(Stf, RandomProgramMatchesSequentialExecution) {
  constexpr int kObjects = 3;
  constexpr int kPieces = 6;
  constexpr std::int64_t kMod = 1000003;
  support::Xoshiro256 rng(2024);
  for (int trial = 0; trial < 8; ++trial) {
    struct Step {
      std::vector<Access> accesses;
      bool sync = false;
    };
    std::vector<Step> program;
    for (int i = 0; i < 400; ++i) {
      Step st;
      st.sync = rng.below(16) == 0;
      const int n = 1 + static_cast<int>(rng.below(4));
      for (int k = 0; k < n; ++k) {
        const int obj = static_cast<int>(rng.below(kObjects));
        const std::int64_t piece =
            rng.below(8) == 0 ? -1
                              : static_cast<std::int64_t>(rng.below(kPieces));
        st.accesses.push_back(rng.below(2) == 0 ? read(obj, piece)
                                                : write(obj, piece));
      }
      program.push_back(std::move(st));
    }

    using Cells = std::vector<std::vector<std::int64_t>>;
    // One task (or host step) of the program: reads, then writes.
    auto run = [](Cells& cells, const std::vector<Access>& acc,
                  std::int64_t id) {
      std::int64_t v = id;
      for (const Access& a : acc) {
        auto& obj = cells[static_cast<std::size_t>(a.data)];
        for (std::int64_t p = 0; p < kPieces; ++p) {
          if (a.piece < 0 || a.piece == p) {
            v = (v * 31 + obj[static_cast<std::size_t>(p)]) % kMod;
          }
        }
      }
      for (const Access& a : acc) {
        if (!a.write) continue;
        auto& obj = cells[static_cast<std::size_t>(a.data)];
        for (std::int64_t p = 0; p < kPieces; ++p) {
          if (a.piece < 0 || a.piece == p) {
            auto& c = obj[static_cast<std::size_t>(p)];
            c = (c * 7 + v + 1) % kMod;
          }
        }
      }
    };

    const Cells zero(kObjects, std::vector<std::int64_t>(kPieces, 0));
    Cells serial = zero;
    Cells cells = zero;
    Scheduler s(cfg(4));
    Stf stf(s);
    for (int o = 0; o < kObjects; ++o) ASSERT_EQ(stf.data(kPieces), o);
    for (std::size_t i = 0; i < program.size(); ++i) {
      const Step& st = program[i];
      const auto id = static_cast<std::int64_t>(i);
      run(serial, st.accesses, id);
      if (st.sync) {
        // The host makes the step's accesses itself, after the sync.
        for (const Access& a : st.accesses) {
          stf.sync({a});
        }
        run(cells, st.accesses, id);
        for (const Access& a : st.accesses) {
          const auto& got = cells[static_cast<std::size_t>(a.data)];
          const auto& want = serial[static_cast<std::size_t>(a.data)];
          for (std::int64_t p = 0; p < kPieces; ++p) {
            if (a.piece < 0 || a.piece == p) {
              ASSERT_EQ(got[static_cast<std::size_t>(p)],
                        want[static_cast<std::size_t>(p)])
                  << "trial " << trial << " step " << i;
            }
          }
        }
        continue;
      }
      Cells* c = &cells;
      const std::vector<Access>& acc = st.accesses;
      auto body = [&run, c, acc, id] { run(*c, acc, id); };
      // insert() takes a braced list; spell out each length.
      switch (acc.size()) {
        case 1: stf.insert(-1, body, {acc[0]}); break;
        case 2: stf.insert(-1, body, {acc[0], acc[1]}); break;
        case 3: stf.insert(-1, body, {acc[0], acc[1], acc[2]}); break;
        default: stf.insert(-1, body, {acc[0], acc[1], acc[2], acc[3]});
      }
    }
    for (int o = 0; o < kObjects; ++o) stf.sync({write(o)});
    EXPECT_EQ(cells, serial) << "trial " << trial;
    s.wait_for_quiescence();
  }
}

TEST(Stf, SyncWaitsForWriterAndReadersAndFreesThePiece) {
  Scheduler s(cfg(2));
  Stf stf(s);
  const int x = stf.data(1);
  std::atomic<bool> writer_done{false};
  std::atomic<int> readers_done{0};
  const Stf::Fut w = stf.insert(-1, [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    writer_done = true;
  }, {write(x, 0)});
  std::vector<Stf::Fut> rs;
  for (int i = 0; i < 3; ++i) {
    rs.push_back(stf.insert(-1, [&] {
      EXPECT_TRUE(writer_done.load()); // each read waited on the writer
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      readers_done.fetch_add(1);
    }, {read(x)}));
  }
  stf.sync({write(x, 0)});
  EXPECT_TRUE(writer_done.load());
  EXPECT_EQ(readers_done.load(), 3);
  // The piece is free: the layer holds no future of the finished accesses,
  // so later tasks on x wait on nothing. (Quiescence first: a worker drops
  // its reference to a node only after completing it.)
  s.wait_for_quiescence();
  EXPECT_EQ(w.state().use_count(), 1);
  for (const Stf::Fut& r : rs) EXPECT_EQ(r.state().use_count(), 1);
  std::atomic<bool> ran{false};
  stf.insert(-1, [&] { ran = true; }, {write(x)}).get(&s);
  EXPECT_TRUE(ran.load());
  s.wait_for_quiescence();
}

TEST(Stf, ThrowingTaskPoisonsInferredSuccessorsAndSurfacesOnce) {
  Scheduler s(cfg(2));
  Stf stf(s);
  const int x = stf.data(2);
  const int y = stf.data(1);
  std::atomic<int> ran_a{0};
  std::atomic<int> ran_b{0};
  std::atomic<int> ran_after{0};
  stf.insert(-1, [&] { ran_a.fetch_add(1); }, {write(x, 0)});
  stf.insert(-1, [&]() -> void {
    ran_b.fetch_add(1);
    throw support::TaskError("xy[0]", "injected");
  }, {read(x, 0), write(y)});
  // Successors through a read-after-write (y) and a write-after-read (x).
  stf.insert(-1, [&] { ran_after.fetch_add(1); }, {read(y), write(x, 1)});
  stf.insert(-1, [&] { ran_after.fetch_add(1); }, {write(x, 0)});
  try {
    stf.sync({read(x)});
    FAIL() << "expected TaskError";
  } catch (const support::TaskError& e) {
    EXPECT_EQ(e.task(), "xy[0]");
  }
  EXPECT_THROW(s.wait_for_quiescence(), support::TaskError);
  s.wait_for_quiescence(); // consumed once: clean and reusable
  EXPECT_EQ(ran_a.load(), 1);
  EXPECT_EQ(ran_b.load(), 1);
  EXPECT_EQ(ran_after.load(), 0);
}

TEST(Stf, InsertWithFourDependenciesIsOneAllocation) {
  Scheduler s(cfg(2));
  Stf stf(s);
  std::atomic<bool> release{false};
  int obj[4];
  for (int& o : obj) {
    o = stf.data(1);
    stf.insert(-1, [&] {
      while (!release.load()) std::this_thread::yield();
    }, {write(o)});
  }
  std::atomic<bool> ran{false};
  Stf::Fut f;
  std::size_t allocations = 0;
  {
    const AllocationCount count;
    f = stf.insert(-1, [&] { ran = true; },
                   {write(obj[0]), write(obj[1]), write(obj[2]),
                    write(obj[3])});
    allocations = count.value();
  }
  EXPECT_EQ(allocations, 1u); // the dataflow node; its four links are inline
  EXPECT_FALSE(f.is_ready());
  release = true;
  f.get(&s);
  EXPECT_TRUE(ran.load());
  s.wait_for_quiescence();
}

} // namespace
} // namespace sts::flux
