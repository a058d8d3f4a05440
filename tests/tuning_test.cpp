#include <gtest/gtest.h>

#include "sparse/generators.hpp"
#include "tuning/block_select.hpp"
#include "tuning/sweep.hpp"

namespace sts::tune {
namespace {

TEST(Buckets, SixBucketsCoverEightTo511) {
  const auto buckets = heuristic_buckets();
  ASSERT_EQ(buckets.size(), 6u);
  EXPECT_EQ(buckets.front().lo, 8);
  EXPECT_EQ(buckets.back().hi, 511);
  for (std::size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_EQ(buckets[i].lo, buckets[i - 1].hi + 1);
  }
  EXPECT_EQ(buckets[0].label(), "8-15");
}

class BucketSizeProperty
    : public ::testing::TestWithParam<std::pair<index_t, int>> {};

TEST_P(BucketSizeProperty, BlockSizeLandsInsideBucket) {
  const auto [rows, bucket_idx] = GetParam();
  const Bucket bucket = heuristic_buckets()[static_cast<std::size_t>(bucket_idx)];
  const index_t size = block_size_for_bucket(rows, bucket);
  if (size == 0) {
    EXPECT_LT(rows, bucket.lo); // only fails for too-small matrices
    return;
  }
  const index_t count = (rows + size - 1) / size;
  EXPECT_GE(count, bucket.lo);
  EXPECT_LE(count, bucket.hi);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BucketSizeProperty,
    ::testing::Values(std::pair<index_t, int>{100, 0},
                      std::pair<index_t, int>{100, 3},
                      std::pair<index_t, int>{5000, 1},
                      std::pair<index_t, int>{5000, 5},
                      std::pair<index_t, int>{123457, 2},
                      std::pair<index_t, int>{123457, 5},
                      std::pair<index_t, int>{1 << 20, 0},
                      std::pair<index_t, int>{1 << 20, 4},
                      std::pair<index_t, int>{7, 0},
                      std::pair<index_t, int>{511, 5}));

TEST(BlockSizeForCount, ApproximatesTarget) {
  EXPECT_EQ(block_size_for_count(1000, 10), 100);
  EXPECT_EQ(block_size_for_count(1001, 10), 101);
  EXPECT_GE(block_size_for_count(5, 10), 1);
}

TEST(SweepSizes, PowersOfTwoInPaperRange) {
  const auto sizes = sweep_block_sizes(1 << 20);
  ASSERT_FALSE(sizes.empty());
  EXPECT_EQ(sizes.front(), 1024);
  for (index_t s : sizes) {
    EXPECT_EQ(s & (s - 1), 0); // power of two
    EXPECT_GE((static_cast<index_t>(1) << 20) / s, 1);
  }
}

TEST(Recommendations, FollowPaperRuleOfThumb) {
  // DeepSparse/HPX: 32-63 on multicore, 64-127 on manycore.
  EXPECT_EQ(recommended_bucket(solver::Version::kDs, 28).lo, 32);
  EXPECT_EQ(recommended_bucket(solver::Version::kFlux, 28).lo, 32);
  EXPECT_EQ(recommended_bucket(solver::Version::kDs, 128).lo, 64);
  EXPECT_EQ(recommended_bucket(solver::Version::kFlux, 128).lo, 64);
  // Regent: coarse 16-31 everywhere.
  EXPECT_EQ(recommended_bucket(solver::Version::kRgt, 28).lo, 16);
  EXPECT_EQ(recommended_bucket(solver::Version::kRgt, 128).lo, 16);
}

TEST(Recommendations, SmallMachinesGetCoarseTaskBuckets) {
  // Below 8 cores the task versions share one coarse bucket, measured
  // natively at 2-4 workers; the BSP versions keep the paper's bucket.
  for (unsigned cores : {2u, 3u, 4u}) {
    for (solver::Version v : {solver::Version::kDs, solver::Version::kFlux,
                              solver::Version::kRgt}) {
      const Bucket b = recommended_bucket(v, cores);
      EXPECT_EQ(b.lo, 8) << solver::to_string(v) << " at " << cores;
      EXPECT_EQ(b.hi, 15) << solver::to_string(v) << " at " << cores;
    }
    for (solver::Version v :
         {solver::Version::kLibCsr, solver::Version::kLibCsb}) {
      const Bucket b = recommended_bucket(v, cores);
      EXPECT_EQ(b.lo, 32) << solver::to_string(v) << " at " << cores;
      EXPECT_EQ(b.hi, 63) << solver::to_string(v) << " at " << cores;
    }
  }
}

TEST(Recommendations, SizeIsPositiveEvenForTinyMatrices) {
  EXPECT_GT(recommended_block_size(solver::Version::kDs, 28, 10), 0);
  EXPECT_GT(recommended_block_size(solver::Version::kRgt, 128, 1000000), 0);
}

TEST(SimulatedSweep, ReturnsOnePointPerFeasibleBucket) {
  sparse::Coo coo = sparse::gen_fem3d(10, 10, 10, 1, 44);
  sparse::Csr csr = sparse::Csr::from_coo(coo);
  const SweepResult r = sweep_block_sizes_simulated(
      csr, SweepSolver::kLanczos, solver::Version::kDs,
      sim::MachineModel::testbox(4));
  ASSERT_FALSE(r.points.empty());
  for (const SweepPoint& p : r.points) {
    EXPECT_GT(p.block_size, 0);
    EXPECT_GE(p.block_count, 8);
    EXPECT_LE(p.block_count, 511);
    EXPECT_GT(p.simulated_seconds, 0.0);
    EXPECT_GT(p.tasks, 0u);
  }
  EXPECT_LT(r.best, r.points.size());
  EXPECT_EQ(r.best_block_size(), r.points[r.best].block_size);
  for (const SweepPoint& p : r.points) {
    EXPECT_LE(r.points[r.best].simulated_seconds, p.simulated_seconds);
  }
}

TEST(SimulatedSweep, WorksForEveryVersion) {
  sparse::Coo coo = sparse::gen_banded_random(600, 8, 0.5, 45);
  sparse::Csr csr = sparse::Csr::from_coo(coo);
  for (solver::Version v : solver::kAllVersions) {
    const SweepResult r = sweep_block_sizes_simulated(
        csr, SweepSolver::kLobpcg, v, sim::MachineModel::testbox(2),
        /*full_sweep=*/false, /*nev=*/4);
    EXPECT_GT(r.best_block_size(), 0) << solver::to_string(v);
  }
}

TEST(SimulatedSweep, FullSweepUsesPowerOfTwoGrid) {
  sparse::Coo coo = sparse::gen_fem3d(14, 14, 14, 1, 46);
  sparse::Csr csr = sparse::Csr::from_coo(coo);
  const SweepResult r = sweep_block_sizes_simulated(
      csr, SweepSolver::kLanczos, solver::Version::kFlux,
      sim::MachineModel::testbox(2), /*full_sweep=*/true);
  ASSERT_FALSE(r.points.empty());
  for (const SweepPoint& p : r.points) {
    EXPECT_EQ(p.block_size & (p.block_size - 1), 0);
  }
}

} // namespace
} // namespace sts::tune
