#include <gtest/gtest.h>

#include <cmath>

#include "la/eig.hpp"
#include "solvers/lanczos.hpp"
#include "solvers/lobpcg.hpp"
#include "sparse/generators.hpp"
#include "tuning/block_select.hpp"

namespace sts::solver {
namespace {

struct Problem {
  sparse::Coo coo;
  sparse::Csr csr;
  sparse::Csb csb;
  la::EigenResult reference;

  Problem(sparse::Coo c, index_t block)
      : coo(std::move(c)),
        csr(sparse::Csr::from_coo(coo)),
        csb(sparse::Csb::from_coo(coo, block)),
        reference(la::jacobi_eigen(coo.to_dense().view())) {}
};

Problem fem_problem(index_t block = 32) {
  return Problem(sparse::gen_fem3d(6, 6, 6, 1, 101), block);
}

SolverOptions base_options(index_t block = 32) {
  SolverOptions o;
  o.block_size = block;
  o.threads = 2;
  return o;
}

class LanczosVersions : public ::testing::TestWithParam<Version> {};

TEST_P(LanczosVersions, LargestRitzValueMatchesDense) {
  Problem p = fem_problem();
  auto r = lanczos(p.csr, p.csb, 30, GetParam(), base_options());
  ASSERT_FALSE(r.ritz_values.empty());
  EXPECT_NEAR(r.ritz_values.back(), p.reference.values.back(), 1e-5);
  EXPECT_EQ(r.timing.iterations, 30);
  EXPECT_GT(r.timing.total_seconds, 0.0);
}

TEST_P(LanczosVersions, CoefficientsMatchLibcsrExactly) {
  Problem p = fem_problem();
  const auto ref = lanczos(p.csr, p.csb, 12, Version::kLibCsr, base_options());
  const auto got = lanczos(p.csr, p.csb, 12, GetParam(), base_options());
  ASSERT_EQ(ref.alphas.size(), got.alphas.size());
  for (std::size_t i = 0; i < ref.alphas.size(); ++i) {
    // Different summation orders: allow rounding-level divergence only.
    EXPECT_NEAR(got.alphas[i], ref.alphas[i], 1e-8 * std::abs(ref.alphas[i]) + 1e-10);
    EXPECT_NEAR(got.betas[i], ref.betas[i], 1e-8 * std::abs(ref.betas[i]) + 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(AllVersions, LanczosVersions,
                         ::testing::ValuesIn(kAllVersions),
                         [](const auto& info) {
                           return std::string(to_string(info.param)) == "hpx-flux"
                                      ? "hpx_flux"
                                      : std::string(to_string(info.param)) == "regent-rgt"
                                            ? "regent_rgt"
                                            : to_string(info.param);
                         });

class LobpcgVersions : public ::testing::TestWithParam<Version> {};

TEST_P(LobpcgVersions, LowestEigenvaluesMatchDense) {
  Problem p = fem_problem();
  LobpcgOptions o;
  static_cast<SolverOptions&>(o) = base_options();
  o.nev = 4;
  o.tolerance = 1e-7;
  auto r = lobpcg(p.csr, p.csb, 35, GetParam(), o);
  ASSERT_EQ(r.eigenvalues.size(), 4u);
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(r.eigenvalues[static_cast<std::size_t>(j)],
                p.reference.values[static_cast<std::size_t>(j)], 1e-5)
        << "eigenpair " << j;
  }
  EXPECT_GT(r.converged, 0);
}

INSTANTIATE_TEST_SUITE_P(AllVersions, LobpcgVersions,
                         ::testing::ValuesIn(kAllVersions),
                         [](const auto& info) {
                           return std::string(to_string(info.param)) == "hpx-flux"
                                      ? "hpx_flux"
                                      : std::string(to_string(info.param)) == "regent-rgt"
                                            ? "regent_rgt"
                                            : to_string(info.param);
                         });

TEST(LanczosOptions, SkipEmptyOffStillCorrect) {
  Problem p = fem_problem(16); // small blocks: many empty ones
  SolverOptions o = base_options(16);
  o.skip_empty_blocks = false;
  for (Version v : {Version::kDs, Version::kFlux, Version::kRgt}) {
    auto r = lanczos(p.csr, p.csb, 30, v, o);
    EXPECT_NEAR(r.ritz_values.back(), p.reference.values.back(), 1e-4)
        << to_string(v);
  }
}

TEST(LanczosOptions, ReductionBasedSpmmCorrectForDsAndRgt) {
  Problem p = fem_problem();
  SolverOptions o = base_options();
  o.dependency_based_spmm = false;
  for (Version v : {Version::kDs, Version::kRgt}) {
    auto r = lanczos(p.csr, p.csb, 30, v, o);
    EXPECT_NEAR(r.ritz_values.back(), p.reference.values.back(), 1e-4)
        << to_string(v);
  }
}

TEST(LobpcgOptions, ReductionBasedSpmmCorrect) {
  Problem p = fem_problem();
  LobpcgOptions o;
  static_cast<SolverOptions&>(o) = base_options();
  o.nev = 3;
  o.dependency_based_spmm = false;
  for (Version v : {Version::kDs, Version::kRgt}) {
    auto r = lobpcg(p.csr, p.csb, 30, v, o);
    for (int j = 0; j < 3; ++j) {
      EXPECT_NEAR(r.eigenvalues[static_cast<std::size_t>(j)],
                  p.reference.values[static_cast<std::size_t>(j)], 1e-4)
          << to_string(v);
    }
  }
}

TEST(SolverOptions, NumaDomainsAndNoFirstTouch) {
  Problem p = fem_problem();
  SolverOptions o = base_options();
  o.numa_domains = 2;
  o.first_touch = false;
  auto r = lanczos(p.csr, p.csb, 30, Version::kFlux, o);
  EXPECT_NEAR(r.ritz_values.back(), p.reference.values.back(), 1e-4);
}

TEST(Solvers, TraceRecordingProducesEvents) {
  Problem p = fem_problem();
  perf::TraceRecorder trace(8);
  SolverOptions o = base_options();
  o.trace = &trace;
  (void)lanczos(p.csr, p.csb, 3, Version::kFlux, o);
  EXPECT_GT(trace.events().size(), 10u);
}

// rgt's dependence analysis and flux's sequential task flow fix every
// task's inputs and each block's summation order, so whichever thread runs
// a task -- a pool worker, or the launcher helping in wait_all() or
// future::get() -- the results are bit-identical at any worker count. No
// parallel first-touch: the Lanczos case then enters no OpenMP region and
// also runs under ThreadSanitizer (tools/ci.sh). LOBPCG's set-up SpMM is a
// BSP kernel, so its case cannot.
TEST(Solvers, LanczosTaskResultsDoNotDependOnWorkerCount) {
  Problem p = fem_problem(16);
  SolverOptions o = base_options(16);
  o.first_touch = false;
  for (Version v : {Version::kRgt, Version::kFlux}) {
    std::vector<double> ritz;
    for (unsigned t : {1u, 2u, 3u}) {
      o.threads = t;
      const auto r = lanczos(p.csr, p.csb, 30, v, o);
      if (t == 1) {
        ritz = r.ritz_values;
        ASSERT_FALSE(ritz.empty());
        continue;
      }
      EXPECT_EQ(r.ritz_values, ritz) << to_string(v) << ", " << t;
    }
  }
}

TEST(Solvers, LobpcgTaskResultsDoNotDependOnWorkerCount) {
  Problem p = fem_problem(16);
  LobpcgOptions o;
  static_cast<SolverOptions&>(o) = base_options(16);
  o.first_touch = false;
  o.nev = 4;
  o.tolerance = 1e-300; // fixed iteration count
  for (Version v : {Version::kRgt, Version::kFlux}) {
    std::vector<double> eig;
    for (unsigned t : {1u, 2u, 3u}) {
      o.threads = t;
      const auto r = lobpcg(p.csr, p.csb, 15, v, o);
      if (t == 1) {
        eig = r.eigenvalues;
        ASSERT_EQ(eig.size(), 4u);
        continue;
      }
      EXPECT_EQ(r.eigenvalues, eig) << to_string(v) << ", " << t;
    }
  }
}

TEST(Solvers, RgtTraceWorkerIdsStayInRange) {
  // Pool workers record 0..2; the launcher records as worker 3, which the
  // 3-lane recorder routes to its overflow lane.
  Problem p = fem_problem(16);
  perf::TraceRecorder trace(3);
  SolverOptions o = base_options(16);
  o.threads = 3;
  o.trace = &trace;
  (void)lanczos(p.csr, p.csb, 10, Version::kRgt, o);
  const auto events = trace.events();
  ASSERT_GT(events.size(), 10u);
  for (const perf::TaskEvent& ev : events) {
    EXPECT_GE(ev.worker, 0);
    EXPECT_LE(ev.worker, 3);
  }
}

TEST(Solvers, DifferentMatrixClassesConverge) {
  struct Case {
    sparse::Coo coo;
    const char* name;
  };
  std::vector<Case> cases;
  cases.push_back({sparse::gen_banded_random(400, 12, 0.4, 7), "banded"});
  cases.push_back({sparse::gen_block_random(30, 10, 0.15, 0.6, 8), "block"});
  cases.push_back({sparse::gen_rmat(8, 6, 0.57, 0.19, 0.19, 9), "rmat"});
  for (auto& c : cases) {
    Problem p(std::move(c.coo), 64);
    SolverOptions o = base_options(64);
    auto r = lanczos(p.csr, p.csb, 40, Version::kDs, o);
    EXPECT_NEAR(r.ritz_values.back(), p.reference.values.back(),
                1e-4 * std::abs(p.reference.values.back()) + 1e-6)
        << c.name;
  }
}

TEST(Solvers, LobpcgResidualsDecrease) {
  Problem p = fem_problem();
  LobpcgOptions o;
  static_cast<SolverOptions&>(o) = base_options();
  o.nev = 4;
  o.tolerance = 1e-12; // prevent early exit
  auto r5 = lobpcg(p.csr, p.csb, 5, Version::kLibCsb, o);
  auto r25 = lobpcg(p.csr, p.csb, 25, Version::kLibCsb, o);
  EXPECT_LT(r25.residual_norms[0], r5.residual_norms[0]);
}

TEST(Solvers, DsGraphBuildTimeRecorded) {
  Problem p = fem_problem();
  auto r = lanczos(p.csr, p.csb, 5, Version::kDs, base_options());
  EXPECT_GT(r.timing.graph_build_seconds, 0.0);
}

TEST(Tuning, RecommendedBlockSizeWorksEndToEnd) {
  Problem p = fem_problem();
  (void)p;
  const index_t rows = 216;
  const index_t size = tune::recommended_block_size(Version::kDs, 28, rows);
  EXPECT_GT(size, 0);
  // A fresh CSB at the recommended size still solves correctly.
  sparse::Coo coo = sparse::gen_fem3d(6, 6, 6, 1, 101);
  sparse::Csb csb = sparse::Csb::from_coo(coo, size);
  sparse::Csr csr = sparse::Csr::from_coo(coo);
  SolverOptions o = base_options(size);
  auto r = lanczos(csr, csb, 20, Version::kDs, o);
  EXPECT_FALSE(r.ritz_values.empty());
}

} // namespace
} // namespace sts::solver
