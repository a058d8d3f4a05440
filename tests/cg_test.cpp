#include <gtest/gtest.h>

#include <cmath>
#include <cctype>
#include <cstdio>
#include <string>
#include <vector>

#include "flux/scheduler.hpp"
#include "la/sptrsv.hpp"
#include "solvers/cg.hpp"
#include "solvers/checkpoint.hpp"
#include "sparse/generators.hpp"
#include "sparse/ic0.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace sts::solver {
namespace {

using la::index_t;

struct Problem {
  sparse::Coo coo;
  sparse::Csr csr;
  sparse::Csb csb;

  Problem(sparse::Coo c, index_t block)
      : coo(std::move(c)),
        csr(sparse::Csr::from_coo(coo)),
        csb(sparse::Csb::from_coo(coo, block)) {}
};

Problem spd_problem(index_t block = 32) {
  return Problem(sparse::gen_laplacian3d(6, 6, 6, 1, 101), block);
}

SolverOptions base_options(index_t block = 32) {
  SolverOptions o;
  o.block_size = block;
  o.threads = 2;
  return o;
}

/// Dense y = M x for a CSR matrix (reference kernel for the solve checks).
std::vector<double> csr_apply(const sparse::Csr& a,
                              const std::vector<double>& x) {
  std::vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
  const auto rp = a.rowptr();
  const auto ci = a.colidx();
  const auto va = a.values();
  for (index_t i = 0; i < a.rows(); ++i) {
    double acc = 0.0;
    for (std::int64_t t = rp[static_cast<std::size_t>(i)];
         t < rp[static_cast<std::size_t>(i) + 1]; ++t) {
      acc += va[static_cast<std::size_t>(t)] *
             x[static_cast<std::size_t>(ci[static_cast<std::size_t>(t)])];
    }
    y[static_cast<std::size_t>(i)] = acc;
  }
  return y;
}

/// y = L^T x via the same CSR rows (column sweep).
std::vector<double> csr_apply_t(const sparse::Csr& l,
                                const std::vector<double>& x) {
  std::vector<double> y(static_cast<std::size_t>(l.rows()), 0.0);
  const auto rp = l.rowptr();
  const auto ci = l.colidx();
  const auto va = l.values();
  for (index_t i = 0; i < l.rows(); ++i) {
    for (std::int64_t t = rp[static_cast<std::size_t>(i)];
         t < rp[static_cast<std::size_t>(i) + 1]; ++t) {
      y[static_cast<std::size_t>(ci[static_cast<std::size_t>(t)])] +=
          va[static_cast<std::size_t>(t)] * x[static_cast<std::size_t>(i)];
    }
  }
  return y;
}

std::vector<double> random_vec(index_t n, std::uint64_t seed) {
  std::vector<double> v(static_cast<std::size_t>(n));
  support::Xoshiro256 rng(seed);
  for (double& e : v) e = rng.uniform(-1.0, 1.0);
  return v;
}

double rel_err(const std::vector<double>& got,
               const std::vector<double>& want) {
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    num += (got[i] - want[i]) * (got[i] - want[i]);
    den += want[i] * want[i];
  }
  return std::sqrt(num / std::max(den, 1e-300));
}

// ---- IC(0) ---------------------------------------------------------------

TEST(Ic0, FactorMatchesMatrixOnRetainedPattern) {
  const Problem p = spd_problem();
  const sparse::Ic0Result fac = sparse::ic0_factor(p.csr);
  EXPECT_EQ(fac.shift, 0.0); // laplacian3d is strictly dominant SPD
  // L L^T must reproduce A exactly on tril(A)'s pattern (the defining
  // property of IC(0): no fill, exact match on retained entries).
  const la::DenseMatrix a = p.coo.to_dense();
  const la::DenseMatrix l = [&] {
    la::DenseMatrix d(p.csr.rows(), p.csr.rows());
    const auto rp = fac.lower.rowptr();
    const auto ci = fac.lower.colidx();
    const auto va = fac.lower.values();
    for (index_t i = 0; i < fac.lower.rows(); ++i) {
      for (std::int64_t t = rp[static_cast<std::size_t>(i)];
           t < rp[static_cast<std::size_t>(i) + 1]; ++t) {
        d.at(i, ci[static_cast<std::size_t>(t)]) =
            va[static_cast<std::size_t>(t)];
      }
    }
    return d;
  }();
  const auto rp = fac.lower.rowptr();
  const auto ci = fac.lower.colidx();
  for (index_t i = 0; i < p.csr.rows(); ++i) {
    for (std::int64_t t = rp[static_cast<std::size_t>(i)];
         t < rp[static_cast<std::size_t>(i) + 1]; ++t) {
      const index_t j = ci[static_cast<std::size_t>(t)];
      double llt = 0.0;
      for (index_t k = 0; k <= j; ++k) llt += l.at(i, k) * l.at(j, k);
      EXPECT_NEAR(llt, a.at(i, j), 1e-9 * (1.0 + std::abs(a.at(i, j))))
          << "at (" << i << "," << j << ")";
    }
  }
}

TEST(Ic0, MissingDiagonalThrows) {
  sparse::Coo coo(3, 3);
  coo.add(0, 0, 2.0);
  coo.add(1, 1, 2.0);
  coo.add(2, 1, 1.0);
  coo.add(1, 2, 1.0); // row 2 has no diagonal
  coo.finalize();
  const sparse::Csr a = sparse::Csr::from_coo(coo);
  EXPECT_THROW((void)sparse::ic0_factor(a), support::Error);
}

TEST(Ic0, IndefiniteMatrixTriggersShift) {
  // [[1, 2], [2, 1]] is symmetric but indefinite: the unshifted pivot at
  // row 1 is 1 - 4 < 0, so the Manteuffel shift loop must kick in.
  sparse::Coo coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(1, 1, 1.0);
  coo.add(0, 1, 2.0);
  coo.add(1, 0, 2.0);
  coo.finalize();
  sparse::Ic0Options opts;
  opts.max_shift_attempts = 16; // (1+shift)^2 > 4 needs shift > 1
  const sparse::Ic0Result fac =
      sparse::ic0_factor(sparse::Csr::from_coo(coo), opts);
  EXPECT_GT(fac.shift, 0.0);
  EXPECT_GT(fac.shift_attempts, 0);
}

TEST(Ic0, DiagonalExtraction) {
  const Problem p = spd_problem();
  const std::vector<double> d = sparse::diagonal(p.csr);
  const la::DenseMatrix a = p.coo.to_dense();
  for (index_t i = 0; i < p.csr.rows(); ++i) {
    EXPECT_EQ(d[static_cast<std::size_t>(i)], a.at(i, i));
  }
}

// ---- SpTRSV --------------------------------------------------------------

class SptrsvBlockSizes : public ::testing::TestWithParam<index_t> {};

TEST_P(SptrsvBlockSizes, ForwardAndBackwardMatchReference) {
  const index_t block = GetParam();
  const Problem p = spd_problem(block);
  const sparse::Ic0Result fac = sparse::ic0_factor(p.csr);
  const sparse::Csb lcsb = sparse::Csb::from_csr(fac.lower, block);
  const la::SptrsvPlan plan = la::SptrsvPlan::build(lcsb);
  EXPECT_EQ(plan.block_rows(), lcsb.block_rows());
  EXPECT_GE(plan.level_span(), 1);
  EXPECT_GE(plan.max_level_width(), 1);

  const std::vector<double> b = random_vec(p.csr.rows(), 7);
  std::vector<double> x(b.size(), 0.0);
  la::sptrsv_forward(lcsb, plan, b, x);
  EXPECT_LT(rel_err(csr_apply(fac.lower, x), b), 1e-12);

  std::vector<double> y(b.size(), 0.0);
  la::sptrsv_backward(lcsb, plan, b, y);
  EXPECT_LT(rel_err(csr_apply_t(fac.lower, y), b), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, SptrsvBlockSizes,
                         ::testing::Values(4, 16, 64, 512));

TEST(Sptrsv, DagExecutionMatchesSequential) {
  const index_t block = 16;
  // Scattered block structure so the DAG has real width, not a chain.
  Problem p(sparse::gen_block_random(12, 16, 0.25, 0.5, 11), block);
  // Make it SPD enough to factor: boost the diagonal.
  sparse::Coo boosted(p.csr.rows(), p.csr.rows());
  {
    const la::DenseMatrix d = p.coo.to_dense();
    for (index_t i = 0; i < p.csr.rows(); ++i) {
      for (index_t j = 0; j < p.csr.rows(); ++j) {
        if (i == j) {
          boosted.add(i, j, d.at(i, j) + 64.0);
        } else if (d.at(i, j) != 0.0) {
          boosted.add(i, j, d.at(i, j));
        }
      }
    }
    boosted.finalize();
  }
  const sparse::Csr a = sparse::Csr::from_coo(boosted);
  const sparse::Ic0Result fac = sparse::ic0_factor(a);
  const sparse::Csb lcsb = sparse::Csb::from_csr(fac.lower, block);
  const la::SptrsvPlan plan = la::SptrsvPlan::build(lcsb);

  const std::vector<double> b = random_vec(a.rows(), 13);
  std::vector<double> seq_f(b.size(), 0.0), seq_b(b.size(), 0.0);
  la::sptrsv_forward(lcsb, plan, b, seq_f);
  la::sptrsv_backward(lcsb, plan, b, seq_b);

  flux::Scheduler::Config cfg;
  cfg.threads = 4;
  flux::Scheduler sched(cfg);
  std::vector<double> dag_f(b.size(), 0.0), dag_b(b.size(), 0.0);
  la::sptrsv_forward(lcsb, plan, b, dag_f, sched, nullptr);
  la::sptrsv_backward(lcsb, plan, b, dag_b, sched, nullptr);
  sched.wait_for_quiescence();

  // Same per-block kernels in both paths: results are bit-identical.
  EXPECT_EQ(seq_f, dag_f);
  EXPECT_EQ(seq_b, dag_b);
}

// ---- Randomized properties -----------------------------------------------

// One pass per seed over the three invariants the analytic tests pin down
// individually: IC(0) reproduces A exactly on the retained pattern, the
// triangular solves invert L / L^T to machine precision for a random
// right-hand side, and preconditioned CG converges below tolerance. Every
// generated Laplacian is SPD by construction, so a failure here is a
// solver bug, not a matrix-conditioning accident.
TEST(CgProperties, RandomizedLaplaciansFactorSolveConverge) {
  const std::uint64_t seeds[] = {3, 17, 29, 4242};
  const index_t blocks[] = {8, 16, 32, 64};
  for (std::size_t trial = 0; trial < std::size(seeds); ++trial) {
    SCOPED_TRACE("seed " + std::to_string(seeds[trial]));
    const index_t block = blocks[trial];
    const Problem p(sparse::gen_laplacian3d(5, 5, 4, 1, seeds[trial]), block);
    const index_t n = p.csr.rows();

    // IC(0): unshifted success and the no-fill identity on tril(A).
    const sparse::Ic0Result fac = sparse::ic0_factor(p.csr);
    EXPECT_EQ(fac.shift, 0.0);
    const la::DenseMatrix a = p.coo.to_dense();
    la::DenseMatrix l(n, n);
    {
      const auto rp = fac.lower.rowptr();
      const auto ci = fac.lower.colidx();
      const auto va = fac.lower.values();
      for (index_t i = 0; i < n; ++i) {
        for (std::int64_t t = rp[static_cast<std::size_t>(i)];
             t < rp[static_cast<std::size_t>(i) + 1]; ++t) {
          l.at(i, ci[static_cast<std::size_t>(t)]) =
              va[static_cast<std::size_t>(t)];
        }
      }
      for (index_t i = 0; i < n; ++i) {
        for (std::int64_t t = rp[static_cast<std::size_t>(i)];
             t < rp[static_cast<std::size_t>(i) + 1]; ++t) {
          const index_t j = ci[static_cast<std::size_t>(t)];
          double llt = 0.0;
          for (index_t k = 0; k <= j; ++k) llt += l.at(i, k) * l.at(j, k);
          EXPECT_NEAR(llt, a.at(i, j), 1e-9 * (1.0 + std::abs(a.at(i, j))))
              << "at (" << i << "," << j << ")";
        }
      }
    }

    // SpTRSV: forward and backward solves against a random b.
    const sparse::Csb lcsb = sparse::Csb::from_csr(fac.lower, block);
    const la::SptrsvPlan plan = la::SptrsvPlan::build(lcsb);
    const std::vector<double> b =
        random_vec(n, seeds[trial] * 977 + 1);
    std::vector<double> x(b.size(), 0.0);
    la::sptrsv_forward(lcsb, plan, b, x);
    EXPECT_LT(rel_err(csr_apply(fac.lower, x), b), 1e-12);
    std::vector<double> y(b.size(), 0.0);
    la::sptrsv_backward(lcsb, plan, b, y);
    EXPECT_LT(rel_err(csr_apply_t(fac.lower, y), b), 1e-12);

    // CG: every preconditioner drives the relative residual below tol
    // (version coverage lives in the CgVersions parameterized suite).
    for (const Precond pre :
         {Precond::kNone, Precond::kJacobi, Precond::kIc0}) {
      CgOptions cg_options;
      cg_options.precond = pre;
      cg_options.tol = 1e-9;
      cg_options.max_iterations = 400;
      SolverOptions options = base_options(block);
      options.seed = seeds[trial] + 5;
      const CgResult r =
          cg(p.csr, p.csb, Version::kLibCsr, cg_options, options);
      EXPECT_TRUE(r.converged) << "precond " << to_string(pre);
      EXPECT_LE(r.relative_residual, cg_options.tol);
      EXPECT_EQ(r.status, SolverStatus::kOk);
    }
  }
}

TEST(Sptrsv, RejectsNonTriangularMatrix) {
  const Problem p = spd_problem(16);
  EXPECT_THROW((void)la::SptrsvPlan::build(p.csb), support::Error);
}

TEST(Sptrsv, LevelScheduleCoversAllBlockRowsOnce) {
  const Problem p = spd_problem(16);
  const sparse::Ic0Result fac = sparse::ic0_factor(p.csr);
  const sparse::Csb lcsb = sparse::Csb::from_csr(fac.lower, 16);
  const la::SptrsvPlan plan = la::SptrsvPlan::build(lcsb);
  std::vector<int> seen(static_cast<std::size_t>(plan.block_rows()), 0);
  for (const auto& wave : plan.levels()) {
    for (const index_t bi : wave) ++seen[static_cast<std::size_t>(bi)];
  }
  for (const int c : seen) EXPECT_EQ(c, 1);
}

// ---- CG ------------------------------------------------------------------

struct CgCase {
  Version version;
  Precond precond;
};

std::string cg_case_name(const ::testing::TestParamInfo<CgCase>& info) {
  std::string name = std::string(to_string(info.param.version)) + "_" +
                     to_string(info.param.precond);
  for (char& c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
  }
  return name;
}

class CgVersions : public ::testing::TestWithParam<CgCase> {};

TEST_P(CgVersions, ConvergesOnLaplacian3d) {
  const Problem p = spd_problem();
  CgOptions cg_opts;
  cg_opts.precond = GetParam().precond;
  cg_opts.tol = 1e-9;
  cg_opts.max_iterations = 400;
  const SolverOptions opts = base_options();
  const CgResult r = cg(p.csr, p.csb, GetParam().version, cg_opts, opts);
  EXPECT_TRUE(r.converged) << "residual " << r.relative_residual;
  EXPECT_EQ(r.status, SolverStatus::kOk);
  EXPECT_LE(r.relative_residual, cg_opts.tol);
  EXPECT_EQ(r.iterations, static_cast<int>(r.residual_norms.size()));
  if (GetParam().precond == Precond::kIc0) {
    EXPECT_GE(r.level_span, 1);
  }
  // The returned x must actually solve A x = b for the b the solver drew.
  const std::vector<double> b = random_vec(p.csr.rows(), opts.seed);
  const std::vector<double> ax = csr_apply(p.csr, r.x);
  EXPECT_LT(rel_err(ax, b), cg_opts.tol * 100);
}

INSTANTIATE_TEST_SUITE_P(
    VersionsAndPreconds, CgVersions,
    ::testing::Values(CgCase{Version::kLibCsr, Precond::kNone},
                      CgCase{Version::kLibCsr, Precond::kJacobi},
                      CgCase{Version::kLibCsr, Precond::kIc0},
                      CgCase{Version::kLibCsb, Precond::kNone},
                      CgCase{Version::kLibCsb, Precond::kJacobi},
                      CgCase{Version::kLibCsb, Precond::kIc0},
                      CgCase{Version::kFlux, Precond::kNone},
                      CgCase{Version::kFlux, Precond::kJacobi},
                      CgCase{Version::kFlux, Precond::kIc0}),
    cg_case_name);

TEST(Cg, PreconditioningReducesIterationCount) {
  const Problem p = spd_problem();
  CgOptions plain;
  plain.tol = 1e-9;
  plain.max_iterations = 400;
  CgOptions ic0 = plain;
  ic0.precond = Precond::kIc0;
  const SolverOptions opts = base_options();
  const CgResult r_plain = cg(p.csr, p.csb, Version::kLibCsb, plain, opts);
  const CgResult r_ic0 = cg(p.csr, p.csb, Version::kLibCsb, ic0, opts);
  ASSERT_TRUE(r_plain.converged);
  ASSERT_TRUE(r_ic0.converged);
  EXPECT_LT(r_ic0.iterations, r_plain.iterations);
}

TEST(Cg, UnsupportedVersionsThrow) {
  const Problem p = spd_problem();
  const CgOptions cg_opts;
  EXPECT_THROW((void)cg(p.csr, p.csb, Version::kDs, cg_opts, base_options()),
               support::Error);
  EXPECT_THROW((void)cg(p.csr, p.csb, Version::kRgt, cg_opts, base_options()),
               support::Error);
}

TEST(Cg, ResidualHistoryIsMonotonicallyReportedAndFinal) {
  const Problem p = spd_problem();
  CgOptions cg_opts;
  cg_opts.tol = 1e-9;
  cg_opts.max_iterations = 400;
  const CgResult r = cg(p.csr, p.csb, Version::kLibCsr, cg_opts,
                        base_options());
  ASSERT_TRUE(r.converged);
  ASSERT_FALSE(r.residual_norms.empty());
  EXPECT_EQ(r.residual_norms.back(), r.relative_residual);
}

TEST(Cg, FluxResultsDoNotDependOnWorkerCount) {
  // The flux tasks' inferred dependencies fix each block's inputs and
  // summation order (and the IC(0) solve's DAG its own), so x and the
  // residual history are bit-identical at any worker count.
  const Problem p = spd_problem(16);
  for (const Precond pre :
       {Precond::kNone, Precond::kJacobi, Precond::kIc0}) {
    CgOptions cg_options;
    cg_options.precond = pre;
    cg_options.tol = 1e-9;
    cg_options.max_iterations = 400;
    SolverOptions options = base_options(16);
    options.first_touch = false;
    CgResult ref;
    for (unsigned t : {1u, 2u, 3u}) {
      options.threads = t;
      CgResult r = cg(p.csr, p.csb, Version::kFlux, cg_options, options);
      ASSERT_TRUE(r.converged) << to_string(pre) << ", " << t;
      if (t == 1) {
        ref = std::move(r);
        continue;
      }
      EXPECT_EQ(r.x, ref.x) << to_string(pre) << ", " << t;
      EXPECT_EQ(r.residual_norms, ref.residual_norms)
          << to_string(pre) << ", " << t;
    }
  }
}

TEST(Cg, CheckpointRoundTripResumesAndMatchesUninterrupted) {
  const Problem p = spd_problem();
  const std::string path = ::testing::TempDir() + "/cg_ckpt_test.stsckpt";
  CgOptions short_opts;
  short_opts.precond = Precond::kJacobi;
  short_opts.tol = 1e-30; // never converges: exercise the iteration cap
  short_opts.max_iterations = 6;
  SolverOptions opts = base_options();
  opts.ckpt_path = path;
  opts.ckpt_every = 3;
  const CgResult first = cg(p.csr, p.csb, Version::kLibCsr, short_opts, opts);
  EXPECT_EQ(first.iterations, 6);

  const ckpt::Checkpoint c = ckpt::load(path);
  ASSERT_EQ(c.kind, ckpt::Kind::kCg);
  EXPECT_EQ(c.cg.iterations, 6);
  EXPECT_EQ(c.cg.seed, opts.seed);

  // Resume for 6 more; compare with one uninterrupted 12-iteration run.
  CgOptions long_opts = short_opts;
  long_opts.max_iterations = 12;
  SolverOptions resume_opts = base_options();
  resume_opts.restore = &c;
  const CgResult resumed =
      cg(p.csr, p.csb, Version::kLibCsr, long_opts, resume_opts);
  EXPECT_EQ(resumed.iterations, 6); // 6 accepted after the restored 6

  const CgResult straight =
      cg(p.csr, p.csb, Version::kLibCsr, long_opts, base_options());
  ASSERT_EQ(straight.x.size(), resumed.x.size());
  EXPECT_LT(rel_err(resumed.x, straight.x), 1e-12);
  std::remove(path.c_str());
}

TEST(Cg, RestoreRejectsWrongKindAndSeed) {
  const Problem p = spd_problem();
  ckpt::Checkpoint wrong_kind;
  wrong_kind.kind = ckpt::Kind::kLanczos;
  SolverOptions opts = base_options();
  opts.restore = &wrong_kind;
  EXPECT_THROW((void)cg(p.csr, p.csb, Version::kLibCsr, {}, opts),
               support::Error);

  ckpt::Checkpoint wrong_seed;
  wrong_seed.kind = ckpt::Kind::kCg;
  wrong_seed.cg.seed = 999;
  wrong_seed.cg.m = p.csr.rows();
  const std::size_t n = static_cast<std::size_t>(p.csr.rows());
  wrong_seed.cg.x.assign(n, 0.0);
  wrong_seed.cg.r.assign(n, 0.0);
  wrong_seed.cg.p.assign(n, 0.0);
  opts.restore = &wrong_seed;
  EXPECT_THROW((void)cg(p.csr, p.csb, Version::kLibCsr, {}, opts),
               support::Error);
}

TEST(Cg, InvalidOptionsThrow) {
  const Problem p = spd_problem();
  CgOptions bad_tol;
  bad_tol.tol = 0.0;
  EXPECT_THROW((void)cg(p.csr, p.csb, Version::kLibCsr, bad_tol,
                        base_options()),
               support::Error);
  CgOptions bad_it;
  bad_it.max_iterations = 0;
  EXPECT_THROW((void)cg(p.csr, p.csb, Version::kLibCsr, bad_it,
                        base_options()),
               support::Error);
}

TEST(Cg, PrecondNamesRoundTrip) {
  EXPECT_STREQ(to_string(Precond::kNone), "none");
  EXPECT_STREQ(to_string(Precond::kJacobi), "jacobi");
  EXPECT_STREQ(to_string(Precond::kIc0), "ic0");
}

} // namespace
} // namespace sts::solver
