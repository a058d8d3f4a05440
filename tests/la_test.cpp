#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "la/blas.hpp"
#include "la/dense.hpp"
#include "la/eig.hpp"
#include "support/rng.hpp"

namespace sts::la {
namespace {

using support::Xoshiro256;

DenseMatrix random_matrix(index_t rows, index_t cols, std::uint64_t seed) {
  DenseMatrix m(rows, cols);
  Xoshiro256 rng(seed);
  m.fill_random(rng);
  return m;
}

DenseMatrix random_spd(index_t n, std::uint64_t seed) {
  DenseMatrix b = random_matrix(n, n, seed);
  DenseMatrix spd(n, n);
  // spd = B^T B + n * I is symmetric positive definite.
  gemm_tn(1.0, b.view(), b.view(), 0.0, spd.view());
  for (index_t i = 0; i < n; ++i) {
    spd.at(i, i) += static_cast<double>(n);
  }
  return spd;
}

/// Reference O(n^3) triple-loop multiply.
DenseMatrix naive_gemm(const DenseMatrix& a, const DenseMatrix& b) {
  DenseMatrix c(a.rows(), b.cols());
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (index_t k = 0; k < a.cols(); ++k) acc += a.at(i, k) * b.at(k, j);
      c.at(i, j) = acc;
    }
  }
  return c;
}

TEST(DenseMatrix, InitializerListAndAccess) {
  DenseMatrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_EQ(m.at(1, 0), 3.0);
  m.at(1, 0) = 9.0;
  EXPECT_EQ(m.at(1, 0), 9.0);
}

TEST(DenseMatrix, RowBlockViewsShareStorage) {
  DenseMatrix m(10, 3);
  auto blk = m.row_block(4, 2);
  blk.at(0, 1) = 5.0;
  EXPECT_EQ(m.at(4, 1), 5.0);
  EXPECT_EQ(blk.rows, 2);
  EXPECT_EQ(blk.ld, 3);
}

TEST(DenseMatrix, CloneIsDeep) {
  DenseMatrix m{{1.0}};
  DenseMatrix c = m.clone();
  c.at(0, 0) = 2.0;
  EXPECT_EQ(m.at(0, 0), 1.0);
}

struct GemmCase {
  index_t m, n, k;
  double alpha, beta;
};

DenseMatrix transpose(const DenseMatrix& a) {
  DenseMatrix at(a.cols(), a.rows());
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < a.cols(); ++j) at.at(j, i) = a.at(i, j);
  }
  return at;
}

/// Copy of `m` in columns [1, 1 + cols) of a wider matrix (ld = cols + 3)
/// whose other entries hold `pad`: the column slice the drivers pass.
struct Embedded {
  DenseMatrix wide;
  MatrixView view;
};

Embedded embed(const DenseMatrix& m, double pad) {
  DenseMatrix wide(std::max<index_t>(m.rows(), 1), m.cols() + 3);
  wide.fill(pad);
  for (index_t i = 0; i < m.rows(); ++i) {
    for (index_t j = 0; j < m.cols(); ++j) wide.at(i, j + 1) = m.at(i, j);
  }
  const MatrixView v{wide.data() + 1, m.rows(), m.cols(), wide.cols()};
  return {std::move(wide), v};
}

enum class Op { kGemm, kGemmTn };

/// Runs gemm (C = alpha A B + beta C, A m x k) or gemm_tn (C = alpha A^T B +
/// beta C, A m x k) and compares with the naive reference. beta == 0 starts
/// from a NaN-filled C, which must not be read. With `strided`, every operand
/// is a column slice of a wider matrix: NaN padding around A and B shows a
/// read out of the slice, and C's padding must stay untouched.
void expect_matches_reference(Op op, const GemmCase& g, bool strided,
                              std::uint64_t seed) {
  const auto [m, n, k, alpha, beta] = g;
  const bool tn = op == Op::kGemmTn;
  DenseMatrix a = random_matrix(m, k, seed);
  DenseMatrix b = random_matrix(tn ? m : k, n, seed + 1);
  DenseMatrix c = random_matrix(tn ? k : m, n, seed + 2);
  const DenseMatrix ab = tn ? naive_gemm(transpose(a), b) : naive_gemm(a, b);
  DenseMatrix expected(c.rows(), n);
  for (index_t i = 0; i < c.rows(); ++i) {
    for (index_t j = 0; j < n; ++j) {
      const double prior = beta == 0.0 ? 0.0 : beta * c.at(i, j);
      expected.at(i, j) = alpha * ab.at(i, j) + prior;
    }
  }
  if (beta == 0.0) c.fill(std::nan(""));

  constexpr double kPad = 7.0;
  Embedded ea = embed(a, std::nan(""));
  Embedded eb = embed(b, std::nan(""));
  Embedded ec = embed(c, kPad);
  const ConstMatrixView av = strided ? ConstMatrixView(ea.view) : a.view();
  const ConstMatrixView bv = strided ? ConstMatrixView(eb.view) : b.view();
  const MatrixView cv = strided ? ec.view : c.view();
  if (tn) {
    gemm_tn(alpha, av, bv, beta, cv);
  } else {
    gemm(alpha, av, bv, beta, cv);
  }
  for (index_t i = 0; i < c.rows(); ++i) {
    for (index_t j = 0; j < n; ++j) {
      ASSERT_NEAR(cv.at(i, j), expected.at(i, j), 1e-12)
          << i << "," << j << (strided ? " strided" : "");
    }
  }
  if (strided) {
    for (index_t i = 0; i < ec.wide.rows(); ++i) {
      for (index_t j = 0; j < ec.wide.cols(); ++j) {
        if (i >= c.rows() || j == 0 || j > n) {
          ASSERT_EQ(ec.wide.at(i, j), kPad) << i << "," << j;
        }
      }
    }
  }
}

class GemmTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmTest, MatchesNaiveReference) {
  expect_matches_reference(Op::kGemm, GetParam(), false, 1);
  expect_matches_reference(Op::kGemm, GetParam(), true, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmTest,
    ::testing::Values(GemmCase{1, 1, 1, 1.0, 0.0},
                      GemmCase{5, 3, 4, 1.0, 0.0},
                      GemmCase{16, 8, 16, -1.0, 1.0},
                      GemmCase{33, 7, 12, 2.5, 0.5},
                      GemmCase{64, 1, 64, 1.0, 1.0},
                      GemmCase{10, 48, 10, 0.5, 0.0},
                      // One column (the Lanczos XY shape): odd k, every
                      // beta branch of the vectorized path.
                      GemmCase{418, 1, 61, -1.0, 1.0},
                      GemmCase{418, 1, 61, -1.0, 0.0},
                      GemmCase{37, 1, 61, -1.0, 0.5},
                      GemmCase{5, 1, 1, 2.0, 0.5}));

// Each fixed width (2, 4, 8, 16) and fallback widths (3, 5, 24): row counts
// off the 2- or 4-row blocking (and zero rows), alpha != 1, every beta branch.
INSTANTIATE_TEST_SUITE_P(
    Widths, GemmTest,
    ::testing::Values(GemmCase{7, 2, 5, -1.5, 0.0},
                      GemmCase{0, 2, 3, 1.0, 0.5},
                      GemmCase{7, 4, 4, 2.0, 1.0},
                      GemmCase{13, 4, 9, -1.0, 0.0},
                      GemmCase{9, 8, 8, -0.5, 0.5},
                      GemmCase{306, 8, 8, 1.0, 0.0},
                      GemmCase{0, 8, 8, 1.0, 1.0},
                      GemmCase{11, 8, 24, 2.5, 1.0},
                      GemmCase{5, 16, 16, 0.75, 0.0},
                      GemmCase{3, 16, 7, -2.0, 0.5},
                      GemmCase{1, 16, 16, 1.0, 1.0},
                      GemmCase{7, 3, 5, -1.5, 0.5},
                      GemmCase{10, 5, 8, 2.0, 0.0},
                      GemmCase{0, 5, 5, 1.0, 1.0},
                      GemmCase{9, 24, 24, -0.5, 1.0}));

class GemmTnTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmTnTest, MatchesTransposedReference) {
  expect_matches_reference(Op::kGemmTn, GetParam(), false, 4);
  expect_matches_reference(Op::kGemmTn, GetParam(), true, 4);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmTnTest,
    ::testing::Values(GemmCase{4, 4, 4, 1.0, 0.0},
                      GemmCase{100, 8, 8, 1.0, 0.0},
                      GemmCase{77, 5, 9, -1.0, 1.0},
                      GemmCase{12, 16, 1, 1.0, 0.5},
                      // One column (the Lanczos XTY shape).
                      GemmCase{418, 1, 61, -1.0, 0.0},
                      GemmCase{418, 1, 61, -1.0, 1.0},
                      GemmCase{37, 1, 61, -1.0, 0.5},
                      GemmCase{9, 1, 3, 1.0, 0.0}));

// As for GemmTest; m is the number of input rows, folded four at a time.
// gemm_tn fixes the width only at 2, 4 and 8; 16 runs the runtime-width fold
// with 3, 5 and 24.
INSTANTIATE_TEST_SUITE_P(
    Widths, GemmTnTest,
    ::testing::Values(GemmCase{7, 2, 5, -1.5, 0.0},
                      GemmCase{0, 2, 3, 1.0, 0.5},
                      GemmCase{6, 4, 4, 2.0, 1.0},
                      GemmCase{13, 4, 9, -1.0, 0.0},
                      GemmCase{9, 8, 8, -0.5, 0.5},
                      GemmCase{306, 8, 8, 1.0, 0.0},
                      GemmCase{0, 8, 8, 1.0, 0.0},
                      GemmCase{3, 8, 8, 1.0, 1.0},
                      GemmCase{11, 8, 24, 2.5, 1.0},
                      GemmCase{5, 16, 16, 0.75, 0.0},
                      GemmCase{18, 16, 7, -2.0, 0.5},
                      GemmCase{7, 3, 5, -1.5, 0.5},
                      GemmCase{10, 5, 8, 2.0, 0.0},
                      GemmCase{0, 5, 5, 1.0, 1.0},
                      GemmCase{9, 24, 24, -0.5, 1.0}));

// No width skips a zero coefficient: an Inf in B met by a zero in A gives
// 0 * Inf = NaN in C, on the one-column, fixed-width and generic paths alike,
// so a non-finite block cannot hide behind a zero depending on the width.
TEST(Blas, InfAgainstZeroCoefficientGivesNaNForEveryWidth) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const index_t n : {1, 5, 8}) {
    // gemm: C(6 x n) = A(6 x 3) B(3 x n), with a(2, 1) = 0 and b(1, :) = Inf.
    DenseMatrix a = random_matrix(6, 3, 21);
    DenseMatrix b = random_matrix(3, n, 22);
    a.at(2, 1) = 0.0;
    for (index_t j = 0; j < n; ++j) b.at(1, j) = inf;
    DenseMatrix c(6, n);
    gemm(1.0, a.view(), b.view(), 0.0, c.view());
    for (index_t j = 0; j < n; ++j) {
      EXPECT_TRUE(std::isnan(c.at(2, j))) << "gemm n=" << n << " j=" << j;
    }

    // gemm_tn: C(3 x n) = A(6 x 3)^T Y(6 x n), with a(1, 2) = 0 and
    // y(1, :) = Inf.
    DenseMatrix y = random_matrix(6, n, 23);
    a.at(1, 2) = 0.0;
    for (index_t j = 0; j < n; ++j) y.at(1, j) = inf;
    DenseMatrix p(3, n);
    gemm_tn(1.0, a.view(), y.view(), 0.0, p.view());
    for (index_t j = 0; j < n; ++j) {
      EXPECT_TRUE(std::isnan(p.at(2, j))) << "gemm_tn n=" << n << " j=" << j;
    }
  }
}

// Strided one-column operands must take the generic loops: B (gemm) or C
// (gemm_tn) is a column of a wider matrix, so its elements are ld apart.
TEST(Blas, StridedOneColumnOperandsUseTheGenericPath) {
  const index_t m = 29;
  const index_t k = 61;
  const index_t ld = 4;
  DenseMatrix a = random_matrix(m, k, 11);
  DenseMatrix wide_b = random_matrix(k, ld, 12); // b = column 2
  DenseMatrix b(k, 1);
  for (index_t r = 0; r < k; ++r) b.at(r, 0) = wide_b.at(r, 2);

  // gemm: C(m x 1) = -A b + 0.5 C, b strided.
  DenseMatrix c = random_matrix(m, 1, 13);
  DenseMatrix expected = naive_gemm(a, b);
  for (index_t i = 0; i < m; ++i) {
    expected.at(i, 0) = -expected.at(i, 0) + 0.5 * c.at(i, 0);
  }
  const ConstMatrixView b_col{wide_b.data() + 2, k, 1, ld};
  gemm(-1.0, a.view(), b_col, 0.5, c.view());
  for (index_t i = 0; i < m; ++i) {
    ASSERT_NEAR(c.at(i, 0), expected.at(i, 0), 1e-12) << i;
  }

  // gemm_tn: C(k x 1) = -A^T y + C, C strided inside a k x ld matrix
  // whose other columns must stay untouched.
  DenseMatrix y = random_matrix(m, 1, 14);
  DenseMatrix wide_c = random_matrix(k, ld, 15);
  DenseMatrix before = wide_c.clone();
  const DenseMatrix aty = naive_gemm(transpose(a), y);
  gemm_tn(-1.0, a.view(), y.view(), 1.0,
          MatrixView{wide_c.data() + 1, k, 1, ld});
  for (index_t i = 0; i < k; ++i) {
    for (index_t j = 0; j < ld; ++j) {
      const double want =
          j == 1 ? before.at(i, j) - aty.at(i, 0) : before.at(i, j);
      ASSERT_NEAR(wide_c.at(i, j), want, 1e-12) << i << "," << j;
    }
  }
}

// beta == 0 means C is not read, on the one-column paths too: garbage
// (NaN) in C must not leak into the result.
TEST(Blas, OneColumnBetaZeroIgnoresPriorContents) {
  DenseMatrix a = random_matrix(17, 61, 16);
  DenseMatrix b = random_matrix(61, 1, 17);
  DenseMatrix c(17, 1);
  c.fill(std::nan(""));
  gemm(1.0, a.view(), b.view(), 0.0, c.view());
  const DenseMatrix ab = naive_gemm(a, b);
  for (index_t i = 0; i < 17; ++i) ASSERT_NEAR(c.at(i, 0), ab.at(i, 0), 1e-12);

  DenseMatrix y = random_matrix(17, 1, 18);
  DenseMatrix p(61, 1);
  p.fill(std::nan(""));
  gemm_tn(1.0, a.view(), y.view(), 0.0, p.view());
  for (index_t j = 0; j < 61; ++j) {
    double want = 0.0;
    for (index_t r = 0; r < 17; ++r) want += a.at(r, j) * y.at(r, 0);
    ASSERT_NEAR(p.at(j, 0), want, 1e-12) << j;
  }
}

TEST(DenseMatrix, LeadingColsViewsAColumnPrefix) {
  DenseMatrix m = random_matrix(6, 5, 19);
  const ConstMatrixView v = m.leading_cols(2, 3, 2);
  EXPECT_EQ(v.rows, 3);
  EXPECT_EQ(v.cols, 2);
  EXPECT_EQ(v.ld, 5);
  EXPECT_EQ(v.at(0, 0), m.at(2, 0));
  EXPECT_EQ(v.at(2, 1), m.at(4, 1));
}

TEST(Blas, AxpyDotNormAgree) {
  DenseMatrix x = random_matrix(20, 3, 7);
  DenseMatrix y = random_matrix(20, 3, 8);
  DenseMatrix y0 = y.clone();
  axpy(2.0, x.view(), y.view());
  for (index_t i = 0; i < 20; ++i) {
    for (index_t j = 0; j < 3; ++j) {
      ASSERT_NEAR(y.at(i, j), y0.at(i, j) + 2.0 * x.at(i, j), 1e-14);
    }
  }
  double expected_dot = 0.0;
  for (index_t i = 0; i < 20; ++i) {
    for (index_t j = 0; j < 3; ++j) expected_dot += x.at(i, j) * y.at(i, j);
  }
  EXPECT_NEAR(dot(x.view(), y.view()), expected_dot, 1e-12);
  EXPECT_NEAR(norm_fro(x.view()), std::sqrt(dot(x.view(), x.view())), 1e-14);
}

TEST(Blas, ScalAndCopy) {
  DenseMatrix x = random_matrix(9, 2, 10);
  DenseMatrix orig = x.clone();
  scal(-3.0, x.view());
  for (index_t i = 0; i < 9; ++i) {
    for (index_t j = 0; j < 2; ++j) {
      ASSERT_EQ(x.at(i, j), -3.0 * orig.at(i, j));
    }
  }
  DenseMatrix y(9, 2);
  copy(x.view(), y.view());
  for (index_t i = 0; i < 9; ++i) {
    for (index_t j = 0; j < 2; ++j) ASSERT_EQ(y.at(i, j), x.at(i, j));
  }
}

TEST(Blas, SpanKernels) {
  std::vector<double> x = {1, 2, 3};
  std::vector<double> y = {4, 5, 6};
  EXPECT_NEAR(dot(std::span<const double>(x), std::span<const double>(y)),
              32.0, 1e-14);
  axpy(2.0, std::span<const double>(x), std::span<double>(y));
  EXPECT_EQ(y[0], 6.0);
  scal(0.5, std::span<double>(y));
  EXPECT_EQ(y[0], 3.0);
  EXPECT_NEAR(nrm2(std::span<const double>(x)), std::sqrt(14.0), 1e-14);
}

TEST(Jacobi, DiagonalMatrixEigenvalues) {
  DenseMatrix a{{3.0, 0.0, 0.0}, {0.0, 1.0, 0.0}, {0.0, 0.0, 2.0}};
  EigenResult r = jacobi_eigen(a.view());
  ASSERT_EQ(r.values.size(), 3u);
  EXPECT_NEAR(r.values[0], 1.0, 1e-12);
  EXPECT_NEAR(r.values[1], 2.0, 1e-12);
  EXPECT_NEAR(r.values[2], 3.0, 1e-12);
}

TEST(Jacobi, KnownTwoByTwo) {
  // Eigenvalues of [[2,1],[1,2]] are 1 and 3.
  DenseMatrix a{{2.0, 1.0}, {1.0, 2.0}};
  EigenResult r = jacobi_eigen(a.view());
  EXPECT_NEAR(r.values[0], 1.0, 1e-12);
  EXPECT_NEAR(r.values[1], 3.0, 1e-12);
}

class JacobiPropertyTest : public ::testing::TestWithParam<index_t> {};

TEST_P(JacobiPropertyTest, ReconstructsMatrixAndOrthonormalVectors) {
  const index_t n = GetParam();
  DenseMatrix a = random_spd(n, 42 + static_cast<std::uint64_t>(n));
  EigenResult r = jacobi_eigen(a.view());
  // Vectors orthonormal: V^T V = I.
  DenseMatrix vtv(n, n);
  gemm_tn(1.0, r.vectors.view(), r.vectors.view(), 0.0, vtv.view());
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      ASSERT_NEAR(vtv.at(i, j), i == j ? 1.0 : 0.0, 1e-9);
    }
  }
  // A v_i = lambda_i v_i.
  for (index_t c = 0; c < n; ++c) {
    for (index_t i = 0; i < n; ++i) {
      double av = 0.0;
      for (index_t k = 0; k < n; ++k) av += a.at(i, k) * r.vectors.at(k, c);
      ASSERT_NEAR(av, r.values[static_cast<std::size_t>(c)] *
                          r.vectors.at(i, c),
                  1e-8 * static_cast<double>(n));
    }
  }
  // Values ascending.
  for (std::size_t i = 1; i < r.values.size(); ++i) {
    ASSERT_LE(r.values[i - 1], r.values[i] + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, JacobiPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 24, 48));

TEST(Tridiag, MatchesJacobiOnTridiagonalMatrix) {
  const index_t n = 12;
  std::vector<double> alpha(n);
  std::vector<double> beta(n - 1);
  Xoshiro256 rng(3);
  DenseMatrix full(n, n);
  for (index_t i = 0; i < n; ++i) {
    alpha[static_cast<std::size_t>(i)] = rng.uniform(-2, 2);
    full.at(i, i) = alpha[static_cast<std::size_t>(i)];
  }
  for (index_t i = 0; i + 1 < n; ++i) {
    beta[static_cast<std::size_t>(i)] = rng.uniform(0.1, 1.0);
    full.at(i, i + 1) = beta[static_cast<std::size_t>(i)];
    full.at(i + 1, i) = beta[static_cast<std::size_t>(i)];
  }
  const std::vector<double> ql = tridiag_eigenvalues(alpha, beta);
  const EigenResult ref = jacobi_eigen(full.view());
  ASSERT_EQ(ql.size(), ref.values.size());
  for (std::size_t i = 0; i < ql.size(); ++i) {
    EXPECT_NEAR(ql[i], ref.values[i], 1e-9);
  }
}

TEST(Tridiag, HandlesEmptyAndSingle) {
  EXPECT_TRUE(tridiag_eigenvalues({}, {}).empty());
  const auto single = tridiag_eigenvalues({5.0}, {});
  ASSERT_EQ(single.size(), 1u);
  EXPECT_NEAR(single[0], 5.0, 1e-14);
}

TEST(Cholesky, FactorizesSpdAndSolves) {
  const index_t n = 10;
  DenseMatrix a = random_spd(n, 99);
  DenseMatrix l = a.clone();
  ASSERT_TRUE(cholesky_lower(l.view()));
  // Check A = L L^T (lower triangle of l is the factor).
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      double acc = 0.0;
      for (index_t k = 0; k <= j; ++k) acc += l.at(i, k) * l.at(j, k);
      ASSERT_NEAR(acc, a.at(i, j), 1e-9);
    }
  }
  // Solve L (L^T x) = b and verify A x = b.
  DenseMatrix b = random_matrix(n, 2, 11);
  DenseMatrix x = b.clone();
  solve_lower(l.view(), x.view());
  solve_lower_transposed(l.view(), x.view());
  DenseMatrix ax = naive_gemm(a, x);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < 2; ++j) {
      ASSERT_NEAR(ax.at(i, j), b.at(i, j), 1e-8);
    }
  }
}

TEST(Cholesky, RejectsIndefinite) {
  DenseMatrix a{{1.0, 2.0}, {2.0, 1.0}}; // eigenvalues -1, 3
  EXPECT_FALSE(cholesky_lower(a.view()));
}

TEST(GeneralizedEigen, ReducesToStandardWithIdentityB) {
  const index_t n = 6;
  DenseMatrix a = random_spd(n, 17);
  DenseMatrix b(n, n);
  for (index_t i = 0; i < n; ++i) b.at(i, i) = 1.0;
  const EigenResult gen = sym_generalized_eigen(a.view(), b.view());
  const EigenResult std_r = jacobi_eigen(a.view());
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(gen.values[static_cast<std::size_t>(i)],
                std_r.values[static_cast<std::size_t>(i)], 1e-9);
  }
}

TEST(GeneralizedEigen, SatisfiesPencilEquation) {
  const index_t n = 8;
  DenseMatrix a = random_spd(n, 21);
  DenseMatrix b = random_spd(n, 22);
  const EigenResult r = sym_generalized_eigen(a.view(), b.view());
  // A v = lambda B v and V^T B V = I.
  DenseMatrix bv = naive_gemm(b, r.vectors);
  DenseMatrix av = naive_gemm(a, r.vectors);
  for (index_t c = 0; c < n; ++c) {
    for (index_t i = 0; i < n; ++i) {
      ASSERT_NEAR(av.at(i, c),
                  r.values[static_cast<std::size_t>(c)] * bv.at(i, c), 1e-7);
    }
  }
  DenseMatrix vtbv(n, n);
  gemm_tn(1.0, r.vectors.view(), bv.view(), 0.0, vtbv.view());
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      ASSERT_NEAR(vtbv.at(i, j), i == j ? 1.0 : 0.0, 1e-8);
    }
  }
}

TEST(GeneralizedEigen, ThrowsOnNonSpdB) {
  DenseMatrix a{{1.0, 0.0}, {0.0, 1.0}};
  DenseMatrix b{{1.0, 2.0}, {2.0, 1.0}};
  EXPECT_THROW((void)sym_generalized_eigen(a.view(), b.view()),
               support::Error);
}

TEST(Orthonormalize, ProducesOrthonormalColumns) {
  DenseMatrix x = random_matrix(50, 6, 31);
  const index_t rank = orthonormalize_columns(x.view());
  EXPECT_EQ(rank, 6);
  DenseMatrix g(6, 6);
  gemm_tn(1.0, x.view(), x.view(), 0.0, g.view());
  for (index_t i = 0; i < 6; ++i) {
    for (index_t j = 0; j < 6; ++j) {
      ASSERT_NEAR(g.at(i, j), i == j ? 1.0 : 0.0, 1e-10);
    }
  }
}

TEST(Orthonormalize, DetectsRankDeficiency) {
  DenseMatrix x(20, 3);
  Xoshiro256 rng(5);
  for (index_t i = 0; i < 20; ++i) {
    x.at(i, 0) = rng.uniform(-1, 1);
    x.at(i, 1) = 2.0 * x.at(i, 0); // dependent column
    x.at(i, 2) = rng.uniform(-1, 1);
  }
  EXPECT_EQ(orthonormalize_columns(x.view()), 2);
}

} // namespace
} // namespace sts::la
