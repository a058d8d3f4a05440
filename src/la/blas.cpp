#include "la/blas.hpp"

#include <cmath>

namespace sts::la {

namespace {

// One-column paths (n == 1, as in Lanczos' XTY/XY). The generic loops below
// reduce to one scalar FMA per element there; these stream unit-stride rows,
// and `omp simd` (with -fopenmp-simd, see CMakeLists.txt) vectorizes them at
// -O2.
//
// No path skips a term whose coefficient is zero: 0 * Inf and 0 * NaN give
// NaN in C for every width, so a non-finite operand always shows.

// c[i] = beta*c[i] + alpha * a(i,:) . b for a unit-stride vector b. Four
// rows per pass: four independent sums, and each b element loaded once.
void gemv(double alpha, ConstMatrixView a, const double* b, double beta,
          MatrixView c) {
  const index_t k = a.cols;
  auto store = [&](index_t i, double acc) {
    double& ci = c.row(i)[0];
    ci = beta == 0.0 ? alpha * acc : beta * ci + alpha * acc;
  };
  index_t i = 0;
  for (; i + 4 <= c.rows; i += 4) {
    const double* a0 = a.row(i);
    const double* a1 = a.row(i + 1);
    const double* a2 = a.row(i + 2);
    const double* a3 = a.row(i + 3);
    double s0 = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    double s3 = 0.0;
#pragma omp simd reduction(+ : s0, s1, s2, s3)
    for (index_t j = 0; j < k; ++j) {
      s0 += a0[j] * b[j];
      s1 += a1[j] * b[j];
      s2 += a2[j] * b[j];
      s3 += a3[j] * b[j];
    }
    store(i, s0);
    store(i + 1, s1);
    store(i + 2, s2);
    store(i + 3, s3);
  }
  for (; i < c.rows; ++i) {
    const double* ai = a.row(i);
    double acc = 0.0;
#pragma omp simd reduction(+ : acc)
    for (index_t j = 0; j < k; ++j) acc += ai[j] * b[j];
    store(i, acc);
  }
}

// c = beta*c + alpha * a^T b for a unit-stride vector c: rows of A are
// added into c with weights alpha*b[r], four rows per pass over c.
void gemv_t(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
            double* c) {
  const index_t k = a.cols;
  if (beta == 0.0) {
    for (index_t j = 0; j < k; ++j) c[j] = 0.0;
  } else if (beta != 1.0) {
    for (index_t j = 0; j < k; ++j) c[j] *= beta;
  }
  index_t r = 0;
  for (; r + 4 <= a.rows; r += 4) {
    const double* a0 = a.row(r);
    const double* a1 = a.row(r + 1);
    const double* a2 = a.row(r + 2);
    const double* a3 = a.row(r + 3);
    const double s0 = alpha * b.row(r)[0];
    const double s1 = alpha * b.row(r + 1)[0];
    const double s2 = alpha * b.row(r + 2)[0];
    const double s3 = alpha * b.row(r + 3)[0];
#pragma omp simd
    for (index_t j = 0; j < k; ++j) {
      c[j] += s0 * a0[j] + s1 * a1[j] + s2 * a2[j] + s3 * a3[j];
    }
  }
  for (; r < a.rows; ++r) {
    const double* ar = a.row(r);
    const double s = alpha * b.row(r)[0];
#pragma omp simd
    for (index_t j = 0; j < k; ++j) c[j] += s * ar[j];
  }
}

// c = beta*c, with beta == 0 writing zeros so that C is never read.
void scale_rows(double beta, MatrixView c) {
  for (index_t i = 0; i < c.rows; ++i) {
    double* ci = c.data + i * c.ld;
    if (beta == 0.0) {
      for (index_t j = 0; j < c.cols; ++j) ci[j] = 0.0;
    } else if (beta != 1.0) {
      for (index_t j = 0; j < c.cols; ++j) ci[j] *= beta;
    }
  }
}

// Block-width paths (n = nev in LOBPCG's XY/XTY). A compile-time N turns
// each column loop into whole vector registers, as in la/microkernel.hpp;
// raw ld arithmetic keeps the per-row bounds checks of MatrixView::row out
// of the k loop. The dispatch in gemm/gemm_tn fixes N only for the widths
// where that measured faster than the runtime-width loop (DESIGN.md §10).

// Rows [i, i + R) of c = beta*c + alpha * a b, for b of size k x N. The R x N
// sums stay in registers across the k loop, so each b row (L1-resident) is
// loaded once for R output rows and each c row is stored once. The sum loops
// are fully unrolled with `GCC unroll` rather than marked `omp simd`: GCC 12
// at -O2 leaves a simd loop of N/2 vector steps rolled, with the sums on the
// stack, while the unrolled body is vectorized by the SLP pass with the sums
// in registers.
template <int N, int R>
inline void gemm_rows(double alpha, ConstMatrixView a, ConstMatrixView b,
                      double beta, MatrixView c, index_t i) {
  const double* ai = a.data + i * a.ld;
  double acc[R][N] = {};
  for (index_t k = 0; k < a.cols; ++k) {
    const double* bk = b.data + k * b.ld;
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) {
      const double ark = ai[r * a.ld + k];
#pragma GCC unroll 16
      for (int j = 0; j < N; ++j) acc[r][j] += ark * bk[j];
    }
  }
  for (int r = 0; r < R; ++r) {
    double* cr = c.data + (i + r) * c.ld;
    if (beta == 0.0) {
#pragma omp simd
      for (int j = 0; j < N; ++j) cr[j] = alpha * acc[r][j];
    } else {
#pragma omp simd
      for (int j = 0; j < N; ++j) cr[j] = beta * cr[j] + alpha * acc[r][j];
    }
  }
}

template <int N>
void gemm_n(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
            MatrixView c) {
  // Two to four rows per pass. At N <= 8 the R x N sums fit in 8 of the 16
  // SSE2 registers of the baseline x86-64 target; at N = 16 the 32 sums fill
  // all 16 and some spill to the stack, yet R = 2 still measured faster than
  // R = 1 there.
  constexpr int R = N <= 4 ? 4 : 2;
  index_t i = 0;
  for (; i + R <= c.rows; i += R) gemm_rows<N, R>(alpha, a, b, beta, c, i);
  for (; i < c.rows; ++i) gemm_rows<N, 1>(alpha, a, b, beta, c, i);
}

// c = beta*c + alpha * a^T b for b of size m x n, with n = N, or c.cols
// when N == 0: four rows of a and b are folded into each c row per pass, so
// each L1-resident c row is read and written once per four input rows.
template <int N>
void gemm_tn_fold(double alpha, ConstMatrixView a, ConstMatrixView b,
                  double beta, MatrixView c) {
  scale_rows(beta, c);
  const index_t k = a.cols;
  const index_t n = N > 0 ? N : c.cols;
  index_t r = 0;
  for (; r + 4 <= a.rows; r += 4) {
    const double* a0 = a.data + r * a.ld;
    const double* a1 = a0 + a.ld;
    const double* a2 = a1 + a.ld;
    const double* a3 = a2 + a.ld;
    const double* b0 = b.data + r * b.ld;
    const double* b1 = b0 + b.ld;
    const double* b2 = b1 + b.ld;
    const double* b3 = b2 + b.ld;
    for (index_t i = 0; i < k; ++i) {
      const double s0 = alpha * a0[i];
      const double s1 = alpha * a1[i];
      const double s2 = alpha * a2[i];
      const double s3 = alpha * a3[i];
      double* ci = c.data + i * c.ld;
#pragma omp simd
      for (index_t j = 0; j < n; ++j) {
        ci[j] += s0 * b0[j] + s1 * b1[j] + s2 * b2[j] + s3 * b3[j];
      }
    }
  }
  for (; r < a.rows; ++r) {
    const double* ar = a.data + r * a.ld;
    const double* br = b.data + r * b.ld;
    for (index_t i = 0; i < k; ++i) {
      const double s = alpha * ar[i];
      double* ci = c.data + i * c.ld;
#pragma omp simd
      for (index_t j = 0; j < n; ++j) ci[j] += s * br[j];
    }
  }
}

} // namespace

void gemm(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
          MatrixView c) {
  STS_EXPECTS(a.rows == c.rows && b.cols == c.cols && a.cols == b.rows);
  switch (c.cols) {
  case 1:
    if (b.ld == 1) return gemv(alpha, a, b.data, beta, c);
    break;
  case 2: return gemm_n<2>(alpha, a, b, beta, c);
  case 4: return gemm_n<4>(alpha, a, b, beta, c);
  case 8: return gemm_n<8>(alpha, a, b, beta, c);
  case 16: return gemm_n<16>(alpha, a, b, beta, c);
  default: break;
  }
  // Any other width (nev = 3, 5, 6, ...): i-k-j order keeps the inner loop
  // streaming over rows of B and C.
  for (index_t i = 0; i < c.rows; ++i) {
    double* ci = c.row(i);
    scale_rows(beta, MatrixView{ci, 1, c.cols, c.ld});
    const double* ai = a.row(i);
    for (index_t k = 0; k < a.cols; ++k) {
      const double aik = alpha * ai[k];
      const double* bk = b.row(k);
#pragma omp simd
      for (index_t j = 0; j < c.cols; ++j) ci[j] += aik * bk[j];
    }
  }
}

void gemm_tn(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
             MatrixView c) {
  STS_EXPECTS(a.cols == c.rows && b.cols == c.cols && a.rows == b.rows);
  switch (c.cols) {
  case 1:
    if (c.ld == 1) return gemv_t(alpha, a, b, beta, c.data);
    break;
  case 2: return gemm_tn_fold<2>(alpha, a, b, beta, c);
  case 4: return gemm_tn_fold<4>(alpha, a, b, beta, c);
  case 8: return gemm_tn_fold<8>(alpha, a, b, beta, c);
  default: break;
  }
  // Any other width (nev = 3, 5, 6, 16, ...): the same fold over c.cols.
  gemm_tn_fold<0>(alpha, a, b, beta, c);
}

void axpy(double alpha, ConstMatrixView x, MatrixView y) {
  STS_EXPECTS(x.rows == y.rows && x.cols == y.cols);
  for (index_t i = 0; i < x.rows; ++i) {
    const double* xi = x.row(i);
    double* yi = y.row(i);
    for (index_t j = 0; j < x.cols; ++j) yi[j] += alpha * xi[j];
  }
}

void scal(double alpha, MatrixView x) {
  for (index_t i = 0; i < x.rows; ++i) {
    double* xi = x.row(i);
    for (index_t j = 0; j < x.cols; ++j) xi[j] *= alpha;
  }
}

void copy(ConstMatrixView x, MatrixView y) {
  STS_EXPECTS(x.rows == y.rows && x.cols == y.cols);
  for (index_t i = 0; i < x.rows; ++i) {
    const double* xi = x.row(i);
    double* yi = y.row(i);
    for (index_t j = 0; j < x.cols; ++j) yi[j] = xi[j];
  }
}

double dot(ConstMatrixView x, ConstMatrixView y) {
  STS_EXPECTS(x.rows == y.rows && x.cols == y.cols);
  double acc = 0.0;
  for (index_t i = 0; i < x.rows; ++i) {
    const double* xi = x.row(i);
    const double* yi = y.row(i);
    for (index_t j = 0; j < x.cols; ++j) acc += xi[j] * yi[j];
  }
  return acc;
}

double norm_fro(ConstMatrixView x) { return std::sqrt(dot(x, x)); }

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  STS_EXPECTS(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scal(double alpha, std::span<double> x) {
  for (double& v : x) v *= alpha;
}

double dot(std::span<const double> x, std::span<const double> y) {
  STS_EXPECTS(x.size() == y.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

double nrm2(std::span<const double> x) { return std::sqrt(dot(x, x)); }

} // namespace sts::la
