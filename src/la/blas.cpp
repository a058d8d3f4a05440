#include "la/blas.hpp"

#include <cmath>

namespace sts::la {

namespace {

// One-column paths (n == 1, as in Lanczos' XTY/XY). The generic loops below
// reduce to one scalar FMA behind a zero test per element there; these
// stream unit-stride rows with no per-element branch, and `omp simd` (with
// -fopenmp-simd, see CMakeLists.txt) vectorizes them at -O2.

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

} // namespace

void gemm(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
          MatrixView c) {
  STS_EXPECTS(a.rows == c.rows && b.cols == c.cols && a.cols == b.rows);
  if (c.cols == 1 && b.ld == 1) {
    gemv(alpha, a, b.data, beta, c);
    return;
  }
  // i-k-j loop order keeps the inner loop streaming over rows of B and C,
  // which vectorizes and stays cache-friendly for tall-skinny blocks.
  for (index_t i = 0; i < c.rows; ++i) {
    double* ci = c.row(i);
    if (beta == 0.0) {
      for (index_t j = 0; j < c.cols; ++j) ci[j] = 0.0;
    } else if (beta != 1.0) {
      for (index_t j = 0; j < c.cols; ++j) ci[j] *= beta;
    }
    const double* ai = a.row(i);
    for (index_t k = 0; k < a.cols; ++k) {
      const double aik = alpha * ai[k];
      if (aik == 0.0) continue;
      const double* bk = b.row(k);
      for (index_t j = 0; j < c.cols; ++j) ci[j] += aik * bk[j];
    }
  }
}

void gemm_tn(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
             MatrixView c) {
  STS_EXPECTS(a.cols == c.rows && b.cols == c.cols && a.rows == b.rows);
  if (c.cols == 1 && c.ld == 1) {
    gemv_t(alpha, a, b, beta, c.data);
    return;
  }
  if (beta == 0.0) {
    for (index_t i = 0; i < c.rows; ++i) {
      double* ci = c.row(i);
      for (index_t j = 0; j < c.cols; ++j) ci[j] = 0.0;
    }
  } else if (beta != 1.0) {
    for (index_t i = 0; i < c.rows; ++i) {
      double* ci = c.row(i);
      for (index_t j = 0; j < c.cols; ++j) ci[j] *= beta;
    }
  }
  // Accumulate rank-1 contributions row-of-A at a time; C is k x n and small
  // (k, n <= 48 in LOBPCG), so it stays resident in L1 while A and B stream.
  for (index_t r = 0; r < a.rows; ++r) {
    const double* ar = a.row(r);
    const double* br = b.row(r);
    for (index_t i = 0; i < c.rows; ++i) {
      const double av = alpha * ar[i];
      if (av == 0.0) continue;
      double* ci = c.row(i);
      for (index_t j = 0; j < c.cols; ++j) ci[j] += av * br[j];
    }
  }
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
