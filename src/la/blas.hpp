// Dense BLAS-like kernels (the repository's MKL substitute).
//
// Everything here is sequential by design: these are the *task bodies* that
// the runtimes (bsp / ds / flux / rgt) invoke on b x n blocks, mirroring the
// paper's use of single-threaded MKL calls inside each task. Thread-level
// parallelism lives in the runtimes, not here.
//
// Naming follows BLAS: gemm is C = alpha*A*B + beta*C, gemm_tn uses A^T.
#pragma once

#include <span>

#include "la/dense.hpp"

namespace sts::la {

/// C(m x n) = alpha * A(m x k) * B(k x n) + beta * C. Views may alias only
/// if A/B do not overlap C. n == 1 with a unit-stride B takes a vectorized
/// matrix-vector path; n in {2, 4, 8, 16} takes a fixed-width,
/// register-blocked path; other widths a generic loop. beta == 0 never reads
/// C. No width skips zero terms, so a NaN or Inf in A or B reaches C even
/// where its coefficient is zero.
void gemm(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
          MatrixView c);

/// C(k x n) = alpha * A(m x k)^T * B(m x n) + beta * C. This is the paper's
/// XTY kernel body: a k x n partial inner product from one row block.
/// n == 1 with a unit-stride C takes a vectorized matrix-vector path; other
/// widths fold four rows of A and B into C per pass, with a fixed-width
/// column loop for n in {2, 4, 8}; beta and NaN/Inf rules as for gemm.
void gemm_tn(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
             MatrixView c);

/// y = alpha * x + y (same shape).
void axpy(double alpha, ConstMatrixView x, MatrixView y);

/// x *= alpha.
void scal(double alpha, MatrixView x);

/// Element count must match; copies x into y.
void copy(ConstMatrixView x, MatrixView y);

/// Frobenius inner product <x, y> = sum_ij x_ij * y_ij.
[[nodiscard]] double dot(ConstMatrixView x, ConstMatrixView y);

/// Frobenius norm.
[[nodiscard]] double norm_fro(ConstMatrixView x);

/// Vector (span) versions used by Lanczos, whose vectors are 1-column.
void axpy(double alpha, std::span<const double> x, std::span<double> y);
void scal(double alpha, std::span<double> x);
[[nodiscard]] double dot(std::span<const double> x, std::span<const double> y);
[[nodiscard]] double nrm2(std::span<const double> x);

/// Flop counts used by the schedule simulator to cost tasks.
[[nodiscard]] constexpr double gemm_flops(index_t m, index_t n, index_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

} // namespace sts::la
