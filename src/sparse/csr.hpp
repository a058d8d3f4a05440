// Compressed Sparse Row storage + sequential row-range kernels.
//
// CSR backs the `libcsr` BSP baseline (the paper's MKL/CSR version). The
// kernels here are single-threaded over a row range so the BSP engine can
// parallelize with a plain `omp parallel for` and the simulator can cost
// per-range work.
#pragma once

#include <span>
#include <vector>

#include "la/dense.hpp"
#include "sparse/coo.hpp"

namespace sts::sparse {

/// Immutable CSR matrix. rowptr has rows()+1 entries; column indices within
/// a row are sorted ascending.
class Csr {
public:
  Csr() = default;

  /// Builds from finalized or unfinalized COO in O(nnz + rows): a stable
  /// counting sort on rows, a column sort only for rows whose input is out
  /// of order, and duplicates summed in input order. The library's one
  /// sorting routine (Coo::finalize goes through it too).
  static Csr from_coo(Coo coo);

  [[nodiscard]] index_t rows() const noexcept { return rows_; }
  [[nodiscard]] index_t cols() const noexcept { return cols_; }
  [[nodiscard]] index_t nnz() const noexcept {
    return static_cast<index_t>(values_.size());
  }

  [[nodiscard]] std::span<const std::int64_t> rowptr() const noexcept {
    return rowptr_;
  }
  [[nodiscard]] std::span<const std::int32_t> colidx() const noexcept {
    return colidx_;
  }
  [[nodiscard]] std::span<const double> values() const noexcept {
    return values_;
  }

  [[nodiscard]] index_t row_nnz(index_t r) const {
    STS_EXPECTS(r >= 0 && r < rows_);
    return rowptr_[static_cast<std::size_t>(r) + 1] -
           rowptr_[static_cast<std::size_t>(r)];
  }

  [[nodiscard]] Coo to_coo() const;

  /// Heap bytes held by the matrix arrays (rowptr + colidx + values); the
  /// figure the service-layer plan cache budgets against.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return rowptr_.size() * sizeof(std::int64_t) +
           colidx_.size() * sizeof(std::int32_t) +
           values_.size() * sizeof(double);
  }

private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<std::int64_t> rowptr_;
  std::vector<std::int32_t> colidx_;
  std::vector<double> values_;
};

/// y[r0:r1] = A[r0:r1, :] * x. y must be pre-sized to A.rows().
void csr_spmv_range(const Csr& a, std::span<const double> x,
                    std::span<double> y, index_t r0, index_t r1);

/// Y[r0:r1, :] = A[r0:r1, :] * X for dense blocks of vectors.
void csr_spmm_range(const Csr& a, la::ConstMatrixView x, la::MatrixView y,
                    index_t r0, index_t r1);

} // namespace sts::sparse
