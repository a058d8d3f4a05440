// Row-major dense matrices and vector blocks.
//
// LOBPCG operates on "block vectors": tall-skinny m x n matrices with
// n in 8..16 columns. This module provides the owning container plus cheap
// non-owning views used by block kernels (each task sees only its b x n
// chunk, exactly as in the paper's CSB-aligned decomposition).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>

#include "support/aligned.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace sts::la {

using index_t = std::int64_t;

/// Non-owning view of a row-major matrix (possibly a row-block of a larger
/// matrix; `ld` is the leading dimension, i.e. the parent's column count).
struct MatrixView {
  double* data = nullptr;
  index_t rows = 0;
  index_t cols = 0;
  index_t ld = 0;

  [[nodiscard]] double& at(index_t r, index_t c) const {
    STS_EXPECTS(r >= 0 && r < rows && c >= 0 && c < cols);
    return data[r * ld + c];
  }
  [[nodiscard]] double* row(index_t r) const {
    STS_EXPECTS(r >= 0 && r < rows);
    return data + r * ld;
  }
};

/// Read-only counterpart of MatrixView.
struct ConstMatrixView {
  const double* data = nullptr;
  index_t rows = 0;
  index_t cols = 0;
  index_t ld = 0;

  ConstMatrixView() = default;
  ConstMatrixView(const double* d, index_t r, index_t c, index_t l)
      : data(d), rows(r), cols(c), ld(l) {}
  /*implicit*/ ConstMatrixView(const MatrixView& v)
      : data(v.data), rows(v.rows), cols(v.cols), ld(v.ld) {}

  [[nodiscard]] double at(index_t r, index_t c) const {
    STS_EXPECTS(r >= 0 && r < rows && c >= 0 && c < cols);
    return data[r * ld + c];
  }
  [[nodiscard]] const double* row(index_t r) const {
    STS_EXPECTS(r >= 0 && r < rows);
    return data + r * ld;
  }
};

/// Owning row-major dense matrix, 64-byte aligned, contiguous (ld == cols).
class DenseMatrix {
public:
  DenseMatrix() = default;

  /// Allocates rows x cols; zero-fills. When `parallel_first_touch` is true
  /// pages are faulted in from parallel threads (paper's first-touch policy).
  DenseMatrix(index_t rows, index_t cols, bool parallel_first_touch = false)
      : rows_(rows), cols_(cols),
        buf_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols)) {
    STS_EXPECTS(rows >= 0 && cols >= 0);
    support::first_touch_zero(buf_.data(), buf_.size(), parallel_first_touch);
  }

  /// Builds from a row-major initializer list of rows (testing convenience).
  DenseMatrix(std::initializer_list<std::initializer_list<double>> init);

  [[nodiscard]] index_t rows() const noexcept { return rows_; }
  [[nodiscard]] index_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] double* data() noexcept { return buf_.data(); }
  [[nodiscard]] const double* data() const noexcept { return buf_.data(); }

  [[nodiscard]] double& at(index_t r, index_t c) {
    STS_EXPECTS(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return buf_[static_cast<std::size_t>(r * cols_ + c)];
  }
  [[nodiscard]] double at(index_t r, index_t c) const {
    STS_EXPECTS(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return buf_[static_cast<std::size_t>(r * cols_ + c)];
  }

  [[nodiscard]] MatrixView view() noexcept {
    return {buf_.data(), rows_, cols_, cols_};
  }
  [[nodiscard]] ConstMatrixView view() const noexcept {
    return {buf_.data(), rows_, cols_, cols_};
  }

  /// View of the row range [r0, r0+nr): the b x n chunk a block task owns.
  [[nodiscard]] MatrixView row_block(index_t r0, index_t nr) {
    STS_EXPECTS(r0 >= 0 && nr >= 0 && r0 + nr <= rows_);
    return {buf_.data() + r0 * cols_, nr, cols_, cols_};
  }
  [[nodiscard]] ConstMatrixView row_block(index_t r0, index_t nr) const {
    STS_EXPECTS(r0 >= 0 && nr >= 0 && r0 + nr <= rows_);
    return {buf_.data() + r0 * cols_, nr, cols_, cols_};
  }

  /// Rows [r0, r0+nr) of the leading `nc` columns (a strided view).
  [[nodiscard]] ConstMatrixView leading_cols(index_t r0, index_t nr,
                                             index_t nc) const {
    STS_EXPECTS(r0 >= 0 && nr >= 0 && r0 + nr <= rows_);
    STS_EXPECTS(nc >= 0 && nc <= cols_);
    return {buf_.data() + r0 * cols_, nr, nc, cols_};
  }

  [[nodiscard]] std::span<double> flat() noexcept {
    return {buf_.data(), buf_.size()};
  }
  [[nodiscard]] std::span<const double> flat() const noexcept {
    return {buf_.data(), buf_.size()};
  }

  void fill(double value);
  void fill_random(support::Xoshiro256& rng, double lo = -1.0, double hi = 1.0);

  /// Deep copy (the class itself is move-only to keep block buffers from
  /// being copied by accident inside task bodies).
  [[nodiscard]] DenseMatrix clone() const;

  DenseMatrix(DenseMatrix&&) noexcept = default;
  DenseMatrix& operator=(DenseMatrix&&) noexcept = default;
  DenseMatrix(const DenseMatrix&) = delete;
  DenseMatrix& operator=(const DenseMatrix&) = delete;

private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  support::AlignedBuffer<double> buf_;
};

} // namespace sts::la
