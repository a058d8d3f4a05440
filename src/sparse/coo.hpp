// Coordinate (triplet) sparse format: the construction/interchange format.
//
// Generators and the Matrix Market reader produce COO; it is then finalized
// (sorted, duplicates summed) and converted to CSR/CSB for compute. The
// paper's preprocessing steps live here too: symmetrization of
// non-symmetric inputs (A = L + L^T - D) and random value fill for binary
// pattern matrices.
#pragma once

#include <cstdint>
#include <vector>

#include "la/dense.hpp"
#include "support/rng.hpp"

namespace sts::sparse {

using la::index_t;

/// One nonzero. Column/row indices are 32-bit: the scaled suite tops out
/// well below 2^31 rows and halving index memory matters for cache behavior.
struct Triplet {
  std::int32_t row;
  std::int32_t col;
  double value;

  friend bool operator==(const Triplet&, const Triplet&) = default;
};

/// Mutable triplet matrix.
class Coo {
public:
  Coo() = default;
  Coo(index_t rows, index_t cols) : rows_(rows), cols_(cols) {
    STS_EXPECTS(rows >= 0 && cols >= 0);
  }

  [[nodiscard]] index_t rows() const noexcept { return rows_; }
  [[nodiscard]] index_t cols() const noexcept { return cols_; }
  [[nodiscard]] index_t nnz() const noexcept {
    return static_cast<index_t>(entries_.size());
  }
  [[nodiscard]] const std::vector<Triplet>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::vector<Triplet>& entries() noexcept { return entries_; }

  void add(index_t row, index_t col, double value) {
    STS_EXPECTS(row >= 0 && row < rows_ && col >= 0 && col < cols_);
    entries_.push_back({static_cast<std::int32_t>(row),
                        static_cast<std::int32_t>(col), value});
  }

  void reserve(std::size_t n) { entries_.reserve(n); }

  /// Sorts by (row, col) and sums duplicate coordinates in input order.
  /// O(nnz + rows): a row-bucket pass (see Csr::from_coo).
  void finalize();

  /// Makes the matrix symmetric the way the paper does for non-symmetric
  /// inputs: A_new = L + L^T - D where L is the lower triangle including
  /// the diagonal. Requires a square matrix; implies finalize().
  void symmetrize_lower();

  /// Replaces all values with uniform randoms in [lo, hi] while keeping the
  /// matrix symmetric (value depends only on the unordered index pair), as
  /// the paper does for binary matrices.
  void fill_random_symmetric(support::Xoshiro256& rng, double lo = 0.1,
                             double hi = 1.0);

  /// True if for every (i,j,v) there is a matching (j,i,v), duplicates
  /// summed first. O(nnz log(max row length)) after an O(nnz) CSR build.
  [[nodiscard]] bool is_symmetric(double tol = 0.0) const;

  /// Dense copy for reference computations in tests (small matrices only).
  [[nodiscard]] la::DenseMatrix to_dense() const;

private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<Triplet> entries_;
};

} // namespace sts::sparse
