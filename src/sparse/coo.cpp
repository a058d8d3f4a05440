#include "sparse/coo.hpp"

#include <algorithm>
#include <cmath>

#include "sparse/csr.hpp"

namespace sts::sparse {

void Coo::finalize() {
  // One sorting routine for the whole library: the CSR builder's row
  // buckets, read back out in (row, col) order.
  *this = Csr::from_coo(std::move(*this)).to_coo();
}

void Coo::symmetrize_lower() {
  STS_EXPECTS(rows_ == cols_);
  finalize();
  std::vector<Triplet> lower;
  lower.reserve(entries_.size());
  for (const Triplet& t : entries_) {
    if (t.row >= t.col) lower.push_back(t);
  }
  entries_.clear();
  for (const Triplet& t : lower) {
    entries_.push_back(t);
    if (t.row != t.col) entries_.push_back({t.col, t.row, t.value});
  }
  finalize();
}

void Coo::fill_random_symmetric(support::Xoshiro256& rng, double lo,
                                double hi) {
  (void)rng; // values are derived from a per-pair hash so that (i,j) and
             // (j,i) agree without a lookup structure
  for (Triplet& t : entries_) {
    const std::uint64_t a = static_cast<std::uint32_t>(std::min(t.row, t.col));
    const std::uint64_t b = static_cast<std::uint32_t>(std::max(t.row, t.col));
    support::SplitMix64 h((a << 32) ^ b ^ 0x5bf03635ULL);
    const double u =
        static_cast<double>(h.next() >> 11) * 0x1.0p-53;
    t.value = lo + (hi - lo) * u;
  }
}

bool Coo::is_symmetric(double tol) const {
  const Csr csr = Csr::from_coo(*this);
  const auto rowptr = csr.rowptr();
  const auto colidx = csr.colidx();
  const auto values = csr.values();
  for (std::size_t r = 0; r < static_cast<std::size_t>(rows_); ++r) {
    for (std::int64_t k = rowptr[r]; k < rowptr[r + 1]; ++k) {
      // Mirror (c, r): binary search row c, whose columns ascend.
      const auto c =
          static_cast<std::size_t>(colidx[static_cast<std::size_t>(k)]);
      if (c >= static_cast<std::size_t>(rows_)) return false;
      const auto first = colidx.begin() + rowptr[c];
      const auto last = colidx.begin() + rowptr[c + 1];
      const auto it =
          std::lower_bound(first, last, static_cast<std::int32_t>(r));
      if (it == last || *it != static_cast<std::int32_t>(r)) return false;
      const double mirror =
          values[static_cast<std::size_t>(it - colidx.begin())];
      if (std::abs(mirror - values[static_cast<std::size_t>(k)]) > tol) {
        return false;
      }
    }
  }
  return true;
}

la::DenseMatrix Coo::to_dense() const {
  la::DenseMatrix d(rows_, cols_);
  for (const Triplet& t : entries_) d.at(t.row, t.col) += t.value;
  return d;
}

} // namespace sts::sparse
