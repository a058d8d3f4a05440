#include "sparse/csb.hpp"

#include <algorithm>
#include <limits>
#include <type_traits>

#include "la/microkernel.hpp"
#include "support/fault.hpp"

namespace sts::sparse {

namespace {

/// Calls f(row, bj, k0, k1) for every run [k0, k1) of CSR entries that row
/// `row` in [r0, r1) has in block column bj. Columns ascend within a CSR
/// row, so each block a row touches is one contiguous run: one row segment.
template <typename F>
void for_each_block_run(const Csr& csr, index_t block, index_t r0, index_t r1,
                        F&& f) {
  const auto rowptr = csr.rowptr();
  const auto colidx = csr.colidx();
  for (index_t r = r0; r < r1; ++r) {
    std::int64_t k = rowptr[static_cast<std::size_t>(r)];
    const std::int64_t end = rowptr[static_cast<std::size_t>(r) + 1];
    while (k < end) {
      const index_t bj = colidx[static_cast<std::size_t>(k)] / block;
      const index_t limit = (bj + 1) * block;
      const std::int64_t k0 = k;
      while (k < end && colidx[static_cast<std::size_t>(k)] < limit) ++k;
      f(r, bj, k0, k);
    }
  }
}

} // namespace

Csb Csb::from_coo(const Coo& coo, index_t block_size) {
  return from_csr(Csr::from_coo(coo), block_size);
}

Csb Csb::from_csr(const Csr& csr, index_t block_size) {
  STS_EXPECTS(block_size > 0);
  Csb out;
  out.rows_ = csr.rows();
  out.cols_ = csr.cols();
  out.block_ = block_size;
  out.nb_rows_ = (csr.rows() + block_size - 1) / block_size;
  out.nb_cols_ = (csr.cols() + block_size - 1) / block_size;
  out.packed_ = block_size <= 65536; // local coords fit 16 bits
  // Block ids are formed in std::size_t throughout: with index_t factors
  // an nb_rows*nb_cols product could overflow a narrower intermediate.
  const std::size_t nb_cols = static_cast<std::size_t>(out.nb_cols_);
  const std::size_t nblocks =
      static_cast<std::size_t>(out.nb_rows_) * nb_cols;

  // Pass 1: entries and row segments per block, then prefix sums.
  out.blkptr_.assign(nblocks + 1, 0);
  out.segptr_.assign(nblocks + 1, 0);
  for_each_block_run(
      csr, block_size, 0, csr.rows(),
      [&](index_t r, index_t bj, std::int64_t k0, std::int64_t k1) {
        const std::size_t k =
            static_cast<std::size_t>(r / block_size) * nb_cols +
            static_cast<std::size_t>(bj);
        out.blkptr_[k + 1] += k1 - k0;
        ++out.segptr_[k + 1];
      });
  for (std::size_t k = 0; k < nblocks; ++k) {
    if (out.blkptr_[k + 1] != 0) ++out.nonempty_;
    out.blkptr_[k + 1] += out.blkptr_[k];
    out.segptr_[k + 1] += out.segptr_[k];
  }

  // Pass 2: scatter one block row at a time in CSR row order, which is
  // (local row, local column) order inside every block -- no per-block
  // sort. Each stream slot is written exactly once; the cursors cover one
  // block row, so they cost O(block_cols()), not O(#blocks).
  const auto nnz = static_cast<std::size_t>(csr.nnz());
  out.values_ = support::AlignedBuffer<double>(nnz);
  out.segs_ = support::AlignedBuffer<RowSegment>(
      static_cast<std::size_t>(out.segptr_[nblocks]));
  const auto scatter = [&](auto* cols) {
    using ColT = std::remove_pointer_t<decltype(cols)>;
    const auto colidx = csr.colidx();
    const auto values = csr.values();
    std::vector<std::int64_t> entry(nb_cols);
    std::vector<std::int64_t> seg(nb_cols);
    for (index_t bi = 0; bi < out.nb_rows_; ++bi) {
      const std::size_t row0 = static_cast<std::size_t>(bi) * nb_cols;
      std::copy_n(out.blkptr_.begin() + row0, nb_cols, entry.begin());
      std::copy_n(out.segptr_.begin() + row0, nb_cols, seg.begin());
      const index_t r0 = bi * block_size;
      for_each_block_run(
          csr, block_size, r0, r0 + out.rows_in_block(bi),
          [&](index_t r, index_t bj, std::int64_t k0, std::int64_t k1) {
            const auto j = static_cast<std::size_t>(bj);
            const std::int64_t begin = entry[j];
            out.segs_[static_cast<std::size_t>(seg[j]++)] = {
                begin, static_cast<std::int32_t>(r - r0),
                static_cast<std::int32_t>(k1 - k0)};
            const index_t c0 = bj * block_size;
            for (std::int64_t k = k0; k < k1; ++k) {
              const auto t = static_cast<std::size_t>(begin + (k - k0));
              out.values_[t] = values[static_cast<std::size_t>(k)];
              cols[t] = static_cast<ColT>(
                  colidx[static_cast<std::size_t>(k)] - c0);
            }
            entry[j] += k1 - k0;
          });
    }
  };
  if (out.packed_) {
    out.cols16_ = support::AlignedBuffer<std::uint16_t>(nnz);
    scatter(out.cols16_.data());
  } else {
    out.cols32_ = support::AlignedBuffer<std::uint32_t>(nnz);
    scatter(out.cols32_.data());
  }
  return out;
}

Csb::DomainMap Csb::partition_block_rows(unsigned domains) const {
  DomainMap map;
  if (domains == 0) domains = 1;
  map.stripe_end.resize(domains);
  if (nnz() == 0) {
    // Degenerate: balance row counts instead (zero tasks still exist).
    for (unsigned d = 0; d < domains; ++d) {
      map.stripe_end[d] = nb_rows_ * static_cast<index_t>(d + 1) /
                          static_cast<index_t>(domains);
    }
    return map;
  }
  // Cut each stripe where the running nnz prefix crosses (d+1)/domains of
  // the total; stripes stay contiguous and trailing rows land in the last.
  const double total = static_cast<double>(nnz());
  index_t bi = 0;
  std::int64_t acc = 0;
  for (unsigned d = 0; d + 1 < domains; ++d) {
    const double target = total * static_cast<double>(d + 1) /
                          static_cast<double>(domains);
    while (bi < nb_rows_ && static_cast<double>(acc) < target) {
      acc += block_row_nnz(bi);
      ++bi;
    }
    map.stripe_end[d] = bi;
  }
  map.stripe_end.back() = nb_rows_;
  return map;
}

void Csb::place_stripes(
    const DomainMap& map,
    const std::function<void(int, std::function<void()>)>& submit,
    const std::function<void()>& wait) {
  STS_EXPECTS(!map.stripe_end.empty() &&
              map.stripe_end.back() == nb_rows_);
  // Fresh buffers: aligned_alloc maps pages but does not fault them, so the
  // first write decides their NUMA node. Each domain's stripe is one
  // contiguous range of the block-row-major streams, and the copy task for
  // it runs under that domain's hint — real first-touch placement, not the
  // single-threaded layout from_csr produced.
  support::AlignedBuffer<double> values(values_.size());
  support::AlignedBuffer<std::uint16_t> cols16(cols16_.size());
  support::AlignedBuffer<std::uint32_t> cols32(cols32_.size());
  support::AlignedBuffer<RowSegment> segs(segs_.size());
  const std::size_t nbc = static_cast<std::size_t>(nb_cols_);
  index_t row0 = 0;
  for (int d = 0; d < map.domains(); ++d) {
    const index_t row1 = map.stripe_end[static_cast<std::size_t>(d)];
    const std::size_t e0 =
        static_cast<std::size_t>(blkptr_[static_cast<std::size_t>(row0) * nbc]);
    const std::size_t e1 =
        static_cast<std::size_t>(blkptr_[static_cast<std::size_t>(row1) * nbc]);
    const std::size_t s0 =
        static_cast<std::size_t>(segptr_[static_cast<std::size_t>(row0) * nbc]);
    const std::size_t s1 =
        static_cast<std::size_t>(segptr_[static_cast<std::size_t>(row1) * nbc]);
    row0 = row1;
    if (e0 == e1 && s0 == s1) continue;
    submit(d, [this, &values, &cols16, &cols32, &segs, e0, e1, s0, s1] {
      std::copy(values_.data() + e0, values_.data() + e1, values.data() + e0);
      if (packed_) {
        std::copy(cols16_.data() + e0, cols16_.data() + e1,
                  cols16.data() + e0);
      } else {
        std::copy(cols32_.data() + e0, cols32_.data() + e1,
                  cols32.data() + e0);
      }
      std::copy(segs_.data() + s0, segs_.data() + s1, segs.data() + s0);
    });
  }
  wait();
  values_ = std::move(values);
  cols16_ = std::move(cols16);
  cols32_ = std::move(cols32);
  segs_ = std::move(segs);
}

Coo Csb::to_coo() const {
  Coo coo(rows_, cols_);
  coo.reserve(values_.size());
  for (index_t bi = 0; bi < nb_rows_; ++bi) {
    for (index_t bj = 0; bj < nb_cols_; ++bj) {
      const BlockView v = block_view(bi, bj);
      for (const RowSegment& seg : v.segments) {
        for (std::int64_t t = seg.begin; t < seg.begin + seg.count; ++t) {
          coo.add(bi * block_ + seg.row, bj * block_ + v.col(t),
                  values_[static_cast<std::size_t>(t)]);
        }
      }
    }
  }
  return coo;
}

// Fault point "spmv_block": every solver version funnels its SpMV/SpMM
// work through these two kernels, so one site covers all five execution
// styles. kind=throw aborts the enclosing task; kind=nan poisons the first
// output row of the block, exercising the solvers' non-finite guards.

namespace {

template <typename ColT>
void spmv_segments(std::span<const Csb::RowSegment> segs, const double* vals,
                   const ColT* cols, const double* xb, double* yb) {
  for (const Csb::RowSegment& seg : segs) {
    const double* v = vals + seg.begin;
    const ColT* c = cols + seg.begin;
    double acc = 0.0;
    for (std::int32_t t = 0; t < seg.count; ++t) {
      acc += v[t] * xb[c[t]];
    }
    yb[seg.row] += acc;
  }
}

/// Fixed-width SpMM over row segments: the accumulator lives in registers
/// for the whole segment and spills to y once per output row.
template <int N, typename ColT>
void spmm_segments_fixed(std::span<const Csb::RowSegment> segs,
                         const double* vals, const ColT* cols,
                         const double* xb, la::index_t ldx, double* yb,
                         la::index_t ldy) {
  for (const Csb::RowSegment& seg : segs) {
    const double* v = vals + seg.begin;
    const ColT* c = cols + seg.begin;
    double acc[N] = {};
    for (std::int32_t t = 0; t < seg.count; ++t) {
      la::row_axpy<N>(v[t], xb + static_cast<la::index_t>(c[t]) * ldx, acc);
    }
    la::row_add<N>(acc, yb + seg.row * ldy);
  }
}

template <typename ColT>
void spmm_segments_generic(std::span<const Csb::RowSegment> segs,
                           const double* vals, const ColT* cols,
                           const double* xb, la::index_t ldx, double* yb,
                           la::index_t ldy, la::index_t n) {
  for (const Csb::RowSegment& seg : segs) {
    const double* v = vals + seg.begin;
    const ColT* c = cols + seg.begin;
    double* yr = yb + seg.row * ldy;
    for (std::int32_t t = 0; t < seg.count; ++t) {
      la::row_axpy_n(v[t], xb + static_cast<la::index_t>(c[t]) * ldx, yr, n);
    }
  }
}

template <typename ColT>
void spmm_dispatch(std::span<const Csb::RowSegment> segs, const double* vals,
                   const ColT* cols, const double* xb, la::index_t ldx,
                   double* yb, la::index_t ldy, la::index_t n) {
  // Fixed-width bodies for the LOBPCG block-vector widths the paper uses
  // (and the small even widths the tests exercise); generic tail otherwise.
  switch (n) {
  case 1:
    for (const Csb::RowSegment& seg : segs) {
      const double* v = vals + seg.begin;
      const ColT* c = cols + seg.begin;
      double acc = 0.0;
      for (std::int32_t t = 0; t < seg.count; ++t) {
        acc += v[t] * xb[static_cast<la::index_t>(c[t]) * ldx];
      }
      yb[seg.row * ldy] += acc;
    }
    return;
  case 2:
    spmm_segments_fixed<2>(segs, vals, cols, xb, ldx, yb, ldy);
    return;
  case 4:
    spmm_segments_fixed<4>(segs, vals, cols, xb, ldx, yb, ldy);
    return;
  case 8:
    spmm_segments_fixed<8>(segs, vals, cols, xb, ldx, yb, ldy);
    return;
  case 16:
    spmm_segments_fixed<16>(segs, vals, cols, xb, ldx, yb, ldy);
    return;
  default:
    spmm_segments_generic(segs, vals, cols, xb, ldx, yb, ldy, n);
    return;
  }
}

} // namespace

void csb_block_spmv(const Csb& a, index_t bi, index_t bj,
                    std::span<const double> x, std::span<double> y) {
  STS_EXPECTS(static_cast<index_t>(x.size()) == a.cols());
  STS_EXPECTS(static_cast<index_t>(y.size()) == a.rows());
  const double* xb = x.data() + bj * a.block_size();
  double* yb = y.data() + bi * a.block_size();
  if (support::fault::check("spmv_block") && a.rows_in_block(bi) > 0) {
    yb[0] = std::numeric_limits<double>::quiet_NaN();
  }
  const Csb::BlockView v = a.block_view(bi, bj);
  if (v.cols16 != nullptr) {
    spmv_segments(v.segments, v.values, v.cols16, xb, yb);
  } else {
    spmv_segments(v.segments, v.values, v.cols32, xb, yb);
  }
}

void csb_block_spmm(const Csb& a, index_t bi, index_t bj,
                    la::ConstMatrixView x, la::MatrixView y) {
  STS_EXPECTS(x.rows == a.cols() && y.rows == a.rows() && x.cols == y.cols);
  const index_t r0 = bi * a.block_size();
  const index_t c0 = bj * a.block_size();
  const index_t n = x.cols;
  if (support::fault::check("spmv_block") && a.rows_in_block(bi) > 0) {
    double* yr = y.row(r0);
    for (index_t j = 0; j < n; ++j) {
      yr[j] = std::numeric_limits<double>::quiet_NaN();
    }
  }
  const double* xb = x.data + c0 * x.ld;
  double* yb = y.data + r0 * y.ld;
  const Csb::BlockView v = a.block_view(bi, bj);
  if (v.cols16 != nullptr) {
    spmm_dispatch(v.segments, v.values, v.cols16, xb, x.ld, yb, y.ld, n);
  } else {
    spmm_dispatch(v.segments, v.values, v.cols32, xb, x.ld, yb, y.ld, n);
  }
}

void csb_block_zero(const Csb& a, index_t bi, std::span<double> y) {
  STS_EXPECTS(static_cast<index_t>(y.size()) == a.rows());
  const index_t r0 = bi * a.block_size();
  const index_t nr = a.rows_in_block(bi);
  std::fill(y.begin() + r0, y.begin() + r0 + nr, 0.0);
}

void csb_block_zero(const Csb& a, index_t bi, la::MatrixView y) {
  STS_EXPECTS(y.rows == a.rows());
  const index_t r0 = bi * a.block_size();
  const index_t nr = a.rows_in_block(bi);
  for (index_t r = 0; r < nr; ++r) {
    double* yr = y.row(r0 + r);
    for (index_t j = 0; j < y.cols; ++j) yr[j] = 0.0;
  }
}

} // namespace sts::sparse
