#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <sstream>

#include "sparse/coo.hpp"
#include "sparse/csb.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"
#include "sparse/mm_io.hpp"
#include "sparse/stats.hpp"
#include "sparse/suite.hpp"

namespace sts::sparse {
namespace {

TEST(Coo, FinalizeSortsAndSumsDuplicates) {
  Coo coo(3, 3);
  coo.add(2, 1, 1.0);
  coo.add(0, 0, 2.0);
  coo.add(2, 1, 3.0);
  coo.finalize();
  ASSERT_EQ(coo.nnz(), 2);
  EXPECT_EQ(coo.entries()[0], (Triplet{0, 0, 2.0}));
  EXPECT_EQ(coo.entries()[1], (Triplet{2, 1, 4.0}));
}

TEST(Coo, SymmetrizeLowerMatchesPaperFormula) {
  // A_new = L + L^T - D where L is the lower triangle incl. diagonal.
  Coo coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(0, 1, 9.0); // upper entry must be discarded
  coo.add(1, 0, 2.0);
  coo.add(1, 1, 3.0);
  coo.symmetrize_lower();
  la::DenseMatrix d = coo.to_dense();
  EXPECT_EQ(d.at(0, 0), 1.0);
  EXPECT_EQ(d.at(0, 1), 2.0);
  EXPECT_EQ(d.at(1, 0), 2.0);
  EXPECT_EQ(d.at(1, 1), 3.0);
  EXPECT_TRUE(coo.is_symmetric());
}

TEST(Coo, FillRandomSymmetricKeepsSymmetry) {
  Coo coo(10, 10);
  support::Xoshiro256 rng(4);
  for (int k = 0; k < 30; ++k) {
    const auto i = static_cast<index_t>(rng.below(10));
    const auto j = static_cast<index_t>(rng.below(10));
    coo.add(i, j, 1.0);
    if (i != j) coo.add(j, i, 1.0);
  }
  coo.finalize();
  support::Xoshiro256 fill(9);
  coo.fill_random_symmetric(fill);
  EXPECT_TRUE(coo.is_symmetric());
  for (const Triplet& t : coo.entries()) {
    EXPECT_GE(t.value, 0.1);
    EXPECT_LE(t.value, 1.0);
  }
}

TEST(Csr, RoundTripsThroughCoo) {
  Coo coo(4, 4);
  coo.add(0, 1, 1.0);
  coo.add(3, 3, 2.0);
  coo.add(1, 0, 3.0);
  Csr csr = Csr::from_coo(coo);
  EXPECT_EQ(csr.nnz(), 3);
  EXPECT_EQ(csr.row_nnz(0), 1);
  EXPECT_EQ(csr.row_nnz(2), 0);
  Coo back = csr.to_coo();
  back.finalize();
  coo.finalize();
  EXPECT_EQ(back.entries(), coo.entries());
}

TEST(Csr, SpmvMatchesDense) {
  Coo coo = gen_fem3d(4, 4, 4, 1, 11);
  Csr csr = Csr::from_coo(coo);
  la::DenseMatrix dense = coo.to_dense();
  std::vector<double> x(static_cast<std::size_t>(csr.cols()));
  support::Xoshiro256 rng(2);
  for (double& v : x) v = rng.uniform(-1, 1);
  std::vector<double> y(static_cast<std::size_t>(csr.rows()));
  csr_spmv_range(csr, x, y, 0, csr.rows());
  for (index_t r = 0; r < csr.rows(); ++r) {
    double acc = 0.0;
    for (index_t c = 0; c < csr.cols(); ++c) {
      acc += dense.at(r, c) * x[static_cast<std::size_t>(c)];
    }
    ASSERT_NEAR(y[static_cast<std::size_t>(r)], acc, 1e-10);
  }
}

TEST(Csr, SpmmRangeComputesSubsetOnly) {
  Coo coo = gen_banded_random(32, 4, 0.8, 3);
  Csr csr = Csr::from_coo(coo);
  la::DenseMatrix x(32, 3);
  support::Xoshiro256 rng(5);
  x.fill_random(rng);
  la::DenseMatrix y(32, 3);
  y.fill(-7.0);
  csr_spmm_range(csr, x.view(), y.view(), 8, 16);
  for (index_t r = 0; r < 8; ++r) {
    ASSERT_EQ(y.at(r, 0), -7.0); // untouched outside the range
  }
  la::DenseMatrix dense = coo.to_dense();
  for (index_t r = 8; r < 16; ++r) {
    for (index_t j = 0; j < 3; ++j) {
      double acc = 0.0;
      for (index_t c = 0; c < 32; ++c) acc += dense.at(r, c) * x.at(c, j);
      ASSERT_NEAR(y.at(r, j), acc, 1e-10);
    }
  }
}

class CsbRoundTrip : public ::testing::TestWithParam<index_t> {};

TEST_P(CsbRoundTrip, PreservesAllEntries) {
  const index_t block = GetParam();
  Coo coo = gen_rmat(7, 6, 0.57, 0.19, 0.19, 13);
  Csb csb = Csb::from_coo(coo, block);
  EXPECT_EQ(csb.nnz(), coo.nnz());
  Coo back = csb.to_coo();
  back.finalize();
  coo.finalize();
  EXPECT_EQ(back.entries(), coo.entries());
  EXPECT_EQ(csb.block_rows(), (coo.rows() + block - 1) / block);
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, CsbRoundTrip,
                         ::testing::Values(1, 3, 16, 50, 128, 1000));

TEST(Csb, BlockSpmvAccumulatesAcrossBlocks) {
  Coo coo = gen_fem3d(5, 5, 5, 1, 17);
  const index_t block = 32;
  Csb csb = Csb::from_coo(coo, block);
  Csr csr = Csr::from_coo(coo);
  std::vector<double> x(static_cast<std::size_t>(csb.cols()));
  support::Xoshiro256 rng(6);
  for (double& v : x) v = rng.uniform(-1, 1);
  std::vector<double> y(static_cast<std::size_t>(csb.rows()), 0.0);
  for (index_t bi = 0; bi < csb.block_rows(); ++bi) {
    for (index_t bj = 0; bj < csb.block_cols(); ++bj) {
      if (!csb.block_empty(bi, bj)) csb_block_spmv(csb, bi, bj, x, y);
    }
  }
  std::vector<double> ref(static_cast<std::size_t>(csb.rows()));
  csr_spmv_range(csr, x, ref, 0, csr.rows());
  for (std::size_t i = 0; i < y.size(); ++i) ASSERT_NEAR(y[i], ref[i], 1e-10);
}

TEST(Csb, BlockSpmmMatchesCsr) {
  Coo coo = gen_banded_random(100, 10, 0.5, 19);
  Csb csb = Csb::from_coo(coo, 17); // deliberately non-dividing block size
  Csr csr = Csr::from_coo(coo);
  la::DenseMatrix x(100, 4);
  support::Xoshiro256 rng(7);
  x.fill_random(rng);
  la::DenseMatrix y(100, 4);
  for (index_t bi = 0; bi < csb.block_rows(); ++bi) {
    csb_block_zero(csb, bi, y.view());
    for (index_t bj = 0; bj < csb.block_cols(); ++bj) {
      if (!csb.block_empty(bi, bj)) {
        csb_block_spmm(csb, bi, bj, x.view(), y.view());
      }
    }
  }
  la::DenseMatrix ref(100, 4);
  csr_spmm_range(csr, x.view(), ref.view(), 0, 100);
  for (index_t i = 0; i < 100; ++i) {
    for (index_t j = 0; j < 4; ++j) {
      ASSERT_NEAR(y.at(i, j), ref.at(i, j), 1e-10);
    }
  }
}

/// Structural invariants of the packed SoA layout plus agreement of the
/// row-segmented kernels with the CSR reference, for one matrix + block
/// size. Exercised across divisible and non-divisible shapes below.
void expect_csb_matches_csr(const Coo& coo, index_t block) {
  SCOPED_TRACE("block=" + std::to_string(block) +
               " rows=" + std::to_string(coo.rows()));
  Csb csb = Csb::from_coo(coo, block);
  Csr csr = Csr::from_coo(coo);
  ASSERT_EQ(csb.nnz(), coo.nnz());

  // BlockView invariants: segments cover each block exactly, rows strictly
  // increase, columns strictly increase within a segment, and everything
  // stays inside the (possibly short) block.
  index_t seg_nnz_total = 0;
  index_t nonempty = 0;
  for (index_t bi = 0; bi < csb.block_rows(); ++bi) {
    for (index_t bj = 0; bj < csb.block_cols(); ++bj) {
      const Csb::BlockView v = csb.block_view(bi, bj);
      ASSERT_EQ(v.nnz, csb.block_nnz(bi, bj));
      if (v.nnz > 0) ++nonempty;
      std::int64_t next_begin = v.first;
      std::int32_t prev_row = -1;
      std::int64_t seg_sum = 0;
      for (const Csb::RowSegment& seg : v.segments) {
        ASSERT_GT(seg.count, 0);
        ASSERT_GT(seg.row, prev_row);
        prev_row = seg.row;
        ASSERT_LT(static_cast<index_t>(seg.row), csb.rows_in_block(bi));
        ASSERT_EQ(seg.begin, next_begin);
        next_begin += seg.count;
        index_t prev_col = -1;
        for (std::int64_t t = seg.begin; t < seg.begin + seg.count; ++t) {
          const index_t c = v.col(t);
          ASSERT_GT(c, prev_col);
          prev_col = c;
          ASSERT_LT(c, csb.cols_in_block(bj));
        }
        seg_sum += seg.count;
      }
      ASSERT_EQ(seg_sum, v.nnz);
      seg_nnz_total += static_cast<index_t>(seg_sum);
    }
  }
  ASSERT_EQ(seg_nnz_total, csb.nnz());
  ASSERT_EQ(nonempty, csb.nonempty_blocks());

  support::Xoshiro256 rng(static_cast<std::uint64_t>(block) * 7919 + 1);

  // SpMV against the CSR reference.
  std::vector<double> x(static_cast<std::size_t>(csb.cols()));
  for (double& v : x) v = rng.uniform(-1, 1);
  std::vector<double> y(static_cast<std::size_t>(csb.rows()), 0.0);
  for (index_t bi = 0; bi < csb.block_rows(); ++bi) {
    for (index_t bj = 0; bj < csb.block_cols(); ++bj) {
      if (!csb.block_empty(bi, bj)) csb_block_spmv(csb, bi, bj, x, y);
    }
  }
  std::vector<double> ref(static_cast<std::size_t>(csb.rows()));
  csr_spmv_range(csr, x, ref, 0, csr.rows());
  for (std::size_t i = 0; i < y.size(); ++i) {
    ASSERT_NEAR(y[i], ref[i], 1e-10) << "spmv row " << i;
  }

  // SpMM for every specialized width and the generic tail.
  for (const index_t n : {1, 3, 4, 5, 8, 16}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    la::DenseMatrix xm(csb.cols(), n);
    xm.fill_random(rng);
    la::DenseMatrix ym(csb.rows(), n);
    for (index_t bi = 0; bi < csb.block_rows(); ++bi) {
      csb_block_zero(csb, bi, ym.view());
      for (index_t bj = 0; bj < csb.block_cols(); ++bj) {
        if (!csb.block_empty(bi, bj)) {
          csb_block_spmm(csb, bi, bj, xm.view(), ym.view());
        }
      }
    }
    la::DenseMatrix refm(csb.rows(), n);
    csr_spmm_range(csr, xm.view(), refm.view(), 0, csr.rows());
    for (index_t i = 0; i < csb.rows(); ++i) {
      for (index_t j = 0; j < n; ++j) {
        ASSERT_NEAR(ym.at(i, j), refm.at(i, j), 1e-10)
            << "spmm (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(Csb, RandomizedKernelsMatchCsrAcrossBlockSizes) {
  // Banded: many empty off-band blocks. 97 rows: non-divisible for every
  // block size here, and block=16 leaves a 1-row last block (97 = 6*16+1).
  Coo banded = gen_banded_random(97, 9, 0.5, 101);
  for (const index_t block : {1, 7, 16, 17, 50, 128}) {
    expect_csb_matches_csr(banded, block);
  }
  // Skewed (R-MAT): dense hub rows, long row segments, irregular blocks.
  Coo rmat = gen_rmat(6, 7, 0.57, 0.19, 0.19, 103);
  for (const index_t block : {3, 13, 64}) {
    expect_csb_matches_csr(rmat, block);
  }
}

TEST(Csb, WideBlockFallsBackTo32BitCoords) {
  // block_size > 65536 cannot pack local columns into 16 bits; the layout
  // must switch to the 32-bit coordinate stream and still agree with CSR.
  Coo coo = gen_banded_random(120, 11, 0.6, 107);
  Csb narrow = Csb::from_coo(coo, 64);
  EXPECT_TRUE(narrow.packed_coords());
  EXPECT_EQ(narrow.entry_bytes(), sizeof(double) + sizeof(std::uint16_t));
  Csb wide = Csb::from_coo(coo, 70000);
  EXPECT_FALSE(wide.packed_coords());
  EXPECT_EQ(wide.entry_bytes(), sizeof(double) + sizeof(std::uint32_t));
  expect_csb_matches_csr(coo, 70000);
}

TEST(Csb, BytesPerNnzReflectsPackedLayout) {
  Coo coo = gen_fem3d(6, 6, 6, 1, 109);
  Csb csb = Csb::from_coo(coo, 64);
  // 10 bytes value+coord; the row-segment index adds a few more, but the
  // total must stay well under the 16-byte AoS entry it replaced.
  EXPECT_GE(csb.bytes_per_nnz(), 10.0);
  EXPECT_LT(csb.bytes_per_nnz(), 16.0);
}

TEST(Csb, NonemptyBlockCountsAndStats) {
  Coo coo(8, 8);
  coo.add(0, 0, 1.0);
  coo.add(7, 7, 1.0);
  Csb csb = Csb::from_coo(coo, 4);
  EXPECT_EQ(csb.nonempty_blocks(), 2);
  const BlockingStats st = compute_blocking_stats(csb);
  EXPECT_EQ(st.total_blocks, 4);
  EXPECT_DOUBLE_EQ(st.empty_fraction, 0.5);
  EXPECT_EQ(st.max_block_nnz, 1);
}

// --- Builders against a sort-based oracle ---------------------------------
// The oracle is the earlier sort-based construction: std::sort the
// triplets, sum runs of equal coordinates, scatter into blocks by a counting
// pass and std::sort every block by local (row, col). The O(nnz) builders
// must reproduce its arrays byte for byte.

bool oracle_coord_less(const Triplet& a, const Triplet& b) {
  return a.row != b.row ? a.row < b.row : a.col < b.col;
}

std::vector<Triplet> oracle_finalize(std::vector<Triplet> e) {
  std::sort(e.begin(), e.end(), oracle_coord_less);
  std::vector<Triplet> out;
  for (std::size_t i = 0; i < e.size();) {
    Triplet merged = e[i];
    std::size_t j = i + 1;
    for (; j < e.size() && e[j].row == merged.row && e[j].col == merged.col;
         ++j) {
      merged.value += e[j].value;
    }
    out.push_back(merged);
    i = j;
  }
  return out;
}

struct OracleCsb {
  std::vector<std::int64_t> blkptr;
  std::vector<Csb::RowSegment> segments;
  std::vector<double> values;
  std::vector<std::uint32_t> cols;
  index_t nonempty = 0;
};

OracleCsb oracle_csb(const Coo& coo, index_t block) {
  const std::vector<Triplet> e = oracle_finalize(coo.entries());
  const index_t nbr = (coo.rows() + block - 1) / block;
  const index_t nbc = (coo.cols() + block - 1) / block;
  const auto nblocks = static_cast<std::size_t>(nbr * nbc);
  auto block_of = [&](const Triplet& t) {
    return static_cast<std::size_t>(t.row / block * nbc + t.col / block);
  };
  OracleCsb o;
  o.blkptr.assign(nblocks + 1, 0);
  for (const Triplet& t : e) ++o.blkptr[block_of(t) + 1];
  for (std::size_t k = 0; k < nblocks; ++k) o.blkptr[k + 1] += o.blkptr[k];
  std::vector<Triplet> local(e.size());
  std::vector<std::int64_t> cursor(o.blkptr.begin(), o.blkptr.end() - 1);
  for (const Triplet& t : e) {
    local[static_cast<std::size_t>(cursor[block_of(t)]++)] = {
        static_cast<std::int32_t>(t.row % block),
        static_cast<std::int32_t>(t.col % block), t.value};
  }
  for (std::size_t k = 0; k < nblocks; ++k) {
    std::sort(local.begin() + o.blkptr[k], local.begin() + o.blkptr[k + 1],
              oracle_coord_less);
    if (o.blkptr[k + 1] > o.blkptr[k]) ++o.nonempty;
    for (std::int64_t t = o.blkptr[k]; t < o.blkptr[k + 1];) {
      const std::int64_t begin = t;
      const std::int32_t row = local[static_cast<std::size_t>(t)].row;
      while (t < o.blkptr[k + 1] &&
             local[static_cast<std::size_t>(t)].row == row) {
        ++t;
      }
      o.segments.push_back({begin, row, static_cast<std::int32_t>(t - begin)});
    }
  }
  for (const Triplet& t : local) {
    o.values.push_back(t.value);
    o.cols.push_back(static_cast<std::uint32_t>(t.col));
  }
  return o;
}

template <typename T>
bool same_bytes(std::span<const T> a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

void expect_csr_matches_oracle(const Coo& coo) {
  const Csr csr = Csr::from_coo(coo);
  const std::vector<Triplet> e = oracle_finalize(coo.entries());
  std::vector<std::int64_t> rowptr(static_cast<std::size_t>(coo.rows()) + 1);
  std::vector<std::int32_t> colidx;
  std::vector<double> values;
  for (const Triplet& t : e) {
    ++rowptr[static_cast<std::size_t>(t.row) + 1];
    colidx.push_back(t.col);
    values.push_back(t.value);
  }
  for (std::size_t r = 0; r + 1 < rowptr.size(); ++r) {
    rowptr[r + 1] += rowptr[r];
  }
  EXPECT_EQ(csr.rows(), coo.rows());
  EXPECT_EQ(csr.cols(), coo.cols());
  EXPECT_TRUE(same_bytes(csr.rowptr(), rowptr));
  EXPECT_TRUE(same_bytes(csr.colidx(), colidx));
  EXPECT_TRUE(same_bytes(csr.values(), values));
}

void expect_csb_matches_oracle(const Coo& coo, index_t block) {
  SCOPED_TRACE("block=" + std::to_string(block) + " shape=" +
               std::to_string(coo.rows()) + "x" + std::to_string(coo.cols()));
  const Csb csb = Csb::from_csr(Csr::from_coo(coo), block);
  const OracleCsb o = oracle_csb(coo, block);
  EXPECT_TRUE(same_bytes(csb.blkptr(), o.blkptr));
  EXPECT_TRUE(same_bytes(csb.segments(), o.segments));
  EXPECT_TRUE(same_bytes(csb.values(), o.values));
  EXPECT_EQ(csb.nonempty_blocks(), o.nonempty);
  EXPECT_EQ(csb.packed_coords(), block <= 65536);
  ASSERT_EQ(static_cast<std::size_t>(csb.nnz()), o.cols.size());
  if (csb.nnz() > 0) {
    const Csb::BlockView v = csb.block_view(0, 0); // bases of global arrays
    for (std::size_t t = 0; t < o.cols.size(); ++t) {
      ASSERT_EQ(v.col(static_cast<std::int64_t>(t)),
                static_cast<index_t>(o.cols[t]))
          << "entry " << t;
    }
  }
  // The COO path is the same construction.
  const Csb via_coo = Csb::from_coo(coo, block);
  EXPECT_TRUE(same_bytes(via_coo.values(), o.values));
  EXPECT_TRUE(same_bytes(via_coo.segments(), o.segments));
}

TEST(Builders, CsbMatchesSortOracleAcrossBlockSizes) {
  const Coo banded = gen_banded_random(97, 9, 0.5, 131);
  for (const index_t block : {1, 7, 17, 97, 200}) {
    expect_csb_matches_oracle(banded, block);
  }
  const Coo rmat = gen_rmat(7, 6, 0.57, 0.19, 0.19, 137);
  for (const index_t block : {1, 7, 17, 128, 1000}) {
    expect_csb_matches_oracle(rmat, block);
  }
}

TEST(Builders, CsbMatchesSortOracleWith32BitCoords) {
  // 70000 rows: blocks wider than 65536 store 32-bit local columns; 65536
  // is the widest block whose columns still pack into 16 bits.
  const Coo wide = gen_banded_random(70000, 2, 0.5, 139);
  for (const index_t block : {65536, 65537, 70000, 100000}) {
    expect_csb_matches_oracle(wide, block);
  }
}

TEST(Builders, EmptyRowsZeroNnzAndRectangular) {
  Coo sparse_rows(50, 50);
  for (index_t r = 0; r < 50; r += 3) {
    sparse_rows.add(r, (r * 7) % 50, 1.0 + static_cast<double>(r));
    sparse_rows.add(r, (r * 11 + 5) % 50, -2.0);
  }
  const Coo empty(10, 10);
  const Coo nothing(0, 0);
  Coo rect(40, 73);
  support::Xoshiro256 rng(141);
  for (int k = 0; k < 300; ++k) {
    rect.add(static_cast<index_t>(rng.below(40)),
             static_cast<index_t>(rng.below(73)), rng.uniform(-1.0, 1.0));
  }
  Coo tall(73, 40);
  for (const Triplet& t : rect.entries()) tall.add(t.col, t.row, t.value);
  for (const Coo* coo :
       std::initializer_list<const Coo*>{&sparse_rows, &empty, &nothing,
                                         &rect, &tall}) {
    expect_csr_matches_oracle(*coo);
    for (const index_t block : {1, 7, 17, 64}) {
      expect_csb_matches_oracle(*coo, block);
    }
  }
  EXPECT_EQ(Csb::from_coo(empty, 4).nonempty_blocks(), 0);
  EXPECT_EQ(Csb::from_coo(nothing, 4).block_rows(), 0);
}

TEST(Builders, CsrFromShuffledCooWithDuplicatesMatchesOracle) {
  Coo coo = gen_fem3d(5, 5, 5, 1, 149);
  support::Xoshiro256 rng(151);
  // Dyadic values sum exactly in any order, so the oracle's unstable sort
  // and the builder's input-order sums must agree bit for bit.
  for (Triplet& t : coo.entries()) {
    t.value = static_cast<double>(rng.below(64)) * 0.25 - 8.0;
  }
  const std::size_t n = coo.entries().size();
  for (std::size_t i = 0; i < n; i += 3) {
    coo.entries().push_back(coo.entries()[i]);
    if (i % 2 == 0) coo.entries().push_back(coo.entries()[i]);
  }
  auto& e = coo.entries();
  for (std::size_t i = e.size() - 1; i > 0; --i) {
    std::swap(e[i], e[static_cast<std::size_t>(rng.below(i + 1))]);
  }
  expect_csr_matches_oracle(coo);
  expect_csb_matches_oracle(coo, 16);
  Coo finalized = coo;
  finalized.finalize();
  EXPECT_EQ(finalized.entries(), oracle_finalize(coo.entries()));
}

TEST(Builders, DuplicatesSumInInputOrder) {
  // 1e16 + 1 rounds back to 1e16, so summed in input order the copies
  // below cancel to 0; summed in almost any other order the ones survive.
  // The row has 100 copies and is out of order, so an unstable column sort
  // would be free to shuffle them.
  Coo coo(2, 8);
  coo.add(0, 3, 5.0);
  std::vector<double> copies(100, 1.0);
  copies.front() = 1e16;
  copies.back() = -1e16;
  double expected = 0.0;
  for (const double v : copies) {
    coo.add(1, 5, v);
    expected += v;
  }
  coo.add(1, 2, 7.0);
  const Csr csr = Csr::from_coo(coo);
  ASSERT_EQ(csr.nnz(), 3);
  EXPECT_EQ(csr.colidx()[2], 5);
  EXPECT_EQ(csr.values()[2], expected);
  coo.finalize();
  EXPECT_EQ(coo.entries()[2], (Triplet{1, 5, expected}));
}

TEST(Builders, FinalizeLeavesFinalizedCooUnchanged) {
  for (Coo coo : {gen_fem3d(4, 4, 4, 1, 157), gen_rmat(6, 5, 0.57, 0.19,
                                                       0.19, 163)}) {
    const std::vector<Triplet> before = coo.entries();
    coo.finalize();
    EXPECT_EQ(coo.entries(), before);
  }
}

TEST(MatrixMarket, RoundTripsGeneral) {
  Coo coo(3, 4);
  coo.add(0, 1, 1.5);
  coo.add(2, 3, -2.0);
  coo.finalize();
  std::stringstream ss;
  write_matrix_market(ss, coo, false);
  Coo back = read_matrix_market(ss);
  EXPECT_EQ(back.rows(), 3);
  EXPECT_EQ(back.cols(), 4);
  EXPECT_EQ(back.entries(), coo.entries());
}

TEST(MatrixMarket, ExpandsSymmetricFiles) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate real symmetric\n"
     << "% comment line\n"
     << "2 2 2\n"
     << "1 1 1.0\n"
     << "2 1 5.0\n";
  Coo coo = read_matrix_market(ss);
  EXPECT_EQ(coo.nnz(), 3);
  EXPECT_TRUE(coo.is_symmetric());
}

TEST(MatrixMarket, ReadsPatternFiles) {
  std::stringstream ss;
  ss << "%%MatrixMarket matrix coordinate pattern general\n"
     << "2 2 1\n"
     << "2 2\n";
  Coo coo = read_matrix_market(ss);
  ASSERT_EQ(coo.nnz(), 1);
  EXPECT_EQ(coo.entries()[0].value, 1.0);
}

TEST(MatrixMarket, RejectsMalformedInput) {
  std::stringstream bad1("not a banner\n");
  EXPECT_THROW((void)read_matrix_market(bad1), support::Error);
  std::stringstream bad2(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 5 1.0\n");
  EXPECT_THROW((void)read_matrix_market(bad2), support::Error);
}

/// what() of the support::Error thrown when parsing `text`.
std::string mm_error(const std::string& text) {
  std::stringstream ss(text);
  try {
    (void)read_matrix_market(ss);
  } catch (const support::Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected support::Error for: " << text;
  return {};
}

TEST(MatrixMarket, RejectsNegativeAndOversizedHeaders) {
  EXPECT_NE(mm_error("%%MatrixMarket matrix coordinate real general\n"
                     "-2 2 1\n1 1 1.0\n")
                .find("negative"),
            std::string::npos);
  EXPECT_NE(mm_error("%%MatrixMarket matrix coordinate real general\n"
                     "2 2 -1\n")
                .find("negative"),
            std::string::npos);
  // 2^33 rows: exceeds the 32-bit triplet index range.
  EXPECT_NE(mm_error("%%MatrixMarket matrix coordinate real general\n"
                     "8589934592 2 1\n1 1 1.0\n")
                .find("32-bit"),
            std::string::npos);
  // More entries than the matrix has cells.
  EXPECT_NE(mm_error("%%MatrixMarket matrix coordinate real general\n"
                     "2 2 5\n1 1 1.0\n1 2 1.0\n2 1 1.0\n2 2 1.0\n1 1 1.0\n")
                .find("capacity"),
            std::string::npos);
}

TEST(MatrixMarket, RejectsComplexFieldWithSpecificMessage) {
  EXPECT_NE(mm_error("%%MatrixMarket matrix coordinate complex general\n"
                     "2 2 1\n1 1 1.0 0.0\n")
                .find("complex"),
            std::string::npos);
}

TEST(MatrixMarket, ErrorsNameTheOffendingEntry) {
  // Second of three entries is out of range.
  const std::string msg =
      mm_error("%%MatrixMarket matrix coordinate real general\n"
               "2 2 3\n1 1 1.0\n5 1 2.0\n2 2 3.0\n");
  EXPECT_NE(msg.find("entry 2 of 3"), std::string::npos);
  EXPECT_NE(msg.find("(5, 1)"), std::string::npos);
  // Truncated after the first of two entries.
  EXPECT_NE(mm_error("%%MatrixMarket matrix coordinate real general\n"
                     "2 2 2\n1 1 1.0\n")
                .find("entry 2 of 2"),
            std::string::npos);
  // Pattern-style entry in a real file: the value is missing.
  EXPECT_NE(mm_error("%%MatrixMarket matrix coordinate real general\n"
                     "2 2 1\n1 1\n")
                .find("missing value"),
            std::string::npos);
}

TEST(MatrixMarket, AcceptsCrlfLineEndings) {
  std::stringstream ss("%%MatrixMarket matrix coordinate real general\r\n"
                       "% written on Windows\r\n"
                       "2 2 2\r\n"
                       "1 1 1.5\r\n"
                       "2 2 2.5\r\n");
  Coo coo = read_matrix_market(ss);
  EXPECT_EQ(coo.rows(), 2);
  ASSERT_EQ(coo.nnz(), 2);
  EXPECT_EQ(coo.entries()[0].value, 1.5);
  EXPECT_EQ(coo.entries()[1].value, 2.5);
}

class GeneratorSymmetryTest
    : public ::testing::TestWithParam<std::function<Coo()>> {};

TEST_P(GeneratorSymmetryTest, ProducesSymmetricSquareMatrix) {
  Coo coo = GetParam()();
  EXPECT_EQ(coo.rows(), coo.cols());
  EXPECT_GT(coo.nnz(), 0);
  EXPECT_TRUE(coo.is_symmetric(0.0));
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, GeneratorSymmetryTest,
    ::testing::Values([] { return gen_fem3d(6, 5, 4, 1, 1); },
                      [] { return gen_saddle_kkt(300, 100, 3, 2); },
                      [] { return gen_rmat(9, 8, 0.57, 0.19, 0.19, 3); },
                      [] { return gen_block_random(20, 8, 0.2, 0.6, 4); },
                      [] { return gen_banded_random(200, 12, 0.4, 5); },
                      [] { return gen_hub_trace(500, 8, 2.1, 6); }));

TEST(Generators, Fem3dHasStencilDegree) {
  Coo coo = gen_fem3d(10, 10, 10, 1, 7);
  EXPECT_EQ(coo.rows(), 1000);
  const MatrixStats st = compute_stats(Csr::from_coo(coo));
  // Interior nodes have 27 couplings (26 neighbors + diagonal).
  EXPECT_EQ(st.max_row_nnz, 27);
  EXPECT_GT(st.avg_row_nnz, 15.0);
  EXPECT_LT(st.relative_bandwidth, 0.2); // strongly banded
}

TEST(Generators, RmatIsSkewed) {
  Coo coo = gen_rmat(11, 8, 0.57, 0.19, 0.19, 8);
  const MatrixStats st = compute_stats(Csr::from_coo(coo));
  // Power-law: max degree far above average.
  EXPECT_GT(static_cast<double>(st.max_row_nnz), 8.0 * st.avg_row_nnz);
  EXPECT_GT(st.row_nnz_cv, 1.0);
}

TEST(Generators, HubTraceIsUltraSparse) {
  Coo coo = gen_hub_trace(5000, 16, 2.1, 9);
  const MatrixStats st = compute_stats(Csr::from_coo(coo));
  EXPECT_LT(st.avg_row_nnz, 5.0);
  EXPECT_GT(st.max_row_nnz, 100); // hubs
}

TEST(Generators, Deterministic) {
  Coo a = gen_rmat(8, 4, 0.57, 0.19, 0.19, 5);
  Coo b = gen_rmat(8, 4, 0.57, 0.19, 0.19, 5);
  EXPECT_EQ(a.entries(), b.entries());
}

TEST(Suite, HasAllFifteenPaperMatrices) {
  const auto& suite = paper_suite();
  ASSERT_EQ(suite.size(), 15u);
  EXPECT_EQ(suite.front().name, "inline_1");
  EXPECT_EQ(suite.back().name, "mawi_201512020130");
  // Paper Table 1 ordering: rows ascending.
  for (std::size_t i = 1; i < suite.size(); ++i) {
    EXPECT_GT(suite[i].paper_rows, suite[i - 1].paper_rows);
  }
}

TEST(Suite, GeneratesScaledSymmetricMatrices) {
  const SuiteEntry& entry = suite_entry("nlpkkt160");
  Coo coo = entry.make(0.05);
  EXPECT_TRUE(coo.is_symmetric(0.0));
  EXPECT_GT(coo.rows(), 1000);
  EXPECT_THROW((void)suite_entry("no_such_matrix"), support::Error);
}

TEST(Suite, DefaultSubsetIsValid) {
  for (const std::string& name : default_bench_subset()) {
    EXPECT_NO_THROW((void)suite_entry(name));
  }
}

TEST(Stats, ComputesRowStatistics) {
  Coo coo(3, 3);
  coo.add(0, 0, 1.0);
  coo.add(0, 1, 1.0);
  coo.add(0, 2, 1.0);
  coo.add(1, 1, 1.0);
  const MatrixStats st = compute_stats(Csr::from_coo(coo));
  EXPECT_EQ(st.nnz, 4);
  EXPECT_EQ(st.max_row_nnz, 3);
  EXPECT_EQ(st.min_row_nnz, 0);
  EXPECT_NEAR(st.avg_row_nnz, 4.0 / 3.0, 1e-12);
}

} // namespace
} // namespace sts::sparse
