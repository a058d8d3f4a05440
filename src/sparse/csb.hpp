// Compressed Sparse Blocks (CSB) storage [Buluc et al., SPAA'09].
//
// CSB is the partitioning that defines tasks in all three task-parallel
// frameworks evaluated by the paper: the matrix is tiled into b x b blocks;
// blkptr indexes the (block-row-major) grid of blocks. A task operates on
// exactly one non-empty block, reading input-vector block j and updating
// output-vector block i.
//
// Block-internal layout (the hot-loop format): each block is stored in
// struct-of-arrays form -- one contiguous run of values and one of packed
// block-local column coordinates (16-bit when block_size <= 65536, 32-bit
// above) -- plus a row-segment index, a mini-CSR inside the block listing
// (local row, entry range) pairs for the rows that have nonzeros. SpMV/SpMM
// inner loops walk "for each row segment: contiguous dot over x" with one
// output write per segment instead of one per nonzero, and move 10 bytes
// per nonzero (8 value + 2 coordinate) instead of the 16 a padded
// {int32 row, int32 col, double} AoS entry costs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "la/dense.hpp"
#include "sparse/csr.hpp"
#include "support/aligned.hpp"

namespace sts::sparse {

/// Immutable CSB matrix.
class Csb {
public:
  /// One row of one block: entries [begin, begin + count) of the global
  /// value/coordinate arrays all lie on block-local row `row`. Segments of a
  /// block are contiguous in `segments()` and sorted by `row` (strictly
  /// increasing), entries within a segment are sorted by column.
  struct RowSegment {
    std::int64_t begin; // absolute offset into values()/cols16()/cols32()
    std::int32_t row;   // block-local row
    std::int32_t count; // nonzeros on this row of the block
  };

  /// Borrowed view of one block's storage. `cols16` is non-null iff the
  /// matrix uses packed 16-bit coordinates (block_size() <= 65536),
  /// otherwise `cols32` is. Segment `begin` offsets index the same global
  /// arrays these pointers are bases of.
  struct BlockView {
    const double* values = nullptr;
    const std::uint16_t* cols16 = nullptr;
    const std::uint32_t* cols32 = nullptr;
    std::span<const RowSegment> segments;
    std::int64_t first = 0; // offset of the block's first entry
    std::int64_t nnz = 0;

    /// Block-local column of the entry at absolute offset `t`.
    [[nodiscard]] index_t col(std::int64_t t) const {
      return cols16 != nullptr ? static_cast<index_t>(cols16[t])
                               : static_cast<index_t>(cols32[t]);
    }
  };

  /// Contiguous block-row stripes assigned to NUMA domains. Entry d is the
  /// exclusive block-row end of domain d's stripe (stripe d covers block
  /// rows [stripe_end[d-1], stripe_end[d])); the last entry equals
  /// block_rows(). The same map drives both page placement
  /// (place_stripes) and task domain hints, so a hinted SpMV task lands on
  /// a worker of the node whose memory holds its stripe.
  struct DomainMap {
    std::vector<index_t> stripe_end;

    [[nodiscard]] int domains() const noexcept {
      return static_cast<int>(stripe_end.size());
    }
    /// Domain owning block-row `bi`: the first stripe ending past it.
    [[nodiscard]] int owner(index_t bi) const {
      const auto it =
          std::upper_bound(stripe_end.begin(), stripe_end.end(), bi);
      return it == stripe_end.end()
                 ? static_cast<int>(stripe_end.size()) - 1
                 : static_cast<int>(it - stripe_end.begin());
    }
  };

  Csb() = default;

  /// Builds from CSR with the given block size (rows per block in both
  /// dimensions) in two O(nnz + #blocks) passes: count entries and row
  /// segments per block, then scatter in CSR row order, which already is
  /// local (row, col) order inside every block. No scratch copy, no sort.
  static Csb from_csr(const Csr& csr, index_t block_size);
  /// from_csr(Csr::from_coo(coo), block_size): duplicates are summed.
  static Csb from_coo(const Coo& coo, index_t block_size);

  /// Nonzeros in block-row `bi`. O(1): the grid is block-row-major, so the
  /// row's blocks occupy one contiguous blkptr range.
  [[nodiscard]] index_t block_row_nnz(index_t bi) const {
    STS_EXPECTS(bi >= 0 && bi < nb_rows_);
    const std::size_t lo = static_cast<std::size_t>(bi) *
                           static_cast<std::size_t>(nb_cols_);
    const std::size_t hi = lo + static_cast<std::size_t>(nb_cols_);
    return static_cast<index_t>(blkptr_[hi] - blkptr_[lo]);
  }

  /// Nnz-balanced partition of the block rows into `domains` contiguous
  /// stripes (greedy prefix cut at multiples of nnz/domains). Deterministic:
  /// solvers recompute it from (matrix, domains) and get the same owners
  /// place_stripes used.
  [[nodiscard]] DomainMap partition_block_rows(unsigned domains) const;

  /// Re-materializes the value/coordinate/segment streams so each domain's
  /// stripe is copied -- and its pages therefore first-touched -- by a task
  /// running inside that domain. `submit(domain, work)` must run `work` on a
  /// worker of `domain` (e.g. flux::Scheduler::submit with a hint); `wait`
  /// must block until every submitted work item finished. Storage is
  /// aligned_alloc'd, which maps fresh untouched pages, so the copying task
  /// faults them into its node's memory. Call once, before sharing the
  /// matrix across threads.
  void place_stripes(const DomainMap& map,
                     const std::function<void(int, std::function<void()>)>& submit,
                     const std::function<void()>& wait);

  [[nodiscard]] index_t rows() const noexcept { return rows_; }
  [[nodiscard]] index_t cols() const noexcept { return cols_; }
  [[nodiscard]] index_t nnz() const noexcept {
    return static_cast<index_t>(values_.size());
  }
  [[nodiscard]] index_t block_size() const noexcept { return block_; }
  /// Blocks per dimension (row direction / column direction).
  [[nodiscard]] index_t block_rows() const noexcept { return nb_rows_; }
  [[nodiscard]] index_t block_cols() const noexcept { return nb_cols_; }

  /// Number of rows covered by block-row `bi` (the last block may be short).
  [[nodiscard]] index_t rows_in_block(index_t bi) const {
    STS_EXPECTS(bi >= 0 && bi < nb_rows_);
    return std::min(block_, rows_ - bi * block_);
  }
  [[nodiscard]] index_t cols_in_block(index_t bj) const {
    STS_EXPECTS(bj >= 0 && bj < nb_cols_);
    return std::min(block_, cols_ - bj * block_);
  }

  /// Storage of block (bi, bj); zero-nnz view if the block is empty.
  [[nodiscard]] BlockView block_view(index_t bi, index_t bj) const {
    const std::size_t k = block_id(bi, bj);
    BlockView v;
    v.values = values_.data();
    if (packed_) {
      v.cols16 = cols16_.data();
    } else {
      v.cols32 = cols32_.data();
    }
    v.segments = {segs_.data() + segptr_[k],
                  static_cast<std::size_t>(segptr_[k + 1] - segptr_[k])};
    v.first = blkptr_[k];
    v.nnz = blkptr_[k + 1] - blkptr_[k];
    return v;
  }

  [[nodiscard]] index_t block_nnz(index_t bi, index_t bj) const {
    const std::size_t k = block_id(bi, bj);
    return static_cast<index_t>(blkptr_[k + 1] - blkptr_[k]);
  }
  [[nodiscard]] bool block_empty(index_t bi, index_t bj) const {
    return block_nnz(bi, bj) == 0;
  }

  /// Count of non-empty blocks (== SpMV/SpMM task count per iteration).
  /// Cached at construction; O(1).
  [[nodiscard]] index_t nonempty_blocks() const noexcept { return nonempty_; }

  /// True when coordinates are stored as 16-bit (block_size() <= 65536).
  [[nodiscard]] bool packed_coords() const noexcept { return packed_; }
  /// Bytes per nonzero for the value + coordinate streams (excludes the
  /// per-row-segment index; see bytes_per_nnz for the all-in figure).
  [[nodiscard]] std::size_t entry_bytes() const noexcept {
    return sizeof(double) + (packed_ ? sizeof(std::uint16_t)
                                     : sizeof(std::uint32_t));
  }
  /// Total matrix bytes (values + coordinates + row segments) per nonzero.
  [[nodiscard]] double bytes_per_nnz() const noexcept {
    if (values_.empty()) return 0.0;
    const double bytes =
        static_cast<double>(values_.size() * entry_bytes() +
                            segs_.size() * sizeof(RowSegment));
    return bytes / static_cast<double>(values_.size());
  }

  [[nodiscard]] std::span<const std::int64_t> blkptr() const noexcept {
    return blkptr_;
  }
  [[nodiscard]] std::span<const RowSegment> segments() const noexcept {
    return {segs_.data(), segs_.size()};
  }
  [[nodiscard]] std::span<const double> values() const noexcept {
    return {values_.data(), values_.size()};
  }

  [[nodiscard]] Coo to_coo() const;

  /// Heap bytes held by the partition (block/segment indices + value and
  /// coordinate streams); the service-layer plan cache budgets against
  /// csr.memory_bytes() + csb.memory_bytes() per cached plan.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return blkptr_.size() * sizeof(std::int64_t) +
           segptr_.size() * sizeof(std::int64_t) +
           segs_.size() * sizeof(RowSegment) +
           values_.size() * sizeof(double) +
           cols16_.size() * sizeof(std::uint16_t) +
           cols32_.size() * sizeof(std::uint32_t);
  }

private:
  /// Block ids index an nb_rows_ x nb_cols_ grid; the product is formed in
  /// std::size_t *before* any arithmetic so wide grids cannot overflow an
  /// intermediate narrower multiply.
  [[nodiscard]] std::size_t block_id(index_t bi, index_t bj) const {
    STS_EXPECTS(bi >= 0 && bi < nb_rows_ && bj >= 0 && bj < nb_cols_);
    return static_cast<std::size_t>(bi) * static_cast<std::size_t>(nb_cols_) +
           static_cast<std::size_t>(bj);
  }

  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t block_ = 0;
  index_t nb_rows_ = 0;
  index_t nb_cols_ = 0;
  index_t nonempty_ = 0;
  bool packed_ = true;
  // The hot streams live in AlignedBuffers (not vectors) deliberately:
  // aligned_alloc maps pages without faulting them, which is what lets
  // place_stripes() first-touch each stripe from its owning NUMA domain —
  // a vector's value-initializing resize would fault every page on the
  // constructing thread and pin the whole matrix to one node. The index
  // arrays (blkptr_/segptr_) stay vectors: cold, read by everyone.
  std::vector<std::int64_t> blkptr_; // nb_rows_*nb_cols_ + 1 entry offsets
  std::vector<std::int64_t> segptr_; // nb_rows_*nb_cols_ + 1 segment offsets
  support::AlignedBuffer<RowSegment> segs_;      // row segments, block-major
  support::AlignedBuffer<double> values_;        // SoA: values, block-major
  support::AlignedBuffer<std::uint16_t> cols16_; // SoA: packed local columns
  support::AlignedBuffer<std::uint32_t> cols32_; // SoA: wide local columns
};

/// y_block[bi] += A(bi,bj) * x_block[bj] for a single block (SpMV body).
/// `x`/`y` are the *full* vectors; the block offsets are applied here.
void csb_block_spmv(const Csb& a, index_t bi, index_t bj,
                    std::span<const double> x, std::span<double> y);

/// Y_block[bi] += A(bi,bj) * X_block[bj] for vector blocks (SpMM body).
void csb_block_spmm(const Csb& a, index_t bi, index_t bj,
                    la::ConstMatrixView x, la::MatrixView y);

/// Zeroes y rows belonging to block-row bi (tasks accumulate, so each
/// output block is cleared by its first task or an explicit zero task).
void csb_block_zero(const Csb& a, index_t bi, std::span<double> y);
void csb_block_zero(const Csb& a, index_t bi, la::MatrixView y);

} // namespace sts::sparse
