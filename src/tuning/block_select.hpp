// CSB block-size selection: the paper's tuning heuristic (section 5.4).
//
// The optimal block size always yields a per-dimension block count between
// 8 and 511; selection therefore reduces to comparing six candidate block
// sizes, one per power-of-two bucket of block counts (8-15, 16-31, ...,
// 256-511). The paper's rule of thumb picks a default bucket per runtime
// and machine size.
#pragma once

#include <string>
#include <vector>

#include "solvers/common.hpp"

namespace sts::tune {

using la::index_t;

struct Bucket {
  index_t lo = 0; // inclusive block-count range
  index_t hi = 0;
  [[nodiscard]] std::string label() const {
    return std::to_string(lo) + "-" + std::to_string(hi);
  }
};

/// The six buckets of the paper's heuristic: 8-15 ... 256-511.
[[nodiscard]] std::vector<Bucket> heuristic_buckets();

/// Smallest block size whose block count ceil(rows / size) falls in
/// [bucket.lo, bucket.hi]; returns 0 if the matrix is too small for the
/// bucket (block count cannot reach lo even with size 1).
[[nodiscard]] index_t block_size_for_bucket(index_t rows,
                                            const Bucket& bucket);

/// Block size giving approximately `count` blocks per dimension.
[[nodiscard]] index_t block_size_for_count(index_t rows, index_t count);

/// The brute-force sweep grid the paper searched: powers of two from 2^10
/// to 2^24, clipped to sizes that give at least 2 blocks.
[[nodiscard]] std::vector<index_t> sweep_block_sizes(index_t rows);

/// The paper's rule of thumb (section 5.4): DeepSparse and HPX want 32-63
/// blocks on a ~28-core multicore and 64-127 on a ~128-core manycore;
/// Regent prefers coarse 16-31 blocks. Below 8 cores, a tier measured on
/// this code gives ds, flux and rgt 8-15 blocks; the BSP versions keep
/// their buckets.
[[nodiscard]] Bucket recommended_bucket(solver::Version version,
                                        unsigned cores);

/// Convenience: recommended block size for a matrix on a machine.
[[nodiscard]] index_t recommended_block_size(solver::Version version,
                                             unsigned cores, index_t rows);

} // namespace sts::tune
