#include "tuning/block_select.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace sts::tune {

std::vector<Bucket> heuristic_buckets() {
  return {{8, 15}, {16, 31}, {32, 63}, {64, 127}, {128, 255}, {256, 511}};
}

index_t block_size_for_bucket(index_t rows, const Bucket& bucket) {
  STS_EXPECTS(rows > 0 && bucket.lo > 0 && bucket.hi >= bucket.lo);
  if (rows < bucket.lo) return 0; // cannot produce that many blocks
  // Aim at the bucket midpoint; any size with count in range is valid.
  const index_t target = (bucket.lo + bucket.hi) / 2;
  index_t size = std::max<index_t>(1, rows / target);
  auto count = [&](index_t s) { return (rows + s - 1) / s; };
  // Nudge into range (ceil-division wobbles near bucket edges).
  while (count(size) > bucket.hi) ++size;
  while (size > 1 && count(size - 1) >= bucket.lo &&
         count(size) < bucket.lo) {
    --size;
  }
  return count(size) >= bucket.lo && count(size) <= bucket.hi ? size : 0;
}

index_t block_size_for_count(index_t rows, index_t count) {
  STS_EXPECTS(rows > 0 && count > 0);
  return std::max<index_t>(1, (rows + count - 1) / count);
}

std::vector<index_t> sweep_block_sizes(index_t rows) {
  std::vector<index_t> sizes;
  for (index_t size = index_t{1} << 10; size <= (index_t{1} << 24);
       size <<= 1) {
    if ((rows + size - 1) / size >= 2) sizes.push_back(size);
  }
  if (sizes.empty()) sizes.push_back(std::max<index_t>(1, rows / 2));
  return sizes;
}

Bucket recommended_bucket(solver::Version version, unsigned cores) {
  const bool manycore = cores >= 64;
  // Measured natively at 2-4 workers (DESIGN.md section 2, item 7): with
  // few workers, per-task runtime cost outweighs the load balance that
  // finer blocks buy. From 8 cores up the paper's buckets stand; 8-27
  // cores are unmeasured.
  const bool small_machine = cores < 8;
  switch (version) {
    case solver::Version::kRgt:
      return small_machine ? Bucket{8, 15} : Bucket{16, 31};
    case solver::Version::kDs:
    case solver::Version::kFlux:
      if (small_machine) return {8, 15};
      return manycore ? Bucket{64, 127} : Bucket{32, 63};
    case solver::Version::kLibCsr:
    case solver::Version::kLibCsb:
      // BSP versions are far less sensitive; a task-per-thread-ish chunk
      // works well.
      return manycore ? Bucket{128, 255} : Bucket{32, 63};
  }
  return {32, 63};
}

index_t recommended_block_size(solver::Version version, unsigned cores,
                               index_t rows) {
  const Bucket bucket = recommended_bucket(version, cores);
  const index_t size = block_size_for_bucket(rows, bucket);
  return size > 0 ? size : std::max<index_t>(1, rows / 8);
}

} // namespace sts::tune
