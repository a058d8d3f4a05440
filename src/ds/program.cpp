#include "ds/program.hpp"

#include <algorithm>

namespace sts::ds {

namespace {
using graph::Access;
using graph::KernelKind;
using graph::Task;
} // namespace

Program::Program(const sparse::Csb* a, Config config)
    : a_(a), config_(config),
      np_((a->rows() + a->block_size() - 1) / a->block_size()) {
  STS_EXPECTS(a != nullptr && a->rows() == a->cols());
  const std::uint64_t matrix_bytes =
      static_cast<std::uint64_t>(a->nnz()) * a->entry_bytes();
  a_id_ = builder_.register_data("A", 1, matrix_bytes);
  records_.push_back(
      {DataRecord::Kind::kMatrix, nullptr, nullptr, matrix_bytes});
}

const Program::DataRecord& Program::record(DataId id) const {
  STS_EXPECTS(id >= 0 && static_cast<std::size_t>(id) < records_.size());
  return records_[static_cast<std::size_t>(id)];
}

DataId Program::vec(std::string name, la::DenseMatrix* storage) {
  STS_EXPECTS(storage != nullptr && storage->rows() == a_->rows());
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(storage->size()) * sizeof(double);
  const DataId id = builder_.register_data(std::move(name),
                                           static_cast<std::int32_t>(np_),
                                           bytes);
  records_.push_back({DataRecord::Kind::kVec, storage, nullptr, bytes});
  return id;
}

DataId Program::small(std::string name, la::DenseMatrix* storage) {
  STS_EXPECTS(storage != nullptr);
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(storage->size()) * sizeof(double);
  const DataId id = builder_.register_data(std::move(name), 1, bytes);
  records_.push_back({DataRecord::Kind::kSmall, storage, nullptr, bytes});
  return id;
}

DataId Program::scalar(std::string name, double* value) {
  STS_EXPECTS(value != nullptr);
  const DataId id = builder_.register_data(std::move(name), 1, sizeof(double));
  records_.push_back({DataRecord::Kind::kScalar, nullptr, value,
                      sizeof(double)});
  return id;
}

DataId Program::alloc_internal(std::string name, index_t rows, index_t cols,
                               std::int32_t pieces) {
  internal_.push_back(std::make_unique<la::DenseMatrix>(rows, cols));
  la::DenseMatrix* storage = internal_.back().get();
  const std::uint64_t bytes =
      static_cast<std::uint64_t>(storage->size()) * sizeof(double);
  const DataId id = builder_.register_data(std::move(name), pieces, bytes);
  records_.push_back({DataRecord::Kind::kInternal, storage, nullptr, bytes});
  return id;
}

index_t Program::piece_rows(index_t p) const {
  const index_t b = a_->block_size();
  return std::min(b, a_->rows() - p * b);
}

la::MatrixView Program::piece_view(DataId id, index_t p) {
  const DataRecord& rec = record(id);
  STS_EXPECTS(rec.matrix != nullptr);
  return rec.matrix->row_block(p * a_->block_size(), piece_rows(p));
}

Access Program::vec_access(DataId id, index_t p, Access::Mode mode) const {
  const DataRecord& rec = record(id);
  const std::uint64_t row_bytes =
      static_cast<std::uint64_t>(rec.matrix->cols()) * sizeof(double);
  return {static_cast<std::uint32_t>(id),
          static_cast<std::uint64_t>(p * a_->block_size()) * row_bytes,
          static_cast<std::uint64_t>(piece_rows(p)) * row_bytes, mode};
}

Access Program::small_access(DataId id, Access::Mode mode) const {
  return {static_cast<std::uint32_t>(id), 0, record(id).bytes, mode};
}

namespace {

/// Distinct 64-byte lines of an n-column row-major *input* vector piece
/// gathered by a CSB block's column indices. Sparse CSB blocks gather only
/// a few lines of their piece; charging the whole piece would overstate
/// memory traffic by the piece/nnz ratio.
///
/// Column indices are not sorted across a block's row segments, so lines
/// are deduplicated with one stamp per line of a piece: a line is new to
/// the current block iff its stamp differs from the block's epoch. The
/// stamps are reused across the blocks of one SpMM, which makes the count
/// O(nnz) with no sort and no per-block allocation.
class InputLineCounter {
public:
  InputLineCounter(index_t block_size, index_t ncols)
      : row_bytes_(static_cast<std::uint64_t>(ncols) * sizeof(double)),
        stamp_((static_cast<std::uint64_t>(block_size) * row_bytes_ + 63) /
                   64,
               0) {}

  /// Call once per block task. The epoch cannot wrap: every call adds a
  /// task, and a graph holds fewer than 2^31 (TaskId is 32-bit).
  std::uint64_t count(const sparse::Csb::BlockView& v) {
    ++epoch_;
    return v.cols16 != nullptr ? count_lines(v.cols16 + v.first, v.nnz)
                               : count_lines(v.cols32 + v.first, v.nnz);
  }

private:
  // One loop per coordinate width, with a branch-free stamp update: the
  // new/seen test is data-dependent and would mispredict.
  template <typename Col>
  std::uint64_t count_lines(const Col* cols, std::int64_t nnz) {
    std::uint64_t distinct = 0;
    for (std::int64_t t = 0; t < nnz; ++t) {
      const std::uint64_t line =
          static_cast<std::uint64_t>(cols[t]) * row_bytes_ / 64;
      distinct += stamp_[line] != epoch_ ? 1 : 0;
      stamp_[line] = epoch_;
    }
    return distinct;
  }

  std::uint64_t row_bytes_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
};

/// Distinct 64-byte lines of the *output* vector block written by a CSB
/// block. Row segments are sorted by row, so a single pass suffices.
std::uint64_t touched_output_lines(const sparse::Csb::BlockView& v,
                                   index_t ncols) {
  const std::uint64_t row_bytes =
      static_cast<std::uint64_t>(ncols) * sizeof(double);
  std::uint64_t count = 0;
  std::uint64_t last = ~0ULL;
  for (const sparse::Csb::RowSegment& seg : v.segments) {
    const std::uint64_t line =
        static_cast<std::uint64_t>(seg.row) * row_bytes / 64;
    if (line != last) {
      ++count;
      last = line;
    }
  }
  return count;
}

/// Stride that makes a piece-range access touch ~`touched` of its lines.
std::uint32_t stride_for(std::uint64_t piece_bytes, std::uint64_t touched) {
  const std::uint64_t lines = std::max<std::uint64_t>(1, piece_bytes / 64);
  if (touched == 0) return static_cast<std::uint32_t>(lines);
  return static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1, lines / touched));
}

} // namespace

void Program::spmm(DataId x, DataId y) {
  if (config_.dependency_based_spmm) {
    spmm_dependency_based(x, y);
  } else {
    spmm_reduction_based(x, y);
  }
  ++phase_;
}

void Program::spmm_dependency_based(DataId x, DataId y) {
  const sparse::Csb& a = *a_;
  la::DenseMatrix* xm = record(x).matrix;
  la::DenseMatrix* ym = record(y).matrix;
  STS_EXPECTS(xm != nullptr && ym != nullptr && xm->cols() == ym->cols());
  const index_t n = xm->cols();
  const KernelKind kind = n == 1 ? KernelKind::kSpMV : KernelKind::kSpMM;
  InputLineCounter input_lines(a.block_size(), n);

  for (index_t bi = 0; bi < np_; ++bi) {
    Task zero;
    zero.kind = KernelKind::kZero;
    zero.bi = static_cast<std::int32_t>(bi);
    zero.phase = phase_;
    zero.accesses = {vec_access(y, bi, Access::Mode::kWrite)};
    zero.body = [ym, &a, bi] {
      sparse::csb_block_zero(a, bi, ym->view());
    };
    const DataPiece w{y, static_cast<std::int32_t>(bi)};
    builder_.add_task(std::move(zero), {}, {&w, 1});
  }
  const auto blkptr = a.blkptr();
  for (index_t bi = 0; bi < np_; ++bi) {
    for (index_t bj = 0; bj < np_; ++bj) {
      const index_t bnnz = a.block_nnz(bi, bj);
      if (bnnz == 0 && config_.skip_empty_blocks) continue;
      Task t;
      t.kind = kind;
      t.bi = static_cast<std::int32_t>(bi);
      t.bj = static_cast<std::int32_t>(bj);
      t.phase = phase_;
      t.flops = 2.0 * static_cast<double>(bnnz) * static_cast<double>(n);
      const sparse::Csb::BlockView bv = a.block_view(bi, bj);
      Access xa = vec_access(x, bj, Access::Mode::kRead);
      xa.stride_lines = stride_for(xa.bytes, input_lines.count(bv));
      Access ya = vec_access(y, bi, Access::Mode::kReadWrite);
      ya.stride_lines = stride_for(ya.bytes, touched_output_lines(bv, n));
      t.accesses = {
          {static_cast<std::uint32_t>(a_id_),
           static_cast<std::uint64_t>(blkptr[static_cast<std::size_t>(
               bi * np_ + bj)]) *
               a.entry_bytes(),
           static_cast<std::uint64_t>(bnnz) * a.entry_bytes(),
           Access::Mode::kRead},
          xa, ya};
      t.body = [xm, ym, &a, bi, bj] {
        sparse::csb_block_spmm(a, bi, bj, xm->view(), ym->view());
      };
      const DataPiece reads[2] = {{a_id_, -1},
                                  {x, static_cast<std::int32_t>(bj)}};
      const DataPiece writes[1] = {{y, static_cast<std::int32_t>(bi)}};
      builder_.add_task(std::move(t), reads, writes);
    }
  }
}

void Program::spmm_reduction_based(DataId x, DataId y) {
  const sparse::Csb& a = *a_;
  la::DenseMatrix* xm = record(x).matrix;
  la::DenseMatrix* ym = record(y).matrix;
  const index_t n = xm->cols();
  const KernelKind kind = n == 1 ? KernelKind::kSpMV : KernelKind::kSpMM;
  const std::int32_t nbuf = std::max(1, config_.spmm_buffers);
  InputLineCounter input_lines(a.block_size(), n);

  // One full-size partial output vector per buffer (the memory cost the
  // paper's Fig. 7 highlights).
  std::vector<DataId> bufs;
  std::vector<la::DenseMatrix*> buf_ptrs;
  for (std::int32_t r = 0; r < nbuf; ++r) {
    const DataId b = alloc_internal(
        "spmm_buf" + std::to_string(phase_) + "_" + std::to_string(r),
        a.rows(), n, static_cast<std::int32_t>(np_));
    bufs.push_back(b);
    buf_ptrs.push_back(records_.back().matrix);
  }
  for (std::int32_t r = 0; r < nbuf; ++r) {
    for (index_t bi = 0; bi < np_; ++bi) {
      Task zero;
      zero.kind = KernelKind::kZero;
      zero.bi = static_cast<std::int32_t>(bi);
      zero.phase = phase_;
      zero.accesses = {vec_access(bufs[static_cast<std::size_t>(r)], bi,
                                  Access::Mode::kWrite)};
      la::DenseMatrix* bm = buf_ptrs[static_cast<std::size_t>(r)];
      zero.body = [bm, &a, bi] { sparse::csb_block_zero(a, bi, bm->view()); };
      const DataPiece w{bufs[static_cast<std::size_t>(r)],
                        static_cast<std::int32_t>(bi)};
      builder_.add_task(std::move(zero), {}, {&w, 1});
    }
  }
  const auto blkptr = a.blkptr();
  std::int64_t counter = 0;
  for (index_t bi = 0; bi < np_; ++bi) {
    for (index_t bj = 0; bj < np_; ++bj) {
      const index_t bnnz = a.block_nnz(bi, bj);
      if (bnnz == 0 && config_.skip_empty_blocks) continue;
      const std::size_t r = static_cast<std::size_t>(counter++ % nbuf);
      Task t;
      t.kind = kind;
      t.bi = static_cast<std::int32_t>(bi);
      t.bj = static_cast<std::int32_t>(bj);
      t.phase = phase_;
      t.flops = 2.0 * static_cast<double>(bnnz) * static_cast<double>(n);
      const sparse::Csb::BlockView bv = a.block_view(bi, bj);
      Access xa = vec_access(x, bj, Access::Mode::kRead);
      xa.stride_lines = stride_for(xa.bytes, input_lines.count(bv));
      Access ba = vec_access(bufs[r], bi, Access::Mode::kReadWrite);
      ba.stride_lines = stride_for(ba.bytes, touched_output_lines(bv, n));
      t.accesses = {
          {static_cast<std::uint32_t>(a_id_),
           static_cast<std::uint64_t>(blkptr[static_cast<std::size_t>(
               bi * np_ + bj)]) *
               a.entry_bytes(),
           static_cast<std::uint64_t>(bnnz) * a.entry_bytes(),
           Access::Mode::kRead},
          xa, ba};
      la::DenseMatrix* bm = buf_ptrs[r];
      t.body = [xm, bm, &a, bi, bj] {
        sparse::csb_block_spmm(a, bi, bj, xm->view(), bm->view());
      };
      const DataPiece reads[2] = {{a_id_, -1},
                                  {x, static_cast<std::int32_t>(bj)}};
      const DataPiece writes[1] = {{bufs[r], static_cast<std::int32_t>(bi)}};
      builder_.add_task(std::move(t), reads, writes);
    }
  }
  // Per-piece reduction: y_bi = sum_r buf_r[bi].
  for (index_t bi = 0; bi < np_; ++bi) {
    Task red;
    red.kind = KernelKind::kReduce;
    red.bi = static_cast<std::int32_t>(bi);
    red.phase = phase_;
    red.flops = static_cast<double>(nbuf) * static_cast<double>(piece_rows(bi)) *
                static_cast<double>(n);
    red.accesses = {vec_access(y, bi, Access::Mode::kWrite)};
    for (std::int32_t r = 0; r < nbuf; ++r) {
      red.accesses.push_back(vec_access(bufs[static_cast<std::size_t>(r)],
                                        bi, Access::Mode::kRead));
    }
    std::vector<la::DenseMatrix*> srcs = buf_ptrs;
    la::DenseMatrix* dst = ym;
    const index_t r0 = bi * a.block_size();
    const index_t nr = piece_rows(bi);
    red.body = [srcs, dst, r0, nr] {
      la::MatrixView out = dst->row_block(r0, nr);
      for (index_t i = 0; i < nr; ++i) {
        for (index_t j = 0; j < out.cols; ++j) out.at(i, j) = 0.0;
      }
      for (la::DenseMatrix* src : srcs) {
        la::axpy(1.0, src->row_block(r0, nr), out);
      }
    };
    std::vector<DataPiece> reads;
    for (DataId b : bufs) reads.push_back({b, static_cast<std::int32_t>(bi)});
    const DataPiece w{y, static_cast<std::int32_t>(bi)};
    builder_.add_task(std::move(red), reads, {&w, 1});
  }
}

void Program::xy(DataId x, DataId z, DataId y, double alpha, double beta,
                 const index_t* active) {
  la::DenseMatrix* xm = record(x).matrix;
  la::DenseMatrix* zm = record(z).matrix;
  la::DenseMatrix* ym = record(y).matrix;
  STS_EXPECTS(xm != nullptr && zm != nullptr && ym != nullptr);
  STS_EXPECTS(zm->rows() == xm->cols() && zm->cols() == ym->cols());
  for (index_t p = 0; p < np_; ++p) {
    Task t;
    t.kind = KernelKind::kXY;
    t.bi = static_cast<std::int32_t>(p);
    t.phase = phase_;
    t.flops = la::gemm_flops(piece_rows(p), ym->cols(), xm->cols());
    t.accesses = {vec_access(x, p, Access::Mode::kRead),
                  small_access(z, Access::Mode::kRead),
                  vec_access(y, p,
                             beta == 0.0 ? Access::Mode::kWrite
                                         : Access::Mode::kReadWrite)};
    const index_t r0 = p * a_->block_size();
    const index_t nr = piece_rows(p);
    t.body = [xm, zm, ym, r0, nr, alpha, beta, active] {
      const index_t w = active != nullptr ? *active : xm->cols();
      la::gemm(alpha, xm->leading_cols(r0, nr, w), zm->row_block(0, w), beta,
               ym->row_block(r0, nr));
    };
    const DataPiece reads[2] = {{x, static_cast<std::int32_t>(p)}, {z, -1}};
    const DataPiece writes[1] = {{y, static_cast<std::int32_t>(p)}};
    builder_.add_task(std::move(t), reads, writes);
  }
  ++phase_;
}

void Program::xty(DataId x, DataId y, DataId p_out, const index_t* active) {
  la::DenseMatrix* xm = record(x).matrix;
  la::DenseMatrix* ym = record(y).matrix;
  la::DenseMatrix* pm = record(p_out).matrix;
  STS_EXPECTS(xm != nullptr && ym != nullptr && pm != nullptr);
  STS_EXPECTS(pm->rows() == xm->cols() && pm->cols() == ym->cols());
  const index_t pr = pm->rows();
  const index_t pc = pm->cols();
  const DataId partial =
      alloc_internal("xty_part" + std::to_string(phase_), np_, pr * pc,
                     static_cast<std::int32_t>(np_));
  la::DenseMatrix* partm = records_.back().matrix;

  for (index_t p = 0; p < np_; ++p) {
    Task t;
    t.kind = KernelKind::kXTY;
    t.bi = static_cast<std::int32_t>(p);
    t.phase = phase_;
    t.flops = la::gemm_flops(pr, pc, piece_rows(p));
    t.accesses = {vec_access(x, p, Access::Mode::kRead),
                  vec_access(y, p, Access::Mode::kRead),
                  {static_cast<std::uint32_t>(partial),
                   static_cast<std::uint64_t>(p * pr * pc) * sizeof(double),
                   static_cast<std::uint64_t>(pr * pc) * sizeof(double),
                   Access::Mode::kWrite}};
    const index_t r0 = p * a_->block_size();
    const index_t nr = piece_rows(p);
    t.body = [xm, ym, partm, r0, nr, p, pr, pc, active] {
      const index_t w = active != nullptr ? *active : pr;
      la::MatrixView out{partm->data() + p * pr * pc, w, pc, pc};
      la::gemm_tn(1.0, xm->leading_cols(r0, nr, w), ym->row_block(r0, nr),
                  0.0, out);
    };
    const DataPiece reads[2] = {{x, static_cast<std::int32_t>(p)},
                                {y, static_cast<std::int32_t>(p)}};
    const DataPiece writes[1] = {{partial, static_cast<std::int32_t>(p)}};
    builder_.add_task(std::move(t), reads, writes);
  }

  Task red;
  red.kind = KernelKind::kReduce;
  red.phase = phase_;
  red.flops = static_cast<double>(np_) * static_cast<double>(pr * pc);
  red.accesses = {small_access(p_out, Access::Mode::kWrite)};
  red.accesses.push_back({static_cast<std::uint32_t>(partial), 0,
                          static_cast<std::uint64_t>(np_ * pr * pc) *
                              sizeof(double),
                          Access::Mode::kRead});
  const index_t np = np_;
  red.body = [partm, pm, np, pr, pc, active] {
    const index_t w = active != nullptr ? *active : pr;
    for (index_t i = 0; i < pr; ++i) {
      for (index_t j = 0; j < pc; ++j) pm->at(i, j) = 0.0;
    }
    for (index_t p = 0; p < np; ++p) {
      la::ConstMatrixView part{partm->data() + p * pr * pc, w, pc, pc};
      la::axpy(1.0, part, pm->row_block(0, w));
    }
  };
  const DataPiece reads[1] = {{partial, -1}};
  const DataPiece writes[1] = {{p_out, -1}};
  builder_.add_task(std::move(red), reads, writes);
  ++phase_;
}

void Program::axpy(double alpha, DataId x, DataId y) {
  la::DenseMatrix* xm = record(x).matrix;
  la::DenseMatrix* ym = record(y).matrix;
  for (index_t p = 0; p < np_; ++p) {
    Task t;
    t.kind = KernelKind::kAxpy;
    t.bi = static_cast<std::int32_t>(p);
    t.phase = phase_;
    t.flops = 2.0 * static_cast<double>(piece_rows(p)) *
              static_cast<double>(xm->cols());
    t.accesses = {vec_access(x, p, Access::Mode::kRead),
                  vec_access(y, p, Access::Mode::kReadWrite)};
    const index_t r0 = p * a_->block_size();
    const index_t nr = piece_rows(p);
    t.body = [xm, ym, r0, nr, alpha] {
      la::axpy(alpha, xm->row_block(r0, nr), ym->row_block(r0, nr));
    };
    const DataPiece reads[1] = {{x, static_cast<std::int32_t>(p)}};
    const DataPiece writes[1] = {{y, static_cast<std::int32_t>(p)}};
    builder_.add_task(std::move(t), reads, writes);
  }
  ++phase_;
}

void Program::copy(DataId x, DataId y) {
  la::DenseMatrix* xm = record(x).matrix;
  la::DenseMatrix* ym = record(y).matrix;
  for (index_t p = 0; p < np_; ++p) {
    Task t;
    t.kind = KernelKind::kAxpy;
    t.bi = static_cast<std::int32_t>(p);
    t.phase = phase_;
    t.flops = static_cast<double>(piece_rows(p)) *
              static_cast<double>(xm->cols());
    t.accesses = {vec_access(x, p, Access::Mode::kRead),
                  vec_access(y, p, Access::Mode::kWrite)};
    const index_t r0 = p * a_->block_size();
    const index_t nr = piece_rows(p);
    t.body = [xm, ym, r0, nr] {
      la::copy(xm->row_block(r0, nr), ym->row_block(r0, nr));
    };
    const DataPiece reads[1] = {{x, static_cast<std::int32_t>(p)}};
    const DataPiece writes[1] = {{y, static_cast<std::int32_t>(p)}};
    builder_.add_task(std::move(t), reads, writes);
  }
  ++phase_;
}

void Program::copy_into_column(DataId x, DataId y, const index_t* col) {
  la::DenseMatrix* xm = record(x).matrix;
  la::DenseMatrix* ym = record(y).matrix;
  STS_EXPECTS(xm != nullptr && ym != nullptr && col != nullptr);
  STS_EXPECTS(xm->cols() == 1);
  for (index_t p = 0; p < np_; ++p) {
    Task t;
    t.kind = KernelKind::kAxpy;
    t.bi = static_cast<std::int32_t>(p);
    t.phase = phase_;
    t.flops = static_cast<double>(piece_rows(p));
    t.accesses = {vec_access(x, p, Access::Mode::kRead),
                  vec_access(y, p, Access::Mode::kReadWrite)};
    const index_t r0 = p * a_->block_size();
    const index_t nr = piece_rows(p);
    t.body = [xm, ym, r0, nr, col] {
      for (index_t i = 0; i < nr; ++i) {
        ym->at(r0 + i, *col) = xm->at(r0 + i, 0);
      }
    };
    const DataPiece reads[1] = {{x, static_cast<std::int32_t>(p)}};
    const DataPiece writes[1] = {{y, static_cast<std::int32_t>(p)}};
    builder_.add_task(std::move(t), reads, writes);
  }
  ++phase_;
}

void Program::scale_by_scalar(DataId x, DataId s, bool reciprocal) {
  la::DenseMatrix* xm = record(x).matrix;
  double* cell = record(s).cell;
  STS_EXPECTS(xm != nullptr && cell != nullptr);
  for (index_t p = 0; p < np_; ++p) {
    Task t;
    t.kind = KernelKind::kScale;
    t.bi = static_cast<std::int32_t>(p);
    t.phase = phase_;
    t.flops = static_cast<double>(piece_rows(p)) *
              static_cast<double>(xm->cols());
    t.accesses = {small_access(s, Access::Mode::kRead),
                  vec_access(x, p, Access::Mode::kReadWrite)};
    const index_t r0 = p * a_->block_size();
    const index_t nr = piece_rows(p);
    t.body = [xm, cell, r0, nr, reciprocal] {
      const double v = reciprocal ? 1.0 / *cell : *cell;
      la::scal(v, xm->row_block(r0, nr));
    };
    const DataPiece reads[1] = {{s, -1}};
    const DataPiece writes[1] = {{x, static_cast<std::int32_t>(p)}};
    builder_.add_task(std::move(t), reads, writes);
  }
  ++phase_;
}

void Program::scale_into(DataId x, DataId s, bool reciprocal, DataId y) {
  la::DenseMatrix* xm = record(x).matrix;
  la::DenseMatrix* ym = record(y).matrix;
  double* cell = record(s).cell;
  for (index_t p = 0; p < np_; ++p) {
    Task t;
    t.kind = KernelKind::kScale;
    t.bi = static_cast<std::int32_t>(p);
    t.phase = phase_;
    t.flops = static_cast<double>(piece_rows(p)) *
              static_cast<double>(xm->cols());
    t.accesses = {small_access(s, Access::Mode::kRead),
                  vec_access(x, p, Access::Mode::kRead),
                  vec_access(y, p, Access::Mode::kWrite)};
    const index_t r0 = p * a_->block_size();
    const index_t nr = piece_rows(p);
    t.body = [xm, ym, cell, r0, nr, reciprocal] {
      const double v = reciprocal ? 1.0 / *cell : *cell;
      la::ConstMatrixView in = xm->row_block(r0, nr);
      la::MatrixView out = ym->row_block(r0, nr);
      for (index_t i = 0; i < nr; ++i) {
        for (index_t j = 0; j < in.cols; ++j) out.at(i, j) = v * in.at(i, j);
      }
    };
    const DataPiece reads[2] = {{s, -1}, {x, static_cast<std::int32_t>(p)}};
    const DataPiece writes[1] = {{y, static_cast<std::int32_t>(p)}};
    builder_.add_task(std::move(t), reads, writes);
  }
  ++phase_;
}

void Program::dot(DataId x, DataId y, DataId s) {
  la::DenseMatrix* xm = record(x).matrix;
  la::DenseMatrix* ym = record(y).matrix;
  double* cell = record(s).cell;
  STS_EXPECTS(xm != nullptr && ym != nullptr && cell != nullptr);
  const DataId partial = alloc_internal("dot_part" + std::to_string(phase_),
                                        np_, 1,
                                        static_cast<std::int32_t>(np_));
  la::DenseMatrix* partm = records_.back().matrix;
  for (index_t p = 0; p < np_; ++p) {
    Task t;
    t.kind = KernelKind::kDotPartial;
    t.bi = static_cast<std::int32_t>(p);
    t.phase = phase_;
    t.flops = 2.0 * static_cast<double>(piece_rows(p)) *
              static_cast<double>(xm->cols());
    t.accesses = {vec_access(x, p, Access::Mode::kRead),
                  vec_access(y, p, Access::Mode::kRead),
                  {static_cast<std::uint32_t>(partial),
                   static_cast<std::uint64_t>(p) * sizeof(double),
                   sizeof(double), Access::Mode::kWrite}};
    const index_t r0 = p * a_->block_size();
    const index_t nr = piece_rows(p);
    t.body = [xm, ym, partm, r0, nr, p] {
      partm->at(p, 0) = la::dot(xm->row_block(r0, nr), ym->row_block(r0, nr));
    };
    const DataPiece reads[2] = {{x, static_cast<std::int32_t>(p)},
                                {y, static_cast<std::int32_t>(p)}};
    const DataPiece writes[1] = {{partial, static_cast<std::int32_t>(p)}};
    builder_.add_task(std::move(t), reads, writes);
  }
  Task red;
  red.kind = KernelKind::kReduce;
  red.phase = phase_;
  red.flops = static_cast<double>(np_);
  red.accesses = {small_access(s, Access::Mode::kWrite),
                  {static_cast<std::uint32_t>(partial), 0,
                   static_cast<std::uint64_t>(np_) * sizeof(double),
                   Access::Mode::kRead}};
  const index_t np = np_;
  red.body = [partm, cell, np] {
    double acc = 0.0;
    for (index_t p = 0; p < np; ++p) acc += partm->at(p, 0);
    *cell = acc;
  };
  const DataPiece reads[1] = {{partial, -1}};
  const DataPiece writes[1] = {{s, -1}};
  builder_.add_task(std::move(red), reads, writes);
  ++phase_;
}

void Program::small_task(graph::KernelKind kind, std::function<void()> body,
                         std::vector<DataId> reads,
                         std::vector<DataId> writes) {
  Task t;
  t.kind = kind;
  t.phase = phase_;
  t.flops = 0.0;
  for (DataId r : reads) t.accesses.push_back(small_access(r, Access::Mode::kRead));
  for (DataId w : writes) {
    t.accesses.push_back(small_access(w, Access::Mode::kReadWrite));
  }
  t.body = std::move(body);
  std::vector<DataPiece> rp;
  std::vector<DataPiece> wp;
  for (DataId r : reads) rp.push_back({r, -1});
  for (DataId w : writes) wp.push_back({w, -1});
  builder_.add_task(std::move(t), rp, wp);
  ++phase_;
}

graph::Tdg Program::build() { return builder_.take(); }

std::vector<std::uint64_t> Program::data_bytes() const {
  std::vector<std::uint64_t> out;
  out.reserve(builder_.data().size());
  for (const auto& d : builder_.data()) out.push_back(d.bytes);
  return out;
}

} // namespace sts::ds
