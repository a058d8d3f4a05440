// DeepSparse Primitive Conversion Unit front-end.
//
// A Program is written as a sequence of BLAS/GraphBLAS-style kernel calls
// on registered data (the paper's Listing 1). Each call is one Task
// Identifier node; the Program immediately expands it into block tasks over
// the CSB partitioning (Figs. 1 & 2) and feeds them to the GraphBuilder,
// which wires fine-grained dependencies. The result of build() is the
// explicit task dependency graph executed by executor.hpp (real OpenMP
// tasks) or replayed by the schedule simulator.
//
// All vector blocks are decomposed into np = ceil(m / block_size) row
// pieces; the CSB block size is the same uniform partitioning factor for 2D
// (SpMM) and 1D (vector op) kernels, as in the paper (§5.4).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ds/builder.hpp"
#include "la/blas.hpp"
#include "sparse/csb.hpp"

namespace sts::ds {

using la::index_t;

class Program {
public:
  struct Config {
    /// Create no tasks for empty CSB blocks (paper Fig. 6 optimization).
    bool skip_empty_blocks = true;
    /// Dependency-based SpMM output updates (chain on the output piece)
    /// instead of per-buffer partial outputs + reduction (paper Fig. 7).
    bool dependency_based_spmm = true;
    /// Buffer count for the reduction-based SpMM variant (the paper's
    /// "partial output vector per thread/core").
    std::int32_t spmm_buffers = 4;
  };

  /// The program's tasks reference `a` and all registered storage by
  /// pointer: they must outlive every execution of the built graph.
  Program(const sparse::Csb* a, Config config);

  [[nodiscard]] index_t partitions() const noexcept { return np_; }
  [[nodiscard]] index_t block_size() const noexcept {
    return a_->block_size();
  }

  /// Registers an m x n block vector decomposed into np row pieces.
  DataId vec(std::string name, la::DenseMatrix* storage);
  /// Registers an unpartitioned small dense matrix (Gram matrices, Z, P).
  DataId small(std::string name, la::DenseMatrix* storage);
  /// Registers a scalar cell.
  DataId scalar(std::string name, double* value);

  // --- kernel calls (each advances the TI phase counter) ---

  /// y = A * x. Works for any column count including 1 (SpMV).
  void spmm(DataId x, DataId y);

  /// y = alpha * x * z + beta * y, z small (x.cols x y.cols). With
  /// `active`, only the leading *active columns of x (rows of z) are read;
  /// the width is read at execution time, like copy_into_column's column,
  /// so one graph serves a Lanczos basis that grows every iteration.
  void xy(DataId x, DataId z, DataId y, double alpha = 1.0,
          double beta = 0.0, const index_t* active = nullptr);

  /// p = x^T * y via per-piece partials and a final reduce task (Fig. 2).
  /// With `active`, only the leading *active columns of x are read: p's
  /// first *active rows get the product and the rest are zeroed.
  void xty(DataId x, DataId y, DataId p, const index_t* active = nullptr);

  /// y += alpha * x (block vectors of identical shape).
  void axpy(double alpha, DataId x, DataId y);

  /// y = x (block vector copy).
  void copy(DataId x, DataId y);

  /// y(:, *col) = x(:, 0): scatters a 1-column vector into a column of a
  /// wider block vector (Lanczos appends the new basis vector to Q). The
  /// column index is read through `col` at execution time so one graph can
  /// be reused across iterations, as DeepSparse does.
  void copy_into_column(DataId x, DataId y, const index_t* col);

  /// x *= *s or x /= *s per piece (the scalar is read at execution time).
  void scale_by_scalar(DataId x, DataId s, bool reciprocal);

  /// y = x / *s into a different vector.
  void scale_into(DataId x, DataId s, bool reciprocal, DataId y);

  /// s = x^T y for 1-column vectors / Frobenius for blocks.
  void dot(DataId x, DataId y, DataId s);

  /// An unpartitioned task on small data (Rayleigh-Ritz solve, convergence
  /// check, sqrt of a scalar, ...). Runs as a single task reading `reads`
  /// and writing `writes`.
  void small_task(graph::KernelKind kind, std::function<void()> body,
                  std::vector<DataId> reads, std::vector<DataId> writes);

  /// Finalizes and returns the graph; the Program keeps ownership of the
  /// internal partial buffers the graph's tasks reference.
  [[nodiscard]] graph::Tdg build();

  [[nodiscard]] const GraphBuilder& builder() const noexcept {
    return builder_;
  }

  /// Total bytes of each registered structure (for the simulator layout).
  [[nodiscard]] std::vector<std::uint64_t> data_bytes() const;

  /// Id of the sparse matrix structure in the access streams.
  [[nodiscard]] DataId matrix_data_id() const noexcept { return a_id_; }

private:
  struct DataRecord {
    enum class Kind { kVec, kSmall, kScalar, kMatrix, kInternal };
    Kind kind;
    la::DenseMatrix* matrix = nullptr; // vec/small
    double* cell = nullptr;            // scalar
    std::uint64_t bytes = 0;
  };

  [[nodiscard]] index_t piece_rows(index_t p) const;
  [[nodiscard]] la::MatrixView piece_view(DataId id, index_t p);
  [[nodiscard]] graph::Access vec_access(DataId id, index_t p,
                                         graph::Access::Mode mode) const;
  [[nodiscard]] graph::Access small_access(DataId id,
                                           graph::Access::Mode mode) const;
  DataId alloc_internal(std::string name, index_t rows, index_t cols,
                        std::int32_t pieces);
  void spmm_dependency_based(DataId x, DataId y);
  void spmm_reduction_based(DataId x, DataId y);
  const DataRecord& record(DataId id) const;

  const sparse::Csb* a_;
  Config config_;
  index_t np_;
  GraphBuilder builder_;
  std::vector<DataRecord> records_; // indexed by DataId
  std::vector<std::unique_ptr<la::DenseMatrix>> internal_; // partial buffers
  DataId a_id_ = -1;
  std::int32_t phase_ = 0;
};

} // namespace sts::ds
