#include "sparse/csr.hpp"

#include <algorithm>
#include <utility>

namespace sts::sparse {

Csr Csr::from_coo(Coo coo) {
  // Stable counting sort on rows, straight into the output arrays: one pass
  // counts, one scatters in input order. A row then needs a column sort
  // only if its input was out of order, and duplicates sum in input order.
  const std::size_t rows = static_cast<std::size_t>(coo.rows());
  const std::vector<Triplet>& entries = coo.entries();
  Csr out;
  out.rows_ = coo.rows();
  out.cols_ = coo.cols();
  out.rowptr_.assign(rows + 1, 0);
  for (const Triplet& t : entries) {
    ++out.rowptr_[static_cast<std::size_t>(t.row) + 1];
  }
  for (std::size_t r = 0; r < rows; ++r) {
    out.rowptr_[r + 1] += out.rowptr_[r];
  }
  out.colidx_.resize(entries.size());
  out.values_.resize(entries.size());
  std::vector<std::int64_t> cursor(out.rowptr_.begin(), out.rowptr_.end() - 1);
  for (const Triplet& t : entries) {
    const auto k =
        static_cast<std::size_t>(cursor[static_cast<std::size_t>(t.row)]++);
    out.colidx_[k] = t.col;
    out.values_[k] = t.value;
  }

  // Sort the out-of-order rows, sum duplicates and compact in place. The
  // write cursor never passes the read cursor, so one forward sweep does.
  std::vector<std::pair<std::int32_t, double>> row;
  std::int64_t write = 0;
  std::int64_t read = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::int64_t end = out.rowptr_[r + 1];
    out.rowptr_[r] = write;
    bool ordered = true;
    for (std::int64_t k = read + 1; k < end && ordered; ++k) {
      ordered = out.colidx_[static_cast<std::size_t>(k - 1)] <
                out.colidx_[static_cast<std::size_t>(k)];
    }
    if (ordered) {
      if (write != read) {
        std::copy(out.colidx_.begin() + read, out.colidx_.begin() + end,
                  out.colidx_.begin() + write);
        std::copy(out.values_.begin() + read, out.values_.begin() + end,
                  out.values_.begin() + write);
      }
      write += end - read;
    } else {
      row.clear();
      for (std::int64_t k = read; k < end; ++k) {
        row.emplace_back(out.colidx_[static_cast<std::size_t>(k)],
                         out.values_[static_cast<std::size_t>(k)]);
      }
      std::stable_sort(row.begin(), row.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });
      for (std::size_t i = 0; i < row.size();) {
        double sum = row[i].second;
        std::size_t j = i + 1;
        for (; j < row.size() && row[j].first == row[i].first; ++j) {
          sum += row[j].second;
        }
        out.colidx_[static_cast<std::size_t>(write)] = row[i].first;
        out.values_[static_cast<std::size_t>(write)] = sum;
        ++write;
        i = j;
      }
    }
    read = end;
  }
  out.rowptr_[rows] = write;
  out.colidx_.resize(static_cast<std::size_t>(write));
  out.values_.resize(static_cast<std::size_t>(write));
  return out;
}

Coo Csr::to_coo() const {
  Coo coo(rows_, cols_);
  coo.reserve(values_.size());
  for (index_t r = 0; r < rows_; ++r) {
    for (std::int64_t k = rowptr_[static_cast<std::size_t>(r)];
         k < rowptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      coo.add(r, colidx_[static_cast<std::size_t>(k)],
              values_[static_cast<std::size_t>(k)]);
    }
  }
  return coo;
}

void csr_spmv_range(const Csr& a, std::span<const double> x,
                    std::span<double> y, index_t r0, index_t r1) {
  STS_EXPECTS(r0 >= 0 && r0 <= r1 && r1 <= a.rows());
  STS_EXPECTS(static_cast<index_t>(x.size()) == a.cols());
  STS_EXPECTS(static_cast<index_t>(y.size()) == a.rows());
  const auto rowptr = a.rowptr();
  const auto colidx = a.colidx();
  const auto values = a.values();
  for (index_t r = r0; r < r1; ++r) {
    double acc = 0.0;
    for (std::int64_t k = rowptr[static_cast<std::size_t>(r)];
         k < rowptr[static_cast<std::size_t>(r) + 1]; ++k) {
      acc += values[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(colidx[static_cast<std::size_t>(k)])];
    }
    y[static_cast<std::size_t>(r)] = acc;
  }
}

void csr_spmm_range(const Csr& a, la::ConstMatrixView x, la::MatrixView y,
                    index_t r0, index_t r1) {
  STS_EXPECTS(r0 >= 0 && r0 <= r1 && r1 <= a.rows());
  STS_EXPECTS(x.rows == a.cols() && y.rows == a.rows() && x.cols == y.cols);
  const auto rowptr = a.rowptr();
  const auto colidx = a.colidx();
  const auto values = a.values();
  const index_t n = x.cols;
  for (index_t r = r0; r < r1; ++r) {
    double* yr = y.row(r);
    for (index_t j = 0; j < n; ++j) yr[j] = 0.0;
    for (std::int64_t k = rowptr[static_cast<std::size_t>(r)];
         k < rowptr[static_cast<std::size_t>(r) + 1]; ++k) {
      const double v = values[static_cast<std::size_t>(k)];
      const double* xc = x.row(colidx[static_cast<std::size_t>(k)]);
      for (index_t j = 0; j < n; ++j) yr[j] += v * xc[j];
    }
  }
}

} // namespace sts::sparse
