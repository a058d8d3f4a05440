// Microbenchmarks (google-benchmark) of the kernel bodies the solvers are
// built from: dense gemm / gemm_tn on block shapes, on the LOBPCG task
// shape and on the one-column Lanczos shapes, CSR vs CSB SpMV/SpMM
// (including the packed row-segmented CSB layout against an AoS replica of
// the former layout), and CSB construction cost. Results are exported to
// BENCH_kernels.json (see bench_json.hpp).
#include <benchmark/benchmark.h>

#include "bench_json.hpp"
#include "bsp/kernels.hpp"
#include "la/blas.hpp"
#include "sparse/generators.hpp"

namespace {

using namespace sts;

void BM_GemmTallSkinny(benchmark::State& state) {
  const la::index_t rows = state.range(0);
  const la::index_t n = 8;
  la::DenseMatrix x(rows, n);
  la::DenseMatrix z(n, n);
  la::DenseMatrix y(rows, n);
  support::Xoshiro256 rng(1);
  x.fill_random(rng);
  z.fill_random(rng);
  for (auto _ : state) {
    la::gemm(1.0, x.view(), z.view(), 0.0, y.view());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * n * n * 2);
}
BENCHMARK(BM_GemmTallSkinny)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_GemmTn(benchmark::State& state) {
  const la::index_t rows = state.range(0);
  const la::index_t n = 8;
  la::DenseMatrix x(rows, n);
  la::DenseMatrix y(rows, n);
  la::DenseMatrix p(n, n);
  support::Xoshiro256 rng(2);
  x.fill_random(rng);
  y.fill_random(rng);
  for (auto _ : state) {
    la::gemm_tn(1.0, x.view(), y.view(), 0.0, p.view());
    benchmark::DoNotOptimize(p.data());
  }
  state.SetItemsProcessed(state.iterations() * rows * n * n * 2);
}
BENCHMARK(BM_GemmTn)->Arg(1024)->Arg(4096)->Arg(16384);

// The Lanczos Gram-Schmidt shapes: one 418-row block of a 61-column basis
// Q against one column, as XY (z -= Q proj) and XTY (proj = Q^T z) run it
// per task. These take the one-column gemm/gemm_tn paths; bytes_per_second
// counts the Q block, the operand that dominates the traffic.
constexpr la::index_t kLanczosRows = 418;
constexpr la::index_t kLanczosCols = 61;

void BM_GemvLanczos(benchmark::State& state) {
  la::DenseMatrix q(kLanczosRows, kLanczosCols);
  la::DenseMatrix proj(kLanczosCols, 1);
  la::DenseMatrix z(kLanczosRows, 1);
  support::Xoshiro256 rng(5);
  q.fill_random(rng);
  proj.fill_random(rng);
  z.fill_random(rng);
  for (auto _ : state) {
    la::gemm(-1.0, q.view(), proj.view(), 1.0, z.view());
    benchmark::DoNotOptimize(z.data());
  }
  state.SetItemsProcessed(state.iterations() * kLanczosRows * kLanczosCols *
                          2);
  state.SetBytesProcessed(state.iterations() * kLanczosRows * kLanczosCols *
                          static_cast<std::int64_t>(sizeof(double)));
}
BENCHMARK(BM_GemvLanczos);

void BM_GemvTLanczos(benchmark::State& state) {
  la::DenseMatrix q(kLanczosRows, kLanczosCols);
  la::DenseMatrix z(kLanczosRows, 1);
  la::DenseMatrix proj(kLanczosCols, 1);
  support::Xoshiro256 rng(6);
  q.fill_random(rng);
  z.fill_random(rng);
  for (auto _ : state) {
    la::gemm_tn(1.0, q.view(), z.view(), 0.0, proj.view());
    benchmark::DoNotOptimize(proj.data());
  }
  state.SetItemsProcessed(state.iterations() * kLanczosRows * kLanczosCols *
                          2);
  state.SetBytesProcessed(state.iterations() * kLanczosRows * kLanczosCols *
                          static_cast<std::int64_t>(sizeof(double)));
}
BENCHMARK(BM_GemvTLanczos);

// The LOBPCG block shapes: one 306-row block (the tuned block size on the
// lobpcg-nuclear workload) of an 8-column block vector against an 8 x 8
// small matrix, as XY (Y = X Z) and XTY (P = X^T Y) run it per task. These
// take the fixed-width gemm/gemm_tn paths; bytes_per_second counts the two
// block operands, which dominate the traffic.
constexpr la::index_t kLobpcgRows = 306;
constexpr la::index_t kLobpcgCols = 8;

void lobpcg_counters(benchmark::State& state) {
  state.SetItemsProcessed(state.iterations() * kLobpcgRows * kLobpcgCols *
                          kLobpcgCols * 2);
  state.SetBytesProcessed(state.iterations() * 2 * kLobpcgRows * kLobpcgCols *
                          static_cast<std::int64_t>(sizeof(double)));
}

void BM_GemmLobpcg(benchmark::State& state) {
  la::DenseMatrix x(kLobpcgRows, kLobpcgCols);
  la::DenseMatrix z(kLobpcgCols, kLobpcgCols);
  la::DenseMatrix y(kLobpcgRows, kLobpcgCols);
  support::Xoshiro256 rng(7);
  x.fill_random(rng);
  z.fill_random(rng);
  for (auto _ : state) {
    la::gemm(1.0, x.view(), z.view(), 0.0, y.view());
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  lobpcg_counters(state);
}
BENCHMARK(BM_GemmLobpcg);

void BM_GemmTnLobpcg(benchmark::State& state) {
  la::DenseMatrix x(kLobpcgRows, kLobpcgCols);
  la::DenseMatrix y(kLobpcgRows, kLobpcgCols);
  la::DenseMatrix p(kLobpcgCols, kLobpcgCols);
  support::Xoshiro256 rng(8);
  x.fill_random(rng);
  y.fill_random(rng);
  for (auto _ : state) {
    la::gemm_tn(1.0, x.view(), y.view(), 0.0, p.view());
    benchmark::DoNotOptimize(p.data());
    benchmark::ClobberMemory();
  }
  lobpcg_counters(state);
}
BENCHMARK(BM_GemmTnLobpcg);

struct SpmvFixture {
  sparse::Csr csr;
  sparse::Csb csb;
  std::vector<double> x;
  std::vector<double> y;

  explicit SpmvFixture(la::index_t side, la::index_t block)
      : csr(sparse::Csr::from_coo(sparse::gen_fem3d(side, side, side, 1, 3))),
        csb(sparse::Csb::from_coo(sparse::gen_fem3d(side, side, side, 1, 3),
                                  block)),
        x(static_cast<std::size_t>(csr.rows()), 1.0),
        y(static_cast<std::size_t>(csr.rows()), 0.0) {}
};

void BM_SpmvCsr(benchmark::State& state) {
  SpmvFixture f(state.range(0), 512);
  for (auto _ : state) {
    bsp::spmv(f.csr, f.x, f.y);
    benchmark::DoNotOptimize(f.y.data());
  }
  state.SetItemsProcessed(state.iterations() * f.csr.nnz() * 2);
}
BENCHMARK(BM_SpmvCsr)->Arg(16)->Arg(24);

void BM_SpmvCsb(benchmark::State& state) {
  SpmvFixture f(state.range(0), 512);
  for (auto _ : state) {
    bsp::spmv(f.csb, f.x, f.y);
    benchmark::DoNotOptimize(f.y.data());
  }
  state.SetItemsProcessed(state.iterations() * f.csb.nnz() * 2);
}
BENCHMARK(BM_SpmvCsb)->Arg(16)->Arg(24);

void BM_SpmmCsb(benchmark::State& state) {
  const la::index_t side = state.range(0);
  sparse::Coo coo = sparse::gen_fem3d(side, side, side, 1, 3);
  sparse::Csb csb = sparse::Csb::from_coo(coo, 512);
  la::DenseMatrix x(csb.rows(), 8);
  la::DenseMatrix y(csb.rows(), 8);
  support::Xoshiro256 rng(4);
  x.fill_random(rng);
  for (auto _ : state) {
    bsp::spmm(csb, x.view(), y.view());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * csb.nnz() * 16);
}
BENCHMARK(BM_SpmmCsb)->Arg(16)->Arg(24);

// Serial per-block SpMM on the packed row-segmented layout, one kernel call
// per non-empty block -- the task-body cost the runtimes schedule, without
// OpenMP in the measurement. Second arg is the block-vector width n.
void BM_SpmmCsbPacked(benchmark::State& state) {
  const la::index_t side = state.range(0);
  const la::index_t n = state.range(1);
  sparse::Coo coo = sparse::gen_fem3d(side, side, side, 1, 3);
  sparse::Csb csb = sparse::Csb::from_coo(coo, 512);
  la::DenseMatrix x(csb.rows(), n);
  la::DenseMatrix y(csb.rows(), n);
  support::Xoshiro256 rng(4);
  x.fill_random(rng);
  for (auto _ : state) {
    for (la::index_t bi = 0; bi < csb.block_rows(); ++bi) {
      sparse::csb_block_zero(csb, bi, y.view());
      for (la::index_t bj = 0; bj < csb.block_cols(); ++bj) {
        if (!csb.block_empty(bi, bj)) {
          sparse::csb_block_spmm(csb, bi, bj, x.view(), y.view());
        }
      }
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * csb.nnz() * 2 * n);
  state.counters["bytes_per_nnz"] = csb.bytes_per_nnz();
}
BENCHMARK(BM_SpmmCsbPacked)
    ->Args({16, 4})
    ->Args({16, 8})
    ->Args({16, 16})
    ->Args({16, 5})
    ->Args({24, 8});

// AoS baseline: replica of the former block layout ({int32 row, int32 col,
// double value} entries, per-entry strided y update) so BENCH_kernels.json
// records the packed-layout speedup and bytes/nnz delta on the same build.
struct AosEntry {
  std::int32_t row;
  std::int32_t col;
  double value;
};

struct AosCsb {
  la::index_t block = 0;
  la::index_t nb_rows = 0;
  la::index_t nb_cols = 0;
  std::vector<std::int64_t> blkptr;
  std::vector<AosEntry> entries;

  explicit AosCsb(const sparse::Csb& csb)
      : block(csb.block_size()), nb_rows(csb.block_rows()),
        nb_cols(csb.block_cols()) {
    blkptr.assign(csb.blkptr().begin(), csb.blkptr().end());
    entries.resize(static_cast<std::size_t>(csb.nnz()));
    for (la::index_t bi = 0; bi < nb_rows; ++bi) {
      for (la::index_t bj = 0; bj < nb_cols; ++bj) {
        const sparse::Csb::BlockView v = csb.block_view(bi, bj);
        for (const sparse::Csb::RowSegment& seg : v.segments) {
          for (std::int64_t t = seg.begin; t < seg.begin + seg.count; ++t) {
            entries[static_cast<std::size_t>(t)] = {
                seg.row, static_cast<std::int32_t>(v.col(t)),
                csb.values()[static_cast<std::size_t>(t)]};
          }
        }
      }
    }
  }
};

void BM_SpmmCsbAos(benchmark::State& state) {
  const la::index_t side = state.range(0);
  const la::index_t n = state.range(1);
  sparse::Coo coo = sparse::gen_fem3d(side, side, side, 1, 3);
  sparse::Csb csb = sparse::Csb::from_coo(coo, 512);
  const AosCsb aos(csb);
  la::DenseMatrix x(csb.rows(), n);
  la::DenseMatrix y(csb.rows(), n);
  support::Xoshiro256 rng(4);
  x.fill_random(rng);
  for (auto _ : state) {
    for (la::index_t bi = 0; bi < aos.nb_rows; ++bi) {
      sparse::csb_block_zero(csb, bi, y.view());
      const la::index_t r0 = bi * aos.block;
      for (la::index_t bj = 0; bj < aos.nb_cols; ++bj) {
        const la::index_t c0 = bj * aos.block;
        const std::size_t k =
            static_cast<std::size_t>(bi) * static_cast<std::size_t>(aos.nb_cols) +
            static_cast<std::size_t>(bj);
        for (std::int64_t t = aos.blkptr[k]; t < aos.blkptr[k + 1]; ++t) {
          const AosEntry& e = aos.entries[static_cast<std::size_t>(t)];
          double* yr = y.view().row(r0 + e.row);
          const double* xr = x.view().row(c0 + e.col);
          for (la::index_t j = 0; j < n; ++j) yr[j] += e.value * xr[j];
        }
      }
    }
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * csb.nnz() * 2 * n);
  state.counters["bytes_per_nnz"] =
      static_cast<double>(sizeof(AosEntry));
}
BENCHMARK(BM_SpmmCsbAos)->Args({16, 8})->Args({24, 8});

void BM_CsbConstruction(benchmark::State& state) {
  sparse::Coo coo = sparse::gen_fem3d(20, 20, 20, 1, 5);
  for (auto _ : state) {
    sparse::Csb csb = sparse::Csb::from_coo(coo, state.range(0));
    benchmark::DoNotOptimize(csb.nnz());
  }
  state.SetItemsProcessed(state.iterations() * coo.nnz());
}
BENCHMARK(BM_CsbConstruction)->Arg(128)->Arg(512)->Arg(2048);

} // namespace

int main(int argc, char** argv) {
  return sts::benchjson::run(argc, argv, "BENCH_kernels.json");
}
