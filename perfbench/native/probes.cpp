#include "probes.hpp"

#include <omp.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bsp/kernels.hpp"
#include "flux/dataflow.hpp"
#include "flux/scheduler.hpp"
#include "la/dense.hpp"
#include "la/sptrsv.hpp"
#include "rgt/runtime.hpp"
#include "sparse/ic0.hpp"
#include "support/rng.hpp"

namespace perfbench {

using sts::la::DenseMatrix;
using sts::la::index_t;

namespace {

/// Times `fn` `reps` times under span `name`; returns the samples.
std::vector<double> repeat(Tracer& tracer, const std::string& name, int reps,
                           const std::function<void()>& fn) {
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) t.push_back(tracer.time(name, -1, fn));
  return t;
}

DenseMatrix random_matrix(index_t rows, index_t cols, std::uint64_t seed) {
  DenseMatrix m(rows, cols, true);
  sts::support::Xoshiro256 rng(seed);
  m.fill_random(rng);
  return m;
}

/// `a` with every diagonal entry raised by its row's absolute sum plus one:
/// the same pattern (plus any missing diagonal), strictly diagonally
/// dominant and so positive definite, which IC(0) needs and an indefinite
/// input such as a nuclear-CI Hamiltonian is not.
sts::sparse::Csr dominant_copy(const sts::sparse::Csr& a) {
  sts::sparse::Coo coo(a.rows(), a.cols());
  coo.reserve(static_cast<std::size_t>(a.nnz() + a.rows()));
  const auto ptr = a.rowptr();
  const auto col = a.colidx();
  const auto val = a.values();
  for (index_t i = 0; i < a.rows(); ++i) {
    double sum = 1.0;
    for (std::int64_t k = ptr[i]; k < ptr[i + 1]; ++k) {
      coo.add(i, col[k], val[k]);
      sum += std::abs(val[k]);
    }
    coo.add(i, i, sum); // summed into any existing diagonal entry
  }
  return sts::sparse::Csr::from_coo(std::move(coo));
}

} // namespace

void probe_bsp(MetricSet& out, Tracer& tracer, const sts::sparse::Csr& csr,
               const sts::sparse::Csb& csb, index_t basis_cols,
               index_t rhs_cols, unsigned workers, int reps) {
  namespace bsp = sts::bsp;
  omp_set_num_threads(static_cast<int>(workers));
  const index_t m = csr.rows();
  const index_t chunk = csb.block_size();
  constexpr index_t kSpmmCols = 8; // LOBPCG's block width
  const DenseMatrix x = random_matrix(m, 1, 11);
  DenseMatrix y(m, 1, true);
  const DenseMatrix xb = random_matrix(m, kSpmmCols, 12);
  DenseMatrix yb(m, kSpmmCols, true);
  const DenseMatrix basis = random_matrix(m, basis_cols, 13);
  const DenseMatrix rhs = random_matrix(m, rhs_cols, 14);
  DenseMatrix gram(basis_cols, rhs_cols);
  const DenseMatrix z = random_matrix(basis_cols, rhs_cols, 15);
  DenseMatrix prod(m, rhs_cols, true);

  const auto spmv_csr = repeat(tracer, "bsp.spmv_csr", reps,
                               [&] { bsp::spmv(csr, x.flat(), y.flat()); });
  const auto spmv_csb = repeat(tracer, "bsp.spmv_csb", reps,
                               [&] { bsp::spmv(csb, x.flat(), y.flat()); });
  const auto spmm_csr = repeat(tracer, "bsp.spmm_csr", reps,
                               [&] { bsp::spmm(csr, xb.view(), yb.view()); });
  const auto spmm_csb = repeat(tracer, "bsp.spmm_csb", reps,
                               [&] { bsp::spmm(csb, xb.view(), yb.view()); });
  const auto xty = repeat(tracer, "bsp.xty", reps, [&] {
    bsp::xty(basis.view(), rhs.view(), gram.view(), chunk);
  });
  const auto xy = repeat(tracer, "bsp.xy", reps, [&] {
    bsp::xy(basis.view(), z.view(), prod.view(), chunk);
  });
  out.add_median("bsp.spmv_csr_s", spmv_csr, "s");
  out.add_median("bsp.spmv_csb_s", spmv_csb, "s");
  out.add_median("bsp.spmm_csr_s", spmm_csr, "s");
  out.add_median("bsp.spmm_csb_s", spmm_csb, "s");
  out.add_median("bsp.xty_s", xty, "s");
  out.add_median("bsp.xy_s", xy, "s");
  // Compulsory traffic of one CSB SpMV: the matrix streams once, x is
  // read and y written once.
  const double bytes = static_cast<double>(csb.memory_bytes()) +
                       2.0 * 8.0 * static_cast<double>(m);
  out.add("bsp.spmv_csb_gbps", bytes / median(spmv_csb) * 1e-9, "GB/s",
          spmv_csb.size());
}

void probe_la(MetricSet& out, Tracer& tracer, const sts::sparse::Csr& matrix,
              index_t block, unsigned workers, int reps) {
  const sts::sparse::Csr csr = dominant_copy(matrix);
  sts::sparse::Ic0Result ic0;
  const auto factor = repeat(tracer, "sparse.ic0_factor", reps,
                             [&] { ic0 = sts::sparse::ic0_factor(csr); });
  const sts::sparse::Csb lower =
      sts::sparse::Csb::from_csr(ic0.lower, block);
  sts::la::SptrsvPlan plan;
  const auto plan_s = repeat(tracer, "la.sptrsv_plan", reps, [&] {
    plan = sts::la::SptrsvPlan::build(lower);
  });
  const DenseMatrix b = random_matrix(csr.rows(), 1, 21);
  // One IC(0) application, as in every PCG iteration: L w = b, L^T x = w.
  DenseMatrix w(csr.rows(), 1, true);
  DenseMatrix seq(csr.rows(), 1, true);
  DenseMatrix dag(csr.rows(), 1, true);
  const auto seq_s = repeat(tracer, "la.sptrsv_seq", reps, [&] {
    sts::la::sptrsv_forward(lower, plan, b.flat(), w.flat());
    sts::la::sptrsv_backward(lower, plan, w.flat(), seq.flat());
  });
  sts::flux::Scheduler pool(pool_config(workers));
  const auto dag_s = repeat(tracer, "la.sptrsv_dag", reps, [&] {
    sts::la::sptrsv_forward(lower, plan, b.flat(), w.flat(), pool, nullptr);
    sts::la::sptrsv_backward(lower, plan, w.flat(), dag.flat(), pool,
                             nullptr);
  });
  pool.wait_for_quiescence();
  // The DAG schedule must reproduce the sequential sweep bit for bit.
  const auto s = seq.flat();
  const auto d = dag.flat();
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != d[i]) throw std::runtime_error("DAG SpTRSV != sequential");
  }
  out.add_median("sparse.ic0_factor_s", factor, "s");
  out.add_median("la.sptrsv_plan_s", plan_s, "s");
  out.add_median("la.sptrsv_seq_s", seq_s, "s");
  out.add_median("la.sptrsv_dag_s", dag_s, "s");
  out.add("la.sptrsv_level_span", static_cast<double>(plan.level_span()),
          "count");
  out.add("la.sptrsv_max_level_width",
          static_cast<double>(plan.max_level_width()), "count");
}

void probe_flux(MetricSet& out, Tracer& tracer, unsigned workers, int reps) {
  namespace flux = sts::flux;
  std::vector<double> start;
  for (int r = 0; r < reps; ++r) {
    std::unique_ptr<flux::Scheduler> pool;
    start.push_back(tracer.time("flux.pool_start", -1, [&] {
      pool = std::make_unique<flux::Scheduler>(pool_config(workers));
    }));
  }
  out.add_median("flux.pool_start_s", start, "s");

  flux::Scheduler pool(pool_config(workers));
  constexpr int kSpawns = 4096;
  std::atomic<int> ran{0};
  const auto spawn = repeat(tracer, "flux.spawn", reps, [&] {
    for (int i = 0; i < kSpawns; ++i) pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait_for_quiescence();
  });
  if (ran.load() != kSpawns * reps) {
    throw std::runtime_error("flux spawn probe lost tasks");
  }
  out.add_median("flux.spawn_ns", spawn, "ns", 1e9 / kSpawns);

  constexpr int kHops = 1024;
  const auto hop = repeat(tracer, "flux.dataflow_chain", reps, [&] {
    flux::shared_future<void> chain = flux::make_ready_future();
    for (int i = 0; i < kHops; ++i) {
      chain = flux::dataflow(pool, flux::unwrapping([] {}), chain).share();
    }
    chain.get();
    pool.wait_for_quiescence();
  });
  out.add_median("flux.dataflow_hop_ns", hop, "ns", 1e9 / kHops);
}

void probe_rgt(MetricSet& out, Tracer& tracer, unsigned workers, int reps) {
  namespace rgt = sts::rgt;
  constexpr std::int32_t kPieces = 64;
  std::vector<double> data(4096, 0.0);
  rgt::Runtime rt({.cpu_workers = workers});
  const rgt::RegionId region = rt.register_region(data, "d");
  rt.partition_equal(region, kPieces);
  const auto launch = repeat(tracer, "rgt.launch", reps, [&] {
    for (std::int32_t p = 0; p < kPieces; ++p) {
      rt.execute({[](rgt::TaskContext&) {},
                  {{region, p, rgt::Privilege::kReadWrite}},
                  "probe"});
    }
    rt.wait_all();
  });
  out.add_median("rgt.launch_ns", launch, "ns", 1e9 / kPieces);
}

} // namespace perfbench
