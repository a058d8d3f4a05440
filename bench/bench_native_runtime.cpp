// Ground truth on this host: real wall-clock of all five versions of both
// solvers on this machine's cores (complementing the machine-model
// simulations that regenerate the paper's figures).
#include "bench_common.hpp"

#include "solvers/lanczos.hpp"
#include "solvers/lobpcg.hpp"

#include <thread>

int main() {
  using namespace sts;
  const unsigned threads =
      std::max(1u, std::thread::hardware_concurrency());
  bench::print_header("Native wall-clock on this host (" +
                      std::to_string(threads) + " threads)");

  support::Table t({"matrix", "solver", "version", "time/iter (ms)",
                    "graph build (ms)"});
  for (const std::string& name : bench::matrix_names()) {
    const bench::BenchMatrix m = bench::load(name);
    for (solver::Version v : solver::kAllVersions) {
      const la::index_t block =
          tune::recommended_block_size(v, threads, m.coo.rows());
      sparse::Csb csb = sparse::Csb::from_coo(m.coo, block);

      solver::SolverOptions lo;
      lo.block_size = block;
      lo.threads = threads;
      const auto lr = solver::lanczos(m.csr, csb, 5, v, lo);
      t.row()
          .add(name)
          .add("lanczos")
          .add(solver::to_string(v))
          .add(lr.timing.per_iteration() * 1e3, 3)
          .add(lr.timing.graph_build_seconds * 1e3, 3);

      solver::LobpcgOptions bo;
      bo.block_size = block;
      bo.threads = threads;
      bo.nev = 8;
      // Out of reach but positive (validation rejects 0): every run takes
      // the fixed iteration count.
      bo.tolerance = 1e-300;
      const auto br = solver::lobpcg(m.csr, csb, 3, v, bo);
      t.row()
          .add(name)
          .add("lobpcg")
          .add(solver::to_string(v))
          .add(br.timing.per_iteration() * 1e3, 3)
          .add(br.timing.graph_build_seconds * 1e3, 3);
    }
  }
  t.print(std::cout);
  t.write_csv_file("native_runtime.csv");
  return 0;
}
