// Fig. 5: effect of the first-touch placement policy on DeepSparse Lanczos.
// The paper reports up to 2.5x for small and mid-sized matrices on EPYC
// (8 NUMA domains).
//
// Two parts:
//   1. The simulator study on the EPYC model (the paper's configuration,
//      independent of the host) -> fig5_first_touch.csv, as before.
//   2. A native microbench on the real flux scheduler: block-row SpMV with
//      no hints on a flat scheduler vs. owner-hinted tasks on a NUMA-aware
//      one over a domain-partitioned (place_csb) CSB. Per-tier steal counts
//      from Scheduler::stats() are exported as counters so the JSON shows
//      pinned+owned doing strictly fewer cross-domain steals than the
//      unpinned baseline -> BENCH_numa.json (override: $STS_BENCH_JSON).
#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "flux/scheduler.hpp"
#include "sparse/csb.hpp"
#include "support/topology.hpp"

namespace {

using namespace sts;

void run_sim_table() {
  bench::print_header(
      "Fig 5: DeepSparse Lanczos on EPYC w.r.t. first-touch policy");

  const sim::MachineModel machine = sim::MachineModel::epyc7h12();
  support::Table t({"matrix", "no first-touch (s)", "first-touch (s)",
                    "improvement"});
  for (const std::string& name : bench::matrix_names()) {
    const bench::BenchMatrix m = bench::load(name);
    const la::index_t block =
        bench::pick_block(solver::Version::kDs, machine, m.coo.rows());
    const sim::Workload wl =
        bench::build_workload(bench::Solver::kLanczos, m, block);

    sim::SimOptions off;
    off.first_touch = false;
    const sim::SimResult r_off =
        bench::simulate_version(solver::Version::kDs, wl, machine, off);
    sim::SimOptions on;
    on.first_touch = true;
    const sim::SimResult r_on =
        bench::simulate_version(solver::Version::kDs, wl, machine, on);

    t.row()
        .add(name)
        .add(r_off.makespan_seconds, 5)
        .add(r_on.makespan_seconds, 5)
        .add(r_off.makespan_seconds / r_on.makespan_seconds, 2);
  }
  t.print(std::cout);
  t.write_csv_file("fig5_first_touch.csv");
}

// Native comparison. `owned` selects the full topology path: NUMA-aware
// hierarchical stealing, STS_AFFINITY pinning, place_csb stripe placement,
// and owner domain hints on every block-row task. The baseline keeps the
// same worker/domain split but flat stealing, no pinning, and no hints, so
// the counter deltas isolate the placement + hint policy.
void run_spmv(benchmark::State& state, bool owned) {
  const unsigned domains =
      std::max(2u, support::topo::machine().node_count());
  const unsigned threads = 2 * domains; // >= 2 workers per domain

  const bench::BenchMatrix m = bench::load(bench::matrix_names().front());
  const la::index_t block =
      tune::recommended_block_size(solver::Version::kFlux, threads,
                                   m.coo.rows());
  sparse::Csb a = sparse::Csb::from_coo(m.coo, block);

  flux::Scheduler::Config cfg;
  cfg.threads = threads;
  cfg.numa_domains = domains;
  cfg.numa_aware = owned;
  cfg.affinity = owned ? flux::Scheduler::Config::affinity_from_env()
                       : flux::Affinity::kOff;
  flux::Scheduler sched(cfg);

  sparse::Csb::DomainMap dmap = a.partition_block_rows(domains);
  if (owned) dmap = solver::place_csb(a, sched);

  const la::index_t nbr = a.block_rows();
  const la::index_t nbc = a.block_cols();
  std::vector<double> x(static_cast<std::size_t>(a.cols()), 1.0);
  std::vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);

  for (auto _ : state) {
    for (la::index_t bi = 0; bi < nbr; ++bi) {
      const int hint = owned ? dmap.owner(bi) : -1;
      sched.submit(flux::Task([&a, &x, &y, bi, nbc] {
        sparse::csb_block_zero(a, bi, std::span<double>(y));
        for (la::index_t bj = 0; bj < nbc; ++bj) {
          sparse::csb_block_spmv(a, bi, bj, x, y);
        }
      }), hint);
    }
    sched.wait_for_quiescence();
    benchmark::DoNotOptimize(y.data());
  }

  const flux::Scheduler::Stats st = sched.stats();
  state.counters["domains"] = static_cast<double>(domains);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["steals"] = static_cast<double>(st.steals);
  state.counters["steals_sibling"] = static_cast<double>(st.steals_sibling);
  state.counters["steals_local"] = static_cast<double>(st.steals_local);
  state.counters["steals_remote"] = static_cast<double>(st.steals_remote);
}

void BM_CsbSpmvUnpinnedFlat(benchmark::State& state) {
  run_spmv(state, /*owned=*/false);
}

void BM_CsbSpmvPinnedOwned(benchmark::State& state) {
  run_spmv(state, /*owned=*/true);
}

BENCHMARK(BM_CsbSpmvUnpinnedFlat)->UseRealTime();
BENCHMARK(BM_CsbSpmvPinnedOwned)->UseRealTime();

} // namespace

int main(int argc, char** argv) {
  run_sim_table();
  return sts::benchjson::run(argc, argv, "BENCH_numa.json");
}
