// Per-layer probes for the traced run. Each probe calls one layer's public
// entry points standalone — on the workload's own matrix where the layer
// touches one — and records a span per call plus the layer metrics.
#pragma once

#include "flux/scheduler.hpp"
#include "harness.hpp"
#include "sparse/csb.hpp"
#include "sparse/csr.hpp"

namespace perfbench {

/// A plain (unpinned, single-domain) flux pool of `threads` workers.
[[nodiscard]] inline sts::flux::Scheduler::Config pool_config(
    unsigned threads) {
  sts::flux::Scheduler::Config config;
  config.threads = threads;
  return config;
}

/// bsp: SpMV/SpMM on CSR and CSB, XTY and XY, at `workers` OpenMP threads.
/// `basis_cols` x `rhs_cols` is the workload's dense-kernel shape (Lanczos:
/// the 61-column basis against one vector; LOBPCG: 8 x 8 blocks).
void probe_bsp(MetricSet& out, Tracer& tracer, const sts::sparse::Csr& csr,
               const sts::sparse::Csb& csb, sts::la::index_t basis_cols,
               sts::la::index_t rhs_cols, unsigned workers, int reps);

/// la + sparse.ic0: IC(0) factor, SpTRSV plan, and one forward + backward
/// sweep sequentially and as a flux DAG on a `workers`-thread pool, on
/// `csr` made strictly diagonally dominant (same pattern, so the same
/// dependency DAG) so that every workload's matrix factors.
void probe_la(MetricSet& out, Tracer& tracer, const sts::sparse::Csr& csr,
              sts::la::index_t block, unsigned workers, int reps);

/// flux: pool start-up, external spawn cost, dependent dataflow hop cost.
void probe_flux(MetricSet& out, Tracer& tracer, unsigned workers, int reps);

/// rgt: launch cost of an independent task through the dependence analyzer.
void probe_rgt(MetricSet& out, Tracer& tracer, unsigned workers, int reps);

} // namespace perfbench
