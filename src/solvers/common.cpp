#include "solvers/common.hpp"

#include "flux/scheduler.hpp"
#include "support/error.hpp"

namespace sts::solver {

namespace {

/// Returns the scheduler a kFlux solve should run on: options.flux_pool
/// when set (after validating its domain count against
/// options.numa_domains), otherwise a private scheduler constructed into
/// `owned` from the options' thread/NUMA configuration.
flux::Scheduler& acquire_flux_pool(const SolverOptions& options,
                                   std::unique_ptr<flux::Scheduler>& owned) {
  if (options.flux_pool != nullptr) {
    if (options.flux_pool->domain_count() != options.numa_domains) {
      throw support::Error(
          "solver options: flux_pool has " +
          std::to_string(options.flux_pool->domain_count()) +
          " NUMA domains but options.numa_domains is " +
          std::to_string(options.numa_domains));
    }
    return *options.flux_pool;
  }
  owned = std::make_unique<flux::Scheduler>(flux::Scheduler::Config{
      .threads = options.threads,
      .numa_domains = options.numa_domains,
      .numa_aware = options.numa_domains > 1,
      // Private pools honor STS_AFFINITY too, so a bare solver call on a
      // multi-node machine pins its workers just like the service does.
      .affinity = flux::Scheduler::Config::affinity_from_env()});
  return *owned;
}

} // namespace

FluxSolve::FluxSolve(const sparse::Csb& a, const SolverOptions& options)
    : stf_(acquire_flux_pool(options, owned_)), quiesce_(stf_.scheduler()),
      a_(&a), skip_empty_(options.skip_empty_blocks),
      dmap_(a.partition_block_rows(options.numa_domains)),
      numa_(options.numa_domains > 1), trace_(options.trace) {}

void FluxSolve::spmm(graph::KernelKind kind, la::DenseMatrix* x, int dx,
                     la::DenseMatrix* y, int dy) {
  const sparse::Csb* a = a_;
  const index_t np = a->block_rows();
  for (index_t bi = 0; bi < np; ++bi) {
    task(graph::KernelKind::kZero, bi,
         [a, y, bi] { sparse::csb_block_zero(*a, bi, y->view()); },
         {flux::write(dy, bi)});
  }
  for (index_t bi = 0; bi < np; ++bi) {
    for (index_t bj = 0; bj < np; ++bj) {
      if (skip_empty_ && a->block_empty(bi, bj)) continue;
      task(kind, bi,
           [a, x, y, bi, bj] {
             sparse::csb_block_spmm(*a, bi, bj, x->view(), y->view());
           },
           {flux::read(dx, bj), flux::write(dy, bi)});
    }
  }
}

sparse::Csb::DomainMap place_csb(sparse::Csb& csb, flux::Scheduler& sched) {
  const sparse::Csb::DomainMap map =
      csb.partition_block_rows(sched.domain_count());
  if (sched.domain_count() <= 1) return map; // nothing to migrate
  csb.place_stripes(
      map,
      [&sched](int domain, std::function<void()> work) {
        sched.submit(flux::Task(std::move(work)), domain);
      },
      [&sched] { sched.wait_for_quiescence(); });
  return map;
}

const char* to_string(Version v) {
  switch (v) {
    case Version::kLibCsr: return "libcsr";
    case Version::kLibCsb: return "libcsb";
    case Version::kDs: return "deepsparse";
    case Version::kFlux: return "hpx-flux";
    case Version::kRgt: return "regent-rgt";
  }
  return "?";
}

const char* to_string(SolverStatus s) {
  switch (s) {
    case SolverStatus::kOk: return "ok";
    case SolverStatus::kBreakdown: return "breakdown";
    case SolverStatus::kNotFinite: return "not_finite";
  }
  return "?";
}

void validate(const SolverOptions& options) {
  if (options.block_size <= 0) {
    throw support::Error("solver options: block_size must be positive, got " +
                         std::to_string(options.block_size));
  }
  if (options.threads == 0) {
    throw support::Error("solver options: threads must be positive");
  }
  if (options.numa_domains == 0) {
    throw support::Error("solver options: numa_domains must be >= 1");
  }
  if (options.ckpt_every < 0) {
    throw support::Error("solver options: ckpt_every must be >= 0, got " +
                         std::to_string(options.ckpt_every));
  }
}

} // namespace sts::solver
