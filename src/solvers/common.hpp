// Shared types for the Lanczos / LOBPCG solver drivers.
//
// Every solver exists in five execution versions, matching the paper's
// comparison set:
//   kLibCsr  - BSP, thread-parallel kernels on CSR        ("libcsr")
//   kLibCsb  - BSP, thread-parallel kernels on CSB        ("libcsb")
//   kDs      - DeepSparse: explicit TDG + OpenMP tasks
//   kFlux    - HPX-style futures/dataflow                  ("hpx")
//   kRgt     - Regent-style regions/privileges             ("regent")
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>

#include "flux/scheduler.hpp"
#include "flux/stf.hpp"
#include "la/dense.hpp"
#include "obs/obs.hpp"
#include "perf/trace.hpp"
#include "rgt/runtime.hpp"
#include "sparse/csb.hpp"
#include "sparse/csr.hpp"
#include "support/cancel.hpp"
#include "support/timer.hpp"

namespace sts::solver::ckpt {
struct Checkpoint;
}

namespace sts::solver {

using la::index_t;

enum class Version { kLibCsr, kLibCsb, kDs, kFlux, kRgt };

[[nodiscard]] const char* to_string(Version v);

/// How a solver run ended. Anything other than kOk means the returned
/// result is truncated at the last numerically sound iteration — still
/// valid data, never NaN Ritz values or a crash.
enum class SolverStatus : std::uint8_t {
  kOk,        // ran to the requested iteration/convergence criterion
  kBreakdown, // Lanczos beta ~ 0 (invariant subspace) or singular
              // Rayleigh-Ritz Gram matrix: iteration stopped early
  kNotFinite, // NaN/Inf detected in iterates; results before the
              // contamination point are kept
};

[[nodiscard]] const char* to_string(SolverStatus s);

/// All versions in the paper's presentation order.
inline constexpr Version kAllVersions[] = {
    Version::kLibCsr, Version::kLibCsb, Version::kDs, Version::kFlux,
    Version::kRgt};

struct SolverOptions {
  /// CSB block size == uniform partitioning factor for vector kernels.
  index_t block_size = 4096;
  /// Worker threads for the task runtimes / OpenMP.
  unsigned threads = 2;
  /// Create no tasks for empty CSB blocks (paper Fig. 6).
  bool skip_empty_blocks = true;
  /// Dependency-based (true) vs reduction-based (false) SpMM output
  /// updates (paper Fig. 7). Reduction variant supported by ds and rgt.
  bool dependency_based_spmm = true;
  /// Parallel first-touch initialization of vectors (paper Fig. 5).
  bool first_touch = true;
  /// NUMA domains exposed to the flux scheduler (>=2 enables the
  /// NUMA-aware scheduling hints the paper discusses for HPX on EPYC).
  unsigned numa_domains = 1;
  /// Optional execution trace for flow graphs.
  perf::TraceRecorder* trace = nullptr;
  std::uint64_t seed = 42;
  /// Cooperative cancellation: polled at every iteration boundary (all
  /// runtimes are quiescent there); a request surfaces as support::Cancelled
  /// from the solver call. Null = not cancellable.
  const support::CancelToken* cancel = nullptr;
  /// External work-stealing pool for the kFlux version. When set, the solver
  /// submits to this long-lived pool instead of spinning up a private one
  /// (the pool's thread/domain configuration wins over `threads`, and
  /// `numa_domains` must match the pool's domain count); on any exit —
  /// normal, breakdown, fault, or cancellation — the solver quiesces the
  /// pool and consumes its latched error, leaving it reusable for the next
  /// solve. Null = per-call private scheduler (the historical behaviour).
  flux::Scheduler* flux_pool = nullptr;
  /// Crash resilience (DESIGN.md §12). When non-empty, the solver writes a
  /// versioned, CRC-guarded checkpoint of its iteration state here —
  /// atomically (temp file + fsync + rename) — every effective_every()
  /// accepted iterations, at the same iteration boundaries where the
  /// cancel token is polled. A failed write is contained: counted in
  /// solver.ckpt_errors, previous checkpoint intact, solve continues.
  std::string ckpt_path;
  /// Checkpoint period; 0 defers to STS_CKPT_EVERY (default 10).
  int ckpt_every = 0;
  /// When set, the solver validates the checkpoint against this solve
  /// (kind, shape, seed) and resumes from its iteration counter instead of
  /// iteration 0 — bit-identical to an uninterrupted run under the same
  /// options whenever the kernel schedule is deterministic. Not owned.
  const ckpt::Checkpoint* restore = nullptr;
};

/// Iteration-boundary cancellation poll: throws support::Cancelled when
/// options.cancel has been requested. Every version of every solver calls
/// this at the top of its iteration loop.
inline void poll_cancel(const SolverOptions& options) {
  if (options.cancel != nullptr) options.cancel->throw_if_requested();
}

/// Wraps a flux task body so every run publishes one perf::TaskEvent to the
/// unified event stream (bench recorder, Chrome trace, latency histograms).
/// The event names the running thread's worker index, or -1 for a thread
/// outside the pool that runs the body while helping inside
/// future::get(&sched); publish_task routes -1 to the recorder's mutexed
/// overflow lane, so a helper never races worker 0 on its unsynchronized
/// lane.
template <typename Fn>
auto flux_traced(const flux::Scheduler& sched, perf::TraceRecorder* trace,
                 graph::KernelKind kind, std::int32_t id, Fn fn) {
  return [&sched, trace, kind, id, fn = std::move(fn)]() {
    const obs::prof::TaskMark mark("flux", kind);
    if (trace == nullptr && !obs::task_timing_enabled()) {
      fn();
      return;
    }
    perf::TaskEvent ev;
    ev.kind = kind;
    ev.task_id = id;
    ev.worker = sched.current_worker();
    ev.start_ns = support::now_ns();
    fn();
    ev.end_ns = support::now_ns();
    obs::publish_task("flux", ev, trace);
  };
}

/// flux_traced() for rgt task bodies. The event names the running slot: a
/// pool worker, or the launcher's extra slot while it helps in wait_all().
template <typename Fn>
auto rgt_traced(perf::TraceRecorder* trace, graph::KernelKind kind,
                std::int32_t id, Fn fn) {
  return [trace, kind, id, fn = std::move(fn)](rgt::TaskContext& ctx) {
    const obs::prof::TaskMark mark("rgt", kind);
    if (trace == nullptr && !obs::task_timing_enabled()) {
      fn(ctx);
      return;
    }
    perf::TaskEvent ev;
    ev.kind = kind;
    ev.task_id = id;
    ev.worker = std::max(0, ctx.worker());
    ev.start_ns = support::now_ns();
    fn(ctx);
    ev.end_ns = support::now_ns();
    obs::publish_task("rgt", ev, trace);
  };
}

/// What a kFlux driver runs on: options.flux_pool or a private scheduler,
/// and the STF layer (flux/stf.hpp) that infers every task's dependencies from
/// its declared accesses. A task on block row p gets p's domain hint — the
/// same nnz-balanced stripe map place_csb() uses, so it runs on the node
/// that holds its stripe's pages — and a flux_traced() wrapper with id p.
/// If the driver unwinds (cancellation, a task fault), the destructor
/// quiesces the scheduler; declare everything the tasks touch before it.
class FluxSolve {
public:
  FluxSolve(const sparse::Csb& a, const SolverOptions& options);

  [[nodiscard]] flux::Scheduler& scheduler() const {
    return stf_.scheduler();
  }

  /// Registers an object of `pieces` pieces (block rows, or 1).
  int data(index_t pieces) { return stf_.data(pieces); }

  /// Rows in block row p (the last one may be short).
  [[nodiscard]] index_t rows_in(index_t p) const {
    const index_t b = a_->block_size();
    return std::min(b, a_->rows() - p * b);
  }

  /// Inserts `fn` for block row `row`; row -1 marks a task over whole
  /// objects (a reduction or a small dense step): no hint, trace id -1.
  template <typename Fn>
  flux::Stf::Fut task(graph::KernelKind kind, index_t row, Fn fn,
                      std::initializer_list<flux::Access> accesses) {
    const int hint = row >= 0 && numa_ ? dmap_.owner(row) : -1;
    return stf_.insert(hint,
                       flux_traced(scheduler(), trace_, kind,
                                   static_cast<std::int32_t>(row),
                                   std::move(fn)),
                       accesses);
  }

  /// y = A x for the solve's matrix: per output block row, a zero task and
  /// then a chain of `kind` block products, skipping empty blocks when the
  /// options ask. `dx`/`dy` are the handles of x and y (one piece per row).
  void spmm(graph::KernelKind kind, la::DenseMatrix* x, int dx,
            la::DenseMatrix* y, int dy);

  /// Host access to tracked objects (see flux::Stf::sync).
  void sync(std::initializer_list<flux::Access> accesses) {
    stf_.sync(accesses);
  }

  /// Normal exit: waits for every task and rethrows a task failure.
  void finish() {
    quiesce_.dismiss();
    scheduler().wait_for_quiescence();
  }

private:
  std::unique_ptr<flux::Scheduler> owned_; // empty on a shared pool
  flux::Stf stf_;
  flux::QuiesceOnExit quiesce_;
  const sparse::Csb* a_;
  bool skip_empty_;
  sparse::Csb::DomainMap dmap_;
  bool numa_;
  perf::TraceRecorder* trace_;
};

/// First-touch placement of `csb`'s domain stripes onto `sched`'s domains:
/// partitions the block rows (nnz-balanced), then re-materializes each
/// stripe from a task pinned to its owning domain (Csb::place_stripes).
/// With one domain this is a no-op partition — no copy. Returns the map so
/// callers can hand matching hints to the solvers; the solvers themselves
/// recompute the identical map from (matrix, numa_domains).
sparse::Csb::DomainMap place_csb(sparse::Csb& csb, flux::Scheduler& sched);

/// Throws support::Error if the options are unusable (non-positive block
/// size or thread count, zero NUMA domains). Called by every solver driver
/// before touching a runtime, so misconfiguration surfaces as a catchable
/// error instead of a contract abort deep inside a kernel.
void validate(const SolverOptions& options);

struct IterationTiming {
  double total_seconds = 0.0;   // solver loop only (setup excluded)
  double graph_build_seconds = 0.0; // ds only: TDG build + ds::prepare
  int iterations = 0;
  [[nodiscard]] double per_iteration() const {
    return iterations > 0 ? total_seconds / iterations : 0.0;
  }
};

} // namespace sts::solver
