#include "solvers/cg.hpp"

#include <cmath>
#include <utility>

#include "bsp/kernels.hpp"
#include "la/blas.hpp"
#include "la/sptrsv.hpp"
#include "obs/obs.hpp"
#include "solvers/checkpoint.hpp"
#include "sparse/ic0.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace sts::solver {

namespace {

/// Loss-of-positivity floor: p^T A p at or below it means A (or the
/// preconditioned operator) stopped looking SPD and the step length would
/// be garbage.
constexpr double kPositivityFloor = 0.0;

// ---- CSR triangular solves (the libcsr preconditioner path) --------------

/// x = L^-1 b over the lower-triangular CSR factor. Row entries are sorted
/// by column with the diagonal last (Csr::from_coo sorts; IC(0) patterns
/// always retain the diagonal). x must not alias b.
void csr_trsv_forward(const sparse::Csr& l, std::span<const double> b,
                      std::span<double> x) {
  const auto rp = l.rowptr();
  const auto ci = l.colidx();
  const auto va = l.values();
  const index_t n = l.rows();
  for (index_t i = 0; i < n; ++i) {
    const std::int64_t lo = rp[static_cast<std::size_t>(i)];
    const std::int64_t hi = rp[static_cast<std::size_t>(i) + 1];
    double acc = b[static_cast<std::size_t>(i)];
    for (std::int64_t t = lo; t < hi - 1; ++t) {
      acc -= va[static_cast<std::size_t>(t)] *
             x[static_cast<std::size_t>(ci[static_cast<std::size_t>(t)])];
    }
    x[static_cast<std::size_t>(i)] =
        acc / va[static_cast<std::size_t>(hi - 1)];
  }
}

/// x = L^-T b, column-oriented: row i of L is column i of L^T, so each
/// solved entry scatters into the rows above it. x and b may alias.
void csr_trsv_backward(const sparse::Csr& l, std::span<const double> b,
                       std::span<double> x) {
  if (x.data() != b.data()) std::copy(b.begin(), b.end(), x.begin());
  const auto rp = l.rowptr();
  const auto ci = l.colidx();
  const auto va = l.values();
  for (index_t i = l.rows(); i-- > 0;) {
    const std::int64_t lo = rp[static_cast<std::size_t>(i)];
    const std::int64_t hi = rp[static_cast<std::size_t>(i) + 1];
    const double xi = x[static_cast<std::size_t>(i)] /
                      va[static_cast<std::size_t>(hi - 1)];
    x[static_cast<std::size_t>(i)] = xi;
    for (std::int64_t t = lo; t < hi - 1; ++t) {
      x[static_cast<std::size_t>(ci[static_cast<std::size_t>(t)])] -=
          va[static_cast<std::size_t>(t)] * xi;
    }
  }
}

// ---- preconditioner ------------------------------------------------------

/// One preconditioner instance, built once per solve. The IC(0) factor is
/// kept in both layouts: CSR for the libcsr baseline's sequential solves,
/// CSB (+ the SpTRSV plan) for the blocked and DAG-scheduled paths.
struct Preconditioner {
  Precond kind = Precond::kNone;
  std::vector<double> inv_diag; // jacobi
  sparse::Csr lower_csr;        // ic0
  sparse::Csb lower_csb;        // ic0, CSB block grid
  la::SptrsvPlan plan;          // ic0, block DAG + levels
  std::vector<double> tmp;      // L^-1 r staging between the two solves
  double shift = 0.0;
};

Preconditioner make_precond(const sparse::Csr& a, Precond kind,
                            index_t block_size) {
  Preconditioner pre;
  pre.kind = kind;
  if (kind == Precond::kJacobi) {
    pre.inv_diag = sparse::diagonal(a);
    for (double& d : pre.inv_diag) d = 1.0 / d;
  } else if (kind == Precond::kIc0) {
    sparse::Ic0Result fac = sparse::ic0_factor(a);
    pre.shift = fac.shift;
    pre.lower_csb = sparse::Csb::from_csr(fac.lower, block_size);
    pre.lower_csr = std::move(fac.lower);
    pre.plan = la::SptrsvPlan::build(pre.lower_csb);
    pre.tmp.assign(static_cast<std::size_t>(a.rows()), 0.0);
  }
  return pre;
}

/// How apply() runs the IC(0) triangular solves.
enum class TrsvMode { kCsr, kCsbSequential, kCsbDag };

/// z = M^-1 r. `sched`/`dmap` are only read in kCsbDag mode.
void apply_precond(Preconditioner& pre, TrsvMode mode,
                   std::span<const double> r, std::span<double> z,
                   flux::Scheduler* sched, const sparse::Csb::DomainMap* dmap) {
  switch (pre.kind) {
    case Precond::kNone:
      std::copy(r.begin(), r.end(), z.begin());
      return;
    case Precond::kJacobi: {
      const std::vector<double>& d = pre.inv_diag;
      for (std::size_t i = 0; i < z.size(); ++i) z[i] = r[i] * d[i];
      return;
    }
    case Precond::kIc0:
      switch (mode) {
        case TrsvMode::kCsr:
          csr_trsv_forward(pre.lower_csr, r, pre.tmp);
          csr_trsv_backward(pre.lower_csr, pre.tmp, z);
          return;
        case TrsvMode::kCsbSequential:
          la::sptrsv_forward(pre.lower_csb, pre.plan, r, pre.tmp);
          la::sptrsv_backward(pre.lower_csb, pre.plan, pre.tmp, z);
          return;
        case TrsvMode::kCsbDag:
          la::sptrsv_forward(pre.lower_csb, pre.plan, r, pre.tmp, *sched,
                             dmap);
          la::sptrsv_backward(pre.lower_csb, pre.plan, pre.tmp, z, *sched,
                              dmap);
          return;
      }
  }
}

// ---- shared state + checkpointing ----------------------------------------

struct State {
  index_t m = 0;
  double norm_b = 0.0;
  double rho = 0.0; // r . z at the current iteration boundary
  std::vector<double> b, x, r, p, z, q;
};

State make_state(index_t m, const SolverOptions& options) {
  State s;
  s.m = m;
  const std::size_t n = static_cast<std::size_t>(m);
  s.b.resize(n);
  support::Xoshiro256 rng(options.seed);
  for (double& v : s.b) v = rng.uniform(-1.0, 1.0);
  s.norm_b = la::nrm2(s.b);
  s.x.assign(n, 0.0);
  s.r = s.b;
  s.p.assign(n, 0.0);
  s.z.assign(n, 0.0);
  s.q.assign(n, 0.0);
  return s;
}

/// Applies options.restore (when set): x/r/p/rho come from the checkpoint,
/// b is regenerated from the (validated) seed. Returns the iteration to
/// resume from.
int apply_restore(const SolverOptions& options, State& s) {
  if (options.restore == nullptr) return 0;
  const ckpt::Checkpoint& c = *options.restore;
  if (c.kind != ckpt::Kind::kCg) {
    throw support::Error(std::string("cg restore: checkpoint holds ") +
                         ckpt::to_string(c.kind) + " state");
  }
  const ckpt::CgState& st = c.cg;
  if (st.m != s.m) {
    throw support::Error("cg restore: checkpoint system size " +
                         std::to_string(st.m) + ", this solve needs " +
                         std::to_string(s.m));
  }
  if (st.seed != options.seed) {
    throw support::Error("cg restore: checkpoint seed " +
                         std::to_string(st.seed) + " != options.seed " +
                         std::to_string(options.seed));
  }
  s.x = st.x;
  s.r = st.r;
  s.p = st.p;
  s.rho = st.rho;
  obs::counter("solver.ckpt_restores").add();
  return static_cast<int>(st.iterations);
}

/// ckpt::save_if_due for CG; a flux solve passes its scheduler as `drain`,
/// whose tail tasks may still write x/r/p until it quiesces.
void maybe_checkpoint(const SolverOptions& options, const State& s,
                      int completed, int every,
                      flux::Scheduler* drain = nullptr) {
  ckpt::save_if_due(options.ckpt_path, completed, every, [&] {
    if (drain != nullptr) drain->wait_for_quiescence();
    ckpt::Checkpoint c;
    c.kind = ckpt::Kind::kCg;
    ckpt::CgState& st = c.cg;
    st.seed = options.seed;
    st.m = s.m;
    st.iterations = completed;
    st.rho = s.rho;
    st.x = s.x;
    st.r = s.r;
    st.p = s.p;
    return c;
  });
}

void publish_residual(double rel) {
  // Gauges carry integers; parts-per-billion keeps 9 digits of a relative
  // residual visible on the scrape endpoint without a float gauge type.
  obs::gauge("cg.residual_ppb")
      .observe(static_cast<std::int64_t>(rel * 1e9));
}

// --------------------------------------------------------------------------
// BSP versions (libcsr / libcsb)
// --------------------------------------------------------------------------

CgResult run_bsp(const sparse::Csr* csr, const sparse::Csb& csb,
                 const CgOptions& cg_options, const SolverOptions& options,
                 Preconditioner& pre) {
  State s = make_state(csb.rows(), options);
  const TrsvMode mode =
      csr != nullptr ? TrsvMode::kCsr : TrsvMode::kCsbSequential;
  const char* label = csr != nullptr ? "cg.libcsr" : "cg.libcsb";

  CgResult result;
  const int start = apply_restore(options, s);
  const int every = ckpt::effective_every(options.ckpt_every);
  if (start == 0) {
    apply_precond(pre, mode, s.r, s.z, nullptr, nullptr);
    s.p = s.z;
    s.rho = bsp::dot(s.r, s.z);
  }
  double rel = la::nrm2(s.r) / s.norm_b;

  const support::Timer timer;
  for (int i = start; i < cg_options.max_iterations && rel > cg_options.tol;
       ++i) {
    poll_cancel(options);
    obs::IterScope iter(label, i);
    if (csr != nullptr) {
      bsp::spmv(*csr, s.p, s.q);
    } else {
      bsp::spmv(csb, s.p, s.q);
    }
    const double pq = bsp::dot(s.p, s.q);
    if (!std::isfinite(pq)) {
      result.status = SolverStatus::kNotFinite;
      break;
    }
    if (pq <= kPositivityFloor) {
      result.status = SolverStatus::kBreakdown;
      break;
    }
    const double alpha = s.rho / pq;
    bsp::axpy(alpha, s.p, s.x);
    bsp::axpy(-alpha, s.q, s.r);
    apply_precond(pre, mode, s.r, s.z, nullptr, nullptr);
    const double rho_new = bsp::dot(s.r, s.z);
    const double rr = bsp::dot(s.r, s.r);
    if (!std::isfinite(rho_new) || !std::isfinite(rr)) {
      result.status = SolverStatus::kNotFinite;
      break;
    }
    const double beta = rho_new / s.rho;
    s.rho = rho_new;
    std::vector<double>* p = &s.p;
    const std::vector<double>* z = &s.z;
    const index_t m = s.m;
#pragma omp parallel for schedule(static)
    for (index_t rI = 0; rI < m; ++rI) {
      (*p)[static_cast<std::size_t>(rI)] =
          (*z)[static_cast<std::size_t>(rI)] +
          beta * (*p)[static_cast<std::size_t>(rI)];
    }
    rel = std::sqrt(rr) / s.norm_b;
    ++result.iterations;
    result.residual_norms.push_back(rel);
    iter.metric("residual", rel);
    publish_residual(rel);
    ++result.timing.iterations;
    maybe_checkpoint(options, s, i + 1, every);
  }
  result.timing.total_seconds = timer.seconds();
  result.relative_residual = rel;
  result.converged =
      result.status == SolverStatus::kOk && rel <= cg_options.tol;
  result.x = std::move(s.x);
  return result;
}

// --------------------------------------------------------------------------
// flux (HPX-style) version: SpMV and the vector updates run as per-block
// tasks whose dependencies FluxSolve's STF layer infers from their declared
// accesses, as in the Lanczos flux driver; the IC(0) triangular solves run
// as the DAG-scheduled SpTRSV. CG's two inner products are genuine
// synchronization points (alpha and beta are host-side scalars), so each
// iteration syncs twice — the rest of the graph overlaps freely across
// those barriers.
// --------------------------------------------------------------------------

CgResult run_flux(const sparse::Csb& csb, const CgOptions& cg_options,
                  const SolverOptions& options, Preconditioner& pre) {
  using flux::read;
  using flux::write;
  using graph::KernelKind;
  State s = make_state(csb.rows(), options);
  const index_t b = options.block_size;
  STS_EXPECTS(csb.block_size() == b);
  const index_t np = csb.block_rows();
  // The factor's own stripe partition: its block grid differs from A's
  // (different nnz distribution), so the SpTRSV tasks hint through a map
  // computed on the factor, matching how place_csb would stripe it.
  sparse::Csb::DomainMap fdmap;
  const sparse::Csb::DomainMap* fdmap_ptr = nullptr;
  if (pre.kind == Precond::kIc0 && options.numa_domains > 1) {
    fdmap = pre.lower_csb.partition_block_rows(options.numa_domains);
    fdmap_ptr = &fdmap;
  }

  CgResult result;
  const int start = apply_restore(options, s);
  const int every = ckpt::effective_every(options.ckpt_every);
  if (start == 0) {
    // Setup (off the iteration clock): z0, p0, rho0 computed in place —
    // the scheduler is idle here, so the sequential apply is fine.
    apply_precond(pre, TrsvMode::kCsbSequential, s.r, s.z, nullptr, nullptr);
    s.p = s.z;
    s.rho = la::dot(s.r, s.z);
  }
  double rel = la::nrm2(s.r) / s.norm_b;

  // Scalars the host writes and tasks read (alpha, beta), scalars reduce
  // tasks write and the host reads (pq, rho_new, rr), and their partials.
  double alpha = 0.0;
  double beta = 0.0;
  double pq = 0.0;
  double rho_new = 0.0;
  double rr = 0.0;
  std::vector<double> pq_part(static_cast<std::size_t>(np), 0.0);
  std::vector<double> rho_part(static_cast<std::size_t>(np), 0.0);
  std::vector<double> rr_part(static_cast<std::size_t>(np), 0.0);

  FluxSolve fx(csb, options);
  const int dx = fx.data(np);
  const int dr = fx.data(np);
  const int dp = fx.data(np);
  const int dz = fx.data(np);
  const int dq = fx.data(np);
  const int dpq_part = fx.data(np);
  const int drho_part = fx.data(np); // rho_part and rr_part
  const int dalpha = fx.data(1);
  const int dbeta = fx.data(1);
  const int dpq = fx.data(1);
  const int drho = fx.data(1); // rho_new and rr

  std::vector<double>* x = &s.x;
  std::vector<double>* r = &s.r;
  std::vector<double>* p = &s.p;
  std::vector<double>* z = &s.z;
  std::vector<double>* q = &s.q;
  const sparse::Csb* a = &csb;
  std::vector<double>* pqp = &pq_part;
  std::vector<double>* rhop = &rho_part;
  std::vector<double>* rrp = &rr_part;
  double* pq_cell = &pq;
  double* rho_cell = &rho_new;
  double* rr_cell = &rr;
  const double* alpha_cell = &alpha;
  const double* beta_cell = &beta;

  const support::Timer timer;
  for (int i = start; i < cg_options.max_iterations && rel > cg_options.tol;
       ++i) {
    poll_cancel(options);
    obs::IterScope iter("cg.flux", i);

    // q = A p: zero chain + one task per nonempty block.
    for (index_t bi = 0; bi < np; ++bi) {
      const index_t r0 = bi * b;
      const index_t nr = fx.rows_in(bi);
      fx.task(KernelKind::kZero, bi,
              [q, r0, nr] { std::fill_n(q->begin() + r0, nr, 0.0); },
              {write(dq, bi)});
    }
    for (index_t bi = 0; bi < np; ++bi) {
      for (index_t bj = 0; bj < np; ++bj) {
        if (options.skip_empty_blocks && a->block_empty(bi, bj)) continue;
        fx.task(KernelKind::kSpMV, bi,
                [p, q, a, bi, bj] {
                  sparse::csb_block_spmv(*a, bi, bj, {p->data(), p->size()},
                                         {q->data(), q->size()});
                },
                {read(dp, bj), write(dq, bi)});
      }
    }

    // pq = p . q: partials, reduce, host sync (alpha needs the value).
    for (index_t pi = 0; pi < np; ++pi) {
      const index_t r0 = pi * b;
      const index_t nr = fx.rows_in(pi);
      fx.task(KernelKind::kDotPartial, pi,
              [p, q, pqp, r0, nr, pi] {
                (*pqp)[static_cast<std::size_t>(pi)] = la::dot(
                    {p->data() + r0, static_cast<std::size_t>(nr)},
                    {q->data() + r0, static_cast<std::size_t>(nr)});
              },
              {read(dp, pi), read(dq, pi), write(dpq_part, pi)});
    }
    fx.task(KernelKind::kReduce, -1,
            [pqp, pq_cell, np] {
              double acc = 0.0;
              for (index_t pi = 0; pi < np; ++pi) {
                acc += (*pqp)[static_cast<std::size_t>(pi)];
              }
              *pq_cell = acc;
            },
            {read(dpq_part), write(dpq)});
    fx.sync({read(dpq), write(dalpha)});
    if (!std::isfinite(pq)) {
      result.status = SolverStatus::kNotFinite;
      break;
    }
    if (pq <= kPositivityFloor) {
      result.status = SolverStatus::kBreakdown;
      break;
    }
    alpha = s.rho / pq;

    // x += alpha p ; r -= alpha q.
    for (index_t pi = 0; pi < np; ++pi) {
      const index_t r0 = pi * b;
      const index_t nr = fx.rows_in(pi);
      fx.task(KernelKind::kAxpy, pi,
              [x, p, alpha_cell, r0, nr] {
                la::axpy(*alpha_cell,
                         {p->data() + r0, static_cast<std::size_t>(nr)},
                         {x->data() + r0, static_cast<std::size_t>(nr)});
              },
              {read(dp, pi), read(dalpha), write(dx, pi)});
      fx.task(KernelKind::kAxpy, pi,
              [r, q, alpha_cell, r0, nr] {
                la::axpy(-*alpha_cell,
                         {q->data() + r0, static_cast<std::size_t>(nr)},
                         {r->data() + r0, static_cast<std::size_t>(nr)});
              },
              {read(dq, pi), read(dalpha), write(dr, pi)});
    }

    // z = M^-1 r.
    if (pre.kind == Precond::kIc0) {
      // The DAG solves read all of r and write all of z on the host's
      // behalf; their own tasks carry the level-schedule dependencies.
      fx.sync({read(dr), write(dz)});
      apply_precond(pre, TrsvMode::kCsbDag, s.r, s.z, &fx.scheduler(),
                    fdmap_ptr);
    } else {
      Preconditioner* prep = &pre;
      for (index_t pi = 0; pi < np; ++pi) {
        const index_t r0 = pi * b;
        const index_t nr = fx.rows_in(pi);
        fx.task(KernelKind::kScale, pi,
                [prep, r, z, r0, nr] {
                  if (prep->kind == Precond::kJacobi) {
                    const std::vector<double>& d = prep->inv_diag;
                    for (index_t k = 0; k < nr; ++k) {
                      (*z)[static_cast<std::size_t>(r0 + k)] =
                          (*r)[static_cast<std::size_t>(r0 + k)] *
                          d[static_cast<std::size_t>(r0 + k)];
                    }
                  } else {
                    std::copy_n(r->begin() + r0, nr, z->begin() + r0);
                  }
                },
                {read(dr, pi), write(dz, pi)});
      }
    }

    // rho_new = r . z and rr = r . r in one partial wave, reduce, sync.
    for (index_t pi = 0; pi < np; ++pi) {
      const index_t r0 = pi * b;
      const index_t nr = fx.rows_in(pi);
      fx.task(KernelKind::kDotPartial, pi,
              [r, z, rhop, rrp, r0, nr, pi] {
                const std::span<const double> rs{r->data() + r0,
                                                 static_cast<std::size_t>(nr)};
                (*rhop)[static_cast<std::size_t>(pi)] = la::dot(
                    rs, {z->data() + r0, static_cast<std::size_t>(nr)});
                (*rrp)[static_cast<std::size_t>(pi)] = la::dot(rs, rs);
              },
              {read(dz, pi), read(dr, pi), write(drho_part, pi)});
    }
    fx.task(KernelKind::kReduce, -1,
            [rhop, rrp, rho_cell, rr_cell, np] {
              double arho = 0.0;
              double arr = 0.0;
              for (index_t pi = 0; pi < np; ++pi) {
                arho += (*rhop)[static_cast<std::size_t>(pi)];
                arr += (*rrp)[static_cast<std::size_t>(pi)];
              }
              *rho_cell = arho;
              *rr_cell = arr;
            },
            {read(drho_part), write(drho)});
    fx.sync({read(drho), write(dbeta)});
    if (!std::isfinite(rho_new) || !std::isfinite(rr)) {
      result.status = SolverStatus::kNotFinite;
      break;
    }
    beta = rho_new / s.rho;
    s.rho = rho_new;

    // p = z + beta p.
    for (index_t pi = 0; pi < np; ++pi) {
      const index_t r0 = pi * b;
      const index_t nr = fx.rows_in(pi);
      fx.task(KernelKind::kScale, pi,
              [p, z, beta_cell, r0, nr] {
                const double bb = *beta_cell;
                for (index_t k = 0; k < nr; ++k) {
                  (*p)[static_cast<std::size_t>(r0 + k)] =
                      (*z)[static_cast<std::size_t>(r0 + k)] +
                      bb * (*p)[static_cast<std::size_t>(r0 + k)];
                }
              },
              {read(dz, pi), read(dbeta), write(dp, pi)});
    }

    rel = std::sqrt(rr) / s.norm_b;
    ++result.iterations;
    result.residual_norms.push_back(rel);
    iter.metric("residual", rel);
    publish_residual(rel);
    ++result.timing.iterations;
    maybe_checkpoint(options, s, i + 1, every, &fx.scheduler());
  }
  fx.finish();
  result.timing.total_seconds = timer.seconds();
  result.relative_residual = rel;
  result.converged =
      result.status == SolverStatus::kOk && rel <= cg_options.tol;
  result.x = std::move(s.x);
  return result;
}

} // namespace

const char* to_string(Precond p) {
  switch (p) {
    case Precond::kNone: return "none";
    case Precond::kJacobi: return "jacobi";
    case Precond::kIc0: return "ic0";
  }
  return "?";
}

CgResult cg(const sparse::Csr& csr, const sparse::Csb& csb, Version v,
            const CgOptions& cg_options, const SolverOptions& options) {
  validate(options);
  if (cg_options.max_iterations < 1) {
    throw support::Error("cg: max_iterations must be >= 1, got " +
                         std::to_string(cg_options.max_iterations));
  }
  if (!(cg_options.tol > 0.0)) {
    throw support::Error("cg: tolerance must be positive");
  }
  if (csb.rows() != csb.cols()) {
    throw support::Error("cg: matrix must be square, got " +
                         std::to_string(csb.rows()) + " x " +
                         std::to_string(csb.cols()));
  }
  if (csb.block_size() != options.block_size) {
    throw support::Error("cg: CSB block size " +
                         std::to_string(csb.block_size()) +
                         " does not match options.block_size " +
                         std::to_string(options.block_size));
  }
  STS_EXPECTS(csr.rows() == csb.rows());
#ifdef _OPENMP
  omp_set_num_threads(static_cast<int>(options.threads));
#endif
  // The factor always comes from CSR (IC(0) is row-oriented); the CSB
  // re-blocking inside uses the solve's block size so the SpTRSV DAG and
  // the SpMV grid partition the rows identically.
  Preconditioner pre =
      make_precond(csr, cg_options.precond, options.block_size);

  CgResult result;
  switch (v) {
    case Version::kLibCsr:
      result = run_bsp(&csr, csb, cg_options, options, pre);
      break;
    case Version::kLibCsb:
      result = run_bsp(nullptr, csb, cg_options, options, pre);
      break;
    case Version::kFlux:
      result = run_flux(csb, cg_options, options, pre);
      break;
    case Version::kDs:
    case Version::kRgt:
      throw support::Error(std::string("cg: version ") + to_string(v) +
                           " is not implemented (cg supports libcsr, "
                           "libcsb, hpx)");
  }
  result.precond_shift = pre.shift;
  if (pre.kind == Precond::kIc0) result.level_span = pre.plan.level_span();
  return result;
}

} // namespace sts::solver
