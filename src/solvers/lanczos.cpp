#include "solvers/lanczos.hpp"

#include <cmath>

#include "bsp/kernels.hpp"
#include "ds/executor.hpp"
#include "ds/program.hpp"
#include "la/eig.hpp"
#include "obs/obs.hpp"
#include "rgt/runtime.hpp"
#include "solvers/checkpoint.hpp"
#include "support/timer.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace sts::solver {

namespace {

constexpr double kBreakdownFloor = 1e-300;

/// Relative tolerance below which beta counts as an invariant-subspace
/// breakdown: continuing would divide by (numerical) zero and fill the next
/// basis vector with garbage.
constexpr double kBreakdownTol = 1e-12;

/// Records one iteration's (alpha, beta) pair. Returns false when the
/// recursion must stop: on NaN/Inf the poisoned pair is dropped and status
/// becomes kNotFinite; on breakdown the pair is recorded (the truncated
/// tridiagonal matrix is still valid) and status becomes kBreakdown.
bool accept_iteration(double alpha, double beta, std::vector<double>& alphas,
                      std::vector<double>& betas, SolverStatus& status) {
  if (!std::isfinite(alpha) || !std::isfinite(beta)) {
    status = SolverStatus::kNotFinite;
    return false;
  }
  alphas.push_back(alpha);
  betas.push_back(beta);
  if (beta < kBreakdownTol * std::max(1.0, std::abs(alpha))) {
    status = SolverStatus::kBreakdown;
    return false;
  }
  return true;
}

/// Buffers shared by every version. Q holds the full Krylov basis as an
/// m x (k+1) block vector. Iteration i orthogonalizes against only the
/// filled columns [0, i] (proj's first i + 1 rows); the unused columns stay
/// zero and are never read, and the task graphs keep one shape.
struct State {
  index_t m = 0;
  index_t cols = 0; // k + 1
  la::DenseMatrix Q;
  la::DenseMatrix q;
  la::DenseMatrix z;
  la::DenseMatrix proj; // (k+1) x 1
  double beta2 = 0.0;
  double beta = 0.0;
};

State make_state(const sparse::Csb& a, int k, const SolverOptions& options) {
  State s;
  s.m = a.rows();
  s.cols = k + 1;
  s.Q = la::DenseMatrix(s.m, s.cols, options.first_touch);
  s.q = la::DenseMatrix(s.m, 1, options.first_touch);
  s.z = la::DenseMatrix(s.m, 1, options.first_touch);
  s.proj = la::DenseMatrix(s.cols, 1);
  support::Xoshiro256 rng(options.seed);
  s.q.fill_random(rng, -1.0, 1.0);
  const double norm = la::nrm2(s.q.flat());
  la::scal(1.0 / norm, s.q.flat());
  for (index_t r = 0; r < s.m; ++r) s.Q.at(r, 0) = s.q.at(r, 0);
  return s;
}

/// Applies options.restore (when set) to freshly-initialized state and
/// returns the iteration to resume from. The checkpoint must describe this
/// exact solve — kind, shape and seed are all validated — so a stale file
/// surfaces as a catchable error, never as silently wrong mathematics.
int apply_restore(const SolverOptions& options, State& s,
                  std::vector<double>& alphas, std::vector<double>& betas) {
  if (options.restore == nullptr) return 0;
  const ckpt::Checkpoint& c = *options.restore;
  if (c.kind != ckpt::Kind::kLanczos) {
    throw support::Error(std::string("lanczos restore: checkpoint holds ") +
                         ckpt::to_string(c.kind) + " state");
  }
  const ckpt::LanczosState& st = c.lanczos;
  // A narrower checkpoint basis is fine as long as every completed column
  // fits: resuming with a larger iteration budget than the interrupted run
  // is legal (the extra columns start zero, exactly as a fresh solve's
  // would). Wider-than-this-solve checkpoints cannot fit and are rejected.
  if (st.m != s.m || st.cols > s.cols || st.iterations >= st.cols) {
    throw support::Error("lanczos restore: checkpoint basis is " +
                         std::to_string(st.m) + "x" + std::to_string(st.cols) +
                         " at iteration " + std::to_string(st.iterations) +
                         ", this solve needs " + std::to_string(s.m) + "x" +
                         std::to_string(s.cols));
  }
  if (st.seed != options.seed) {
    throw support::Error("lanczos restore: checkpoint seed " +
                         std::to_string(st.seed) + " != options.seed " +
                         std::to_string(options.seed));
  }
  alphas = st.alphas;
  betas = st.betas;
  // Row-major m x cols: when the widths differ, remap row by row into the
  // column prefix of this solve's basis.
  if (st.cols == s.cols) {
    std::copy(st.basis.begin(), st.basis.end(), s.Q.flat().begin());
  } else {
    for (index_t r = 0; r < s.m; ++r) {
      std::copy(st.basis.begin() + r * st.cols,
                st.basis.begin() + (r + 1) * st.cols,
                s.Q.flat().begin() + r * s.cols);
    }
  }
  std::copy(st.q.begin(), st.q.end(), s.q.flat().begin());
  obs::counter("solver.ckpt_restores").add();
  return static_cast<int>(st.iterations);
}

/// Writes a checkpoint after `completed` accepted iterations when the
/// options ask for one (ckpt::save_if_due). Called at an iteration boundary;
/// a flux solve passes its scheduler as `drain`, whose tail tasks may still
/// write the state until it quiesces.
void maybe_checkpoint(const SolverOptions& options, const State& s,
                      const std::vector<double>& alphas,
                      const std::vector<double>& betas, int completed,
                      int every, flux::Scheduler* drain = nullptr) {
  ckpt::save_if_due(options.ckpt_path, completed, every, [&] {
    if (drain != nullptr) drain->wait_for_quiescence();
    ckpt::Checkpoint c;
    c.kind = ckpt::Kind::kLanczos;
    ckpt::LanczosState& st = c.lanczos;
    st.seed = options.seed;
    st.m = s.m;
    st.cols = s.cols;
    st.iterations = completed;
    st.alphas = alphas;
    st.betas = betas;
    st.basis.assign(s.Q.flat().begin(), s.Q.flat().end());
    st.q.assign(s.q.flat().begin(), s.q.flat().end());
    return c;
  });
}

LanczosResult finalize(std::vector<double> alphas, std::vector<double> betas,
                       SolverStatus status, IterationTiming timing) {
  LanczosResult result;
  result.alphas = std::move(alphas);
  result.betas = std::move(betas);
  result.status = status;
  // The tridiagonal matrix is built from the alphas and the couplings
  // beta_1..beta_{k-1}; the trailing beta_k is the next-residual norm.
  std::vector<double> off = result.betas;
  if (!off.empty()) off.pop_back();
  result.ritz_values = la::tridiag_eigenvalues(result.alphas, off);
  result.timing = timing;
  return result;
}

// --------------------------------------------------------------------------
// BSP versions (libcsr / libcsb)
// --------------------------------------------------------------------------

LanczosResult run_bsp(const sparse::Csr* csr, const sparse::Csb& csb, int k,
                      const SolverOptions& options) {
  State s = make_state(csb, k, options);
  const index_t chunk = options.block_size;
  std::vector<double> alphas;
  std::vector<double> betas;
  SolverStatus status = SolverStatus::kOk;
  const int start = apply_restore(options, s, alphas, betas);
  const int every = ckpt::effective_every(options.ckpt_every);

  IterationTiming timing;
  const support::Timer timer;
  for (int i = start; i < k; ++i) {
    poll_cancel(options);
    obs::IterScope iter(csr != nullptr ? "lanczos.libcsr" : "lanczos.libcsb",
                        i);
    if (csr != nullptr) {
      bsp::spmv(*csr, s.q.flat(), s.z.flat());
    } else {
      bsp::spmv(csb, s.q.flat(), s.z.flat());
    }
    const index_t active = i + 1;
    const la::ConstMatrixView basis = s.Q.leading_cols(0, s.m, active);
    const la::MatrixView coef = s.proj.row_block(0, active);
    bsp::xty(basis, s.z.view(), coef, chunk);
    const double alpha = s.proj.at(i, 0);
    bsp::xy(basis, coef, s.z.view(), chunk, -1.0, 1.0);
    const double beta = std::sqrt(bsp::dot(s.z.flat(), s.z.flat()));
    iter.metric("alpha", alpha);
    iter.metric("beta", beta);
    ++timing.iterations;
    if (!accept_iteration(alpha, beta, alphas, betas, status)) break;
    const double inv = 1.0 / std::max(beta, kBreakdownFloor);
    la::DenseMatrix* q = &s.q;
    la::DenseMatrix* z = &s.z;
    la::DenseMatrix* Q = &s.Q;
    const index_t m = s.m;
    const index_t col = i + 1;
#pragma omp parallel for schedule(static)
    for (index_t r = 0; r < m; ++r) {
      const double v = z->at(r, 0) * inv;
      q->at(r, 0) = v;
      Q->at(r, col) = v;
    }
    maybe_checkpoint(options, s, alphas, betas, i + 1, every);
  }
  timing.total_seconds = timer.seconds();
  return finalize(std::move(alphas), std::move(betas), status, timing);
}

// --------------------------------------------------------------------------
// DeepSparse version: the task graph of one iteration is built once and
// re-executed with a barrier (the convergence check) between iterations.
// --------------------------------------------------------------------------

LanczosResult run_ds(const sparse::Csb& csb, int k,
                     const SolverOptions& options) {
  State s = make_state(csb, k, options);
  std::vector<double> alphas;
  std::vector<double> betas;
  SolverStatus status = SolverStatus::kOk;
  const int start = apply_restore(options, s, alphas, betas);
  const int every = ckpt::effective_every(options.ckpt_every);
  // Column of Q written by the running iteration; it is also the number of
  // filled columns that iteration's XTY/XY read.
  index_t cur_col = static_cast<index_t>(start) + 1;

  ds::Program prog(&csb, {.skip_empty_blocks = options.skip_empty_blocks,
                          .dependency_based_spmm =
                              options.dependency_based_spmm,
                          .spmm_buffers =
                              static_cast<std::int32_t>(options.threads)});
  const ds::DataId qid = prog.vec("q", &s.q);
  const ds::DataId zid = prog.vec("z", &s.z);
  const ds::DataId Qid = prog.vec("Q", &s.Q);
  const ds::DataId projid = prog.small("proj", &s.proj);
  double* beta2 = &s.beta2;
  double* beta = &s.beta;
  const ds::DataId b2id = prog.scalar("beta2", beta2);
  const ds::DataId bid = prog.scalar("beta", beta);

  IterationTiming timing;
  const support::Timer build_timer;
  prog.spmm(qid, zid);                            // z = A q
  prog.xty(Qid, zid, projid, &cur_col);           // proj = Q^T z
  prog.xy(Qid, projid, zid, -1.0, 1.0, &cur_col); // z -= Q proj
  prog.dot(zid, zid, b2id);                       // beta2 = z . z
  prog.small_task(
      graph::KernelKind::kNorm,
      [beta2, beta] { *beta = std::max(std::sqrt(*beta2), kBreakdownFloor); },
      {b2id}, {bid});
  prog.scale_into(zid, bid, /*reciprocal=*/true, qid); // q = z / beta
  prog.copy_into_column(qid, Qid, &cur_col);           // Q(:, col) = q
  const graph::Tdg graph = prog.build();
  const ds::Schedule schedule = ds::prepare(graph);
  timing.graph_build_seconds = build_timer.seconds();

  const ds::ExecOptions exec{.mode = ds::ExecMode::kOmpTasks,
                             .trace = options.trace};

  const support::Timer timer;
  for (int i = start; i < k; ++i) {
    poll_cancel(options);
    obs::IterScope iter("lanczos.ds", i);
    ds::execute(schedule, exec);
    iter.metric("alpha", s.proj.at(i, 0));
    iter.metric("beta", s.beta);
    ++timing.iterations;
    if (!accept_iteration(s.proj.at(i, 0), s.beta, alphas, betas, status)) {
      break;
    }
    cur_col = i + 2;
    maybe_checkpoint(options, s, alphas, betas, i + 1, every);
  }
  timing.total_seconds = timer.seconds();
  return finalize(std::move(alphas), std::move(betas), status, timing);
}

// --------------------------------------------------------------------------
// flux (HPX-style) version: one task per vector piece as in the paper's
// Listing 2, with the futures between them inferred by FluxSolve's STF layer
// from each task's declared reads and writes.
// --------------------------------------------------------------------------

LanczosResult run_flux(const sparse::Csb& csb, int k,
                       const SolverOptions& options) {
  using flux::read;
  using flux::write;
  using graph::KernelKind;
  State s = make_state(csb, k, options);
  const index_t b = options.block_size;
  STS_EXPECTS(csb.block_size() == b);
  const index_t np = csb.block_rows();

  std::vector<double> alphas;
  std::vector<double> betas;
  SolverStatus status = SolverStatus::kOk;
  const int start = apply_restore(options, s, alphas, betas);
  const int every = ckpt::effective_every(options.ckpt_every);
  IterationTiming timing;

  // Per-piece partial buffers for proj and beta2.
  la::DenseMatrix proj_part(np, s.cols);
  la::DenseMatrix dot_part(np, 1);

  FluxSolve fx(csb, options);
  const int dq = fx.data(np);
  const int dz = fx.data(np);
  const int dQ = fx.data(np);
  const int dpp = fx.data(np);
  const int ddp = fx.data(np);
  const int dproj = fx.data(1);
  const int dbeta = fx.data(1);

  la::DenseMatrix* Q = &s.Q;
  la::DenseMatrix* q = &s.q;
  la::DenseMatrix* z = &s.z;
  la::DenseMatrix* proj = &s.proj;
  la::DenseMatrix* ppart = &proj_part;
  la::DenseMatrix* dpart = &dot_part;
  double* beta = &s.beta;

  const support::Timer timer;
  for (int i = start; i < k; ++i) {
    poll_cancel(options);
    // The iteration span covers submission through the convergence-check
    // sync — the driver's view of the iteration; kernel tasks may overlap
    // the next iteration's submissions on the worker tracks.
    obs::IterScope iter("lanczos.flux", i);
    fx.spmm(KernelKind::kSpMV, q, dq, z, dz); // z = A q

    // proj = Q^T z over the filled columns [0, i]: per-piece partials, then
    // a reduction task.
    const index_t active = i + 1;
    for (index_t p = 0; p < np; ++p) {
      const index_t r0 = p * b;
      const index_t nr = fx.rows_in(p);
      fx.task(KernelKind::kXTY, p,
              [Q, z, ppart, r0, nr, p, active] {
                la::MatrixView out{ppart->data() + p * ppart->cols(), active,
                                   1, 1};
                la::gemm_tn(1.0, Q->leading_cols(r0, nr, active),
                            z->row_block(r0, nr), 0.0, out);
              },
              {read(dQ, p), read(dz, p), write(dpp, p)});
    }
    fx.task(KernelKind::kReduce, -1,
            [ppart, proj, np, active] {
              for (index_t c = 0; c < active; ++c) proj->at(c, 0) = 0.0;
              for (index_t p = 0; p < np; ++p) {
                for (index_t c = 0; c < active; ++c) {
                  proj->at(c, 0) += ppart->at(p, c);
                }
              }
            },
            {read(dpp), write(dproj)});

    // z -= Q proj.
    for (index_t p = 0; p < np; ++p) {
      const index_t r0 = p * b;
      const index_t nr = fx.rows_in(p);
      fx.task(KernelKind::kXY, p,
              [Q, z, proj, r0, nr, active] {
                la::gemm(-1.0, Q->leading_cols(r0, nr, active),
                         proj->row_block(0, active), 1.0,
                         z->row_block(r0, nr));
              },
              {read(dQ, p), read(dproj), write(dz, p)});
    }

    // beta = || z ||.
    for (index_t p = 0; p < np; ++p) {
      const index_t r0 = p * b;
      const index_t nr = fx.rows_in(p);
      fx.task(KernelKind::kDotPartial, p,
              [z, dpart, r0, nr, p] {
                dpart->at(p, 0) =
                    la::dot(z->row_block(r0, nr), z->row_block(r0, nr));
              },
              {read(dz, p), write(ddp, p)});
    }
    fx.task(KernelKind::kNorm, -1,
            [dpart, beta, np] {
              double acc = 0.0;
              for (index_t p = 0; p < np; ++p) acc += dpart->at(p, 0);
              *beta = std::max(std::sqrt(acc), kBreakdownFloor);
            },
            {read(ddp), write(dbeta)});

    // q = z / beta and Q(:, i+1) = q.
    const index_t col = i + 1;
    for (index_t p = 0; p < np; ++p) {
      const index_t r0 = p * b;
      const index_t nr = fx.rows_in(p);
      fx.task(KernelKind::kScale, p,
              [z, q, beta, r0, nr] {
                const double inv = 1.0 / *beta;
                for (index_t r = 0; r < nr; ++r) {
                  q->at(r0 + r, 0) = z->at(r0 + r, 0) * inv;
                }
              },
              {read(dz, p), read(dbeta), write(dq, p)});
      fx.task(KernelKind::kAxpy, p,
              [q, Q, r0, nr, col] {
                for (index_t r = 0; r < nr; ++r) {
                  Q->at(r0 + r, col) = q->at(r0 + r, 0);
                }
              },
              {read(dq, p), write(dQ, p)});
    }

    // Convergence check: the per-iteration synchronization point.
    fx.sync({read(dproj), read(dbeta)});
    iter.metric("alpha", s.proj.at(i, 0));
    iter.metric("beta", s.beta);
    ++timing.iterations;
    if (!accept_iteration(s.proj.at(i, 0), s.beta, alphas, betas, status)) {
      break;
    }
    maybe_checkpoint(options, s, alphas, betas, i + 1, every,
                     &fx.scheduler());
  }
  fx.finish();
  timing.total_seconds = timer.seconds();
  return finalize(std::move(alphas), std::move(betas), status, timing);
}

// --------------------------------------------------------------------------
// rgt (Regent-style) version: regions + privileges, Listing 3 shape.
// --------------------------------------------------------------------------

LanczosResult run_rgt(const sparse::Csb& csb, int k,
                      const SolverOptions& options) {
  State s = make_state(csb, k, options);
  const index_t b = options.block_size;
  const index_t np = csb.block_rows();
  const index_t m = s.m;
  const index_t kq = s.cols;

  rgt::Runtime rt({.cpu_workers = options.threads});

  la::DenseMatrix proj_part(np, kq);
  la::DenseMatrix dot_part(np, 1);

  using rgt::Privilege;
  using rgt::RegionReq;
  using rgt::TaskLaunch;

  const rgt::RegionId rq = rt.register_region(s.q.flat(), "q");
  const rgt::RegionId rz = rt.register_region(s.z.flat(), "z");
  const rgt::RegionId rQ = rt.register_region(s.Q.flat(), "Q");
  const rgt::RegionId rproj = rt.register_region(s.proj.flat(), "proj");
  const rgt::RegionId rpp = rt.register_region(proj_part.flat(), "proj_part");
  const rgt::RegionId rdp = rt.register_region(dot_part.flat(), "dot_part");
  std::vector<double> beta_cell(1, 0.0);
  const rgt::RegionId rbeta = rt.register_region(beta_cell, "beta");
  rt.partition_equal(rq, static_cast<std::int32_t>(np));
  rt.partition_equal(rz, static_cast<std::int32_t>(np));
  rt.partition_equal(rQ, static_cast<std::int32_t>(np));
  rt.partition_equal(rpp, static_cast<std::int32_t>(np));
  rt.partition_equal(rdp, static_cast<std::int32_t>(np));

  perf::TraceRecorder* trace = options.trace;
  auto traced = [trace](graph::KernelKind kind, std::int32_t bi, auto fn) {
    return rgt_traced(trace, kind, bi, std::move(fn));
  };

  auto rows_in = [&](index_t p) { return std::min(b, m - p * b); };

  la::DenseMatrix* Q = &s.Q;
  la::DenseMatrix* q = &s.q;
  la::DenseMatrix* z = &s.z;
  la::DenseMatrix* proj = &s.proj;
  la::DenseMatrix* ppart = &proj_part;
  la::DenseMatrix* dpart = &dot_part;
  double* beta = beta_cell.data();
  const sparse::Csb* a = &csb;

  std::vector<double> alphas;
  std::vector<double> betas;
  SolverStatus status = SolverStatus::kOk;
  const int start = apply_restore(options, s, alphas, betas);
  const int every = ckpt::effective_every(options.ckpt_every);
  IterationTiming timing;

  const support::Timer timer;
  for (int i = start; i < k; ++i) {
    poll_cancel(options);
    obs::IterScope iter("lanczos.rgt", i);
    // z = A q.
    if (options.dependency_based_spmm) {
      for (index_t bi = 0; bi < np; ++bi) {
        rt.execute({traced(graph::KernelKind::kZero,
                           static_cast<std::int32_t>(bi),
                           [z, a, bi](rgt::TaskContext&) {
                             sparse::csb_block_zero(*a, bi, z->view());
                           }),
                    {{rz, static_cast<std::int32_t>(bi), Privilege::kWrite}},
                    "zero"});
      }
      for (index_t bi = 0; bi < np; ++bi) {
        for (index_t bj = 0; bj < np; ++bj) {
          if (options.skip_empty_blocks && a->block_empty(bi, bj)) continue;
          rt.execute(
              {traced(graph::KernelKind::kSpMV,
                      static_cast<std::int32_t>(bi),
                      [q, z, a, bi, bj](rgt::TaskContext&) {
                        sparse::csb_block_spmm(*a, bi, bj, q->view(),
                                               z->view());
                      }),
               {{rq, static_cast<std::int32_t>(bj), Privilege::kRead},
                {rz, static_cast<std::int32_t>(bi), Privilege::kReadWrite}},
               "spmv"});
        }
      }
    } else {
      // Reduction-based variant (paper Fig. 7): every task reduces into a
      // per-worker copy of the whole output vector.
      rt.execute({traced(graph::KernelKind::kZero, -1,
                         [z](rgt::TaskContext&) { z->fill(0.0); }),
                  {{rz, -1, Privilege::kWrite}},
                  "zero"});
      for (index_t bi = 0; bi < np; ++bi) {
        for (index_t bj = 0; bj < np; ++bj) {
          if (options.skip_empty_blocks && a->block_empty(bi, bj)) continue;
          rt.execute(
              {traced(graph::KernelKind::kSpMV,
                      static_cast<std::int32_t>(bi),
                      [q, a, bi, bj, rz, m](rgt::TaskContext& ctx) {
                        std::span<double> buf = ctx.reduce_target(rz);
                        STS_ASSERT(buf.size() ==
                                   static_cast<std::size_t>(m));
                        sparse::csb_block_spmv(*a, bi, bj,
                                               {q->data(),
                                                static_cast<std::size_t>(m)},
                                               buf);
                      }),
               {{rq, static_cast<std::int32_t>(bj), Privilege::kRead},
                {rz, -1, Privilege::kReduce}},
               "spmv-reduce"});
        }
      }
    }

    // proj = Q^T z over the filled columns [0, i] (partials via index
    // launch, then a reduce task).
    const index_t active = i + 1;
    rt.index_launch(static_cast<std::int32_t>(np), [&](std::int32_t p) {
      const index_t r0 = static_cast<index_t>(p) * b;
      const index_t nr = rows_in(p);
      return TaskLaunch{
          traced(graph::KernelKind::kXTY, p,
                 [Q, z, ppart, r0, nr, p, active](rgt::TaskContext&) {
                   la::MatrixView out{ppart->data() + p * ppart->cols(),
                                      active, 1, 1};
                   la::gemm_tn(1.0, Q->leading_cols(r0, nr, active),
                               z->row_block(r0, nr), 0.0, out);
                 }),
          {{rQ, p, Privilege::kRead},
           {rz, p, Privilege::kRead},
           {rpp, p, Privilege::kWrite}},
          "xty"};
    });
    rt.execute({traced(graph::KernelKind::kReduce, -1,
                       [ppart, proj, np, active](rgt::TaskContext&) {
                         for (index_t c = 0; c < active; ++c) {
                           proj->at(c, 0) = 0.0;
                         }
                         for (index_t p = 0; p < np; ++p) {
                           for (index_t c = 0; c < active; ++c) {
                             proj->at(c, 0) += ppart->at(p, c);
                           }
                         }
                       }),
                {{rpp, -1, Privilege::kRead},
                 {rproj, -1, Privilege::kWrite}},
                "reduce"});

    // z -= Q proj.
    rt.index_launch(static_cast<std::int32_t>(np), [&](std::int32_t p) {
      const index_t r0 = static_cast<index_t>(p) * b;
      const index_t nr = rows_in(p);
      return TaskLaunch{
          traced(graph::KernelKind::kXY, p,
                 [Q, z, proj, r0, nr, active](rgt::TaskContext&) {
                   la::gemm(-1.0, Q->leading_cols(r0, nr, active),
                            proj->row_block(0, active), 1.0,
                            z->row_block(r0, nr));
                 }),
          {{rQ, p, Privilege::kRead},
           {rproj, -1, Privilege::kRead},
           {rz, p, Privilege::kReadWrite}},
          "xy"};
    });

    // beta = || z ||.
    rt.index_launch(static_cast<std::int32_t>(np), [&](std::int32_t p) {
      const index_t r0 = static_cast<index_t>(p) * b;
      const index_t nr = rows_in(p);
      return TaskLaunch{
          traced(graph::KernelKind::kDotPartial, p,
                 [z, dpart, r0, nr, p](rgt::TaskContext&) {
                   dpart->at(p, 0) = la::dot(z->row_block(r0, nr),
                                             z->row_block(r0, nr));
                 }),
          {{rz, p, Privilege::kRead}, {rdp, p, Privilege::kWrite}},
          "dot"};
    });
    rt.execute({traced(graph::KernelKind::kNorm, -1,
                       [dpart, beta, np](rgt::TaskContext&) {
                         double acc = 0.0;
                         for (index_t p = 0; p < np; ++p) {
                           acc += dpart->at(p, 0);
                         }
                         *beta = std::max(std::sqrt(acc), kBreakdownFloor);
                       }),
                {{rdp, -1, Privilege::kRead},
                 {rbeta, -1, Privilege::kWrite}},
                "norm"});

    // q = z / beta; Q(:, i+1) = q.
    const index_t col = i + 1;
    rt.index_launch(static_cast<std::int32_t>(np), [&](std::int32_t p) {
      const index_t r0 = static_cast<index_t>(p) * b;
      const index_t nr = rows_in(p);
      return TaskLaunch{
          traced(graph::KernelKind::kScale, p,
                 [z, q, beta, r0, nr](rgt::TaskContext&) {
                   const double inv = 1.0 / *beta;
                   for (index_t r = 0; r < nr; ++r) {
                     q->at(r0 + r, 0) = z->at(r0 + r, 0) * inv;
                   }
                 }),
          {{rz, p, Privilege::kRead},
           {rbeta, -1, Privilege::kRead},
           {rq, p, Privilege::kWrite}},
          "scale"};
    });
    rt.index_launch(static_cast<std::int32_t>(np), [&](std::int32_t p) {
      const index_t r0 = static_cast<index_t>(p) * b;
      const index_t nr = rows_in(p);
      return TaskLaunch{
          traced(graph::KernelKind::kAxpy, p,
                 [q, Q, r0, nr, col](rgt::TaskContext&) {
                   for (index_t r = 0; r < nr; ++r) {
                     Q->at(r0 + r, col) = q->at(r0 + r, 0);
                   }
                 }),
          {{rq, p, Privilege::kRead},
           {rQ, p, Privilege::kReadWrite}},
          "setcol"};
    });

    rt.wait_all(); // convergence check barrier
    iter.metric("alpha", s.proj.at(i, 0));
    iter.metric("beta", *beta);
    ++timing.iterations;
    if (!accept_iteration(s.proj.at(i, 0), *beta, alphas, betas, status)) {
      break;
    }
    maybe_checkpoint(options, s, alphas, betas, i + 1, every);
  }
  timing.total_seconds = timer.seconds();
  return finalize(std::move(alphas), std::move(betas), status, timing);
}

} // namespace

LanczosResult lanczos(const sparse::Csr& csr, const sparse::Csb& csb, int k,
                      Version v, const SolverOptions& options) {
  validate(options);
  if (k < 1) {
    throw support::Error("lanczos: iteration count must be >= 1, got " +
                         std::to_string(k));
  }
  if (csb.rows() != csb.cols()) {
    throw support::Error("lanczos: matrix must be square, got " +
                         std::to_string(csb.rows()) + " x " +
                         std::to_string(csb.cols()));
  }
  if (csb.block_size() != options.block_size) {
    throw support::Error(
        "lanczos: CSB block size " + std::to_string(csb.block_size()) +
        " does not match options.block_size " +
        std::to_string(options.block_size));
  }
#ifdef _OPENMP
  omp_set_num_threads(static_cast<int>(options.threads));
#endif
  switch (v) {
    case Version::kLibCsr:
      STS_EXPECTS(csr.rows() == csb.rows());
      return run_bsp(&csr, csb, k, options);
    case Version::kLibCsb:
      return run_bsp(nullptr, csb, k, options);
    case Version::kDs:
      return run_ds(csb, k, options);
    case Version::kFlux:
      return run_flux(csb, k, options);
    case Version::kRgt:
      return run_rgt(csb, k, options);
  }
  throw support::Error("unknown solver version");
}

} // namespace sts::solver
