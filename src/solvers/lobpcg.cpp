#include "solvers/lobpcg.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

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

using la::DenseMatrix;

/// Small (n x n and 3n x 3n) matrices shared by every version. Names match
/// the recipe in lobpcg.hpp; gaIJ/gbIJ are the Gram blocks of
/// S = [X W P] against AS / S.
struct Smalls {
  DenseMatrix M, RR, CXW, GWW, WSC;
  DenseMatrix ga01, ga02, ga11, ga12, ga22;
  DenseMatrix gb00, gb01, gb02, gb11, gb12, gb22;
  DenseMatrix CX, CW, CP;
  DenseMatrix norms; // nev x 1 residual norms
  std::vector<double> theta;
  int converged = 0;
  // Degradation flags checked at the per-iteration barrier: set by the
  // small-task bodies (which run on workers and must not throw).
  bool rr_failed = false; // Rayleigh-Ritz pencil singular beyond repair
  bool nonfinite = false; // NaN/Inf reached residual norms or Gram blocks

  explicit Smalls(index_t n)
      : M(n, n), RR(n, n), CXW(n, n), GWW(n, n), WSC(n, n), ga01(n, n),
        ga02(n, n), ga11(n, n), ga12(n, n), ga22(n, n), gb00(n, n),
        gb01(n, n), gb02(n, n), gb11(n, n), gb12(n, n), gb22(n, n), CX(n, n),
        CW(n, n), CP(n, n), norms(n, 1), theta(static_cast<std::size_t>(n)) {}
};

struct State {
  index_t m = 0;
  index_t n = 0;
  DenseMatrix X, AX, W, AW, P, AP, R, Xn, AXn, Pn, APn;
  Smalls sm;

  State(index_t m_in, index_t n_in, bool first_touch)
      : m(m_in), n(n_in), X(m_in, n_in, first_touch),
        AX(m_in, n_in, first_touch), W(m_in, n_in, first_touch),
        AW(m_in, n_in, first_touch), P(m_in, n_in, first_touch),
        AP(m_in, n_in, first_touch), R(m_in, n_in, first_touch),
        Xn(m_in, n_in, first_touch), AXn(m_in, n_in, first_touch),
        Pn(m_in, n_in, first_touch), APn(m_in, n_in, first_touch),
        sm(n_in) {}
};

State make_state(const sparse::Csb& a, const LobpcgOptions& options) {
  State s(a.rows(), options.nev, options.first_touch);
  support::Xoshiro256 rng(options.seed);
  s.X.fill_random(rng, -1.0, 1.0);
  la::orthonormalize_columns(s.X.view());
  bsp::spmm(a, s.X.view(), s.AX.view()); // setup, excluded from timing
  return s;
}

// --- shared small-task bodies (identical math in every version) ---------

void body_conv_check(Smalls* sm, double tol) {
  const index_t n = sm->RR.rows();
  int converged = 0;
  for (index_t j = 0; j < n; ++j) {
    const double norm = std::sqrt(std::max(0.0, sm->RR.at(j, j)));
    sm->norms.at(j, 0) = norm;
    if (!std::isfinite(norm)) sm->nonfinite = true;
    if (norm < tol) ++converged;
  }
  sm->converged = converged;
}

/// WSC = L^{-T} for L = chol(GWW + jitter I): W := R * WSC has orthonormal
/// columns. Escalating jitter guards rank-deficient residual blocks.
void body_w_normalizer(Smalls* sm) {
  const index_t n = sm->GWW.rows();
  double jitter = 0.0;
  for (int attempt = 0; attempt < 8; ++attempt) {
    DenseMatrix l(n, n);
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j < n; ++j) {
        l.at(i, j) = sm->GWW.at(i, j) + (i == j ? jitter : 0.0);
      }
    }
    if (la::cholesky_lower(l.view())) {
      // WSC = L^{-T}: solve L^T WSC = I.
      sm->WSC.fill(0.0);
      for (index_t i = 0; i < n; ++i) sm->WSC.at(i, i) = 1.0;
      la::solve_lower_transposed(l.view(), sm->WSC.view());
      return;
    }
    jitter = jitter == 0.0 ? 1e-12 : jitter * 100.0;
  }
  // Hopeless block: fall back to identity (W stays unnormalized).
  sm->WSC.fill(0.0);
  for (index_t i = 0; i < n; ++i) sm->WSC.at(i, i) = 1.0;
}

/// Rayleigh-Ritz on span{X, W, P} (or {X, W} while P == 0): assembles the
/// Gram pencil from the blocks, solves, and emits the coefficient blocks.
void body_rayleigh_ritz(Smalls* sm) {
  const index_t n = sm->M.rows();
  double p_trace = 0.0;
  for (index_t i = 0; i < n; ++i) p_trace += sm->gb22.at(i, i);
  const bool use_p = p_trace > 1e-12 * static_cast<double>(n);
  const index_t dim = use_p ? 3 * n : 2 * n;

  DenseMatrix ga(dim, dim);
  DenseMatrix gb(dim, dim);
  auto put = [&](const DenseMatrix& blk, DenseMatrix& dst, index_t bi,
                 index_t bj) {
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j < n; ++j) {
        dst.at(bi * n + i, bj * n + j) = blk.at(i, j);
        dst.at(bj * n + j, bi * n + i) = blk.at(i, j);
      }
    }
  };
  put(sm->M, ga, 0, 0);
  put(sm->ga01, ga, 0, 1);
  put(sm->ga11, ga, 1, 1);
  put(sm->gb00, gb, 0, 0);
  put(sm->gb01, gb, 0, 1);
  put(sm->gb11, gb, 1, 1);
  if (use_p) {
    put(sm->ga02, ga, 0, 2);
    put(sm->ga12, ga, 1, 2);
    put(sm->ga22, ga, 2, 2);
    put(sm->gb02, gb, 0, 2);
    put(sm->gb12, gb, 1, 2);
    put(sm->gb22, gb, 2, 2);
  }
  // put() writes both (i,j) and (j,i); diagonal blocks may be slightly
  // asymmetric from floating-point partials, symmetrize explicitly.
  for (index_t i = 0; i < dim; ++i) {
    for (index_t j = i + 1; j < dim; ++j) {
      const double av = 0.5 * (ga.at(i, j) + ga.at(j, i));
      ga.at(i, j) = ga.at(j, i) = av;
      const double bv = 0.5 * (gb.at(i, j) + gb.at(j, i));
      gb.at(i, j) = gb.at(j, i) = bv;
    }
  }

  // A degenerate pencil must not throw from a task body; degrade instead:
  // CX = I, CW = CP = 0 makes the update a no-op, the flag stops the
  // driver loop at its next barrier, and the previous theta survives.
  auto degrade = [&] {
    sm->CX.fill(0.0);
    for (index_t i = 0; i < n; ++i) sm->CX.at(i, i) = 1.0;
    sm->CW.fill(0.0);
    sm->CP.fill(0.0);
  };
  for (index_t i = 0; i < dim; ++i) {
    for (index_t j = 0; j < dim; ++j) {
      if (!std::isfinite(ga.at(i, j)) || !std::isfinite(gb.at(i, j))) {
        sm->nonfinite = true;
        degrade();
        return;
      }
    }
  }

  la::EigenResult eig;
  double jitter = 0.0;
  for (int attempt = 0;; ++attempt) {
    try {
      DenseMatrix gbj = gb.clone();
      for (index_t i = 0; i < dim; ++i) gbj.at(i, i) += jitter;
      eig = la::sym_generalized_eigen(ga.view(), gbj.view());
      break;
    } catch (const support::Error&) {
      if (attempt >= 8) {
        sm->rr_failed = true;
        degrade();
        return;
      }
      jitter = jitter == 0.0 ? 1e-12 : jitter * 100.0;
    }
  }

  for (index_t j = 0; j < n; ++j) {
    sm->theta[static_cast<std::size_t>(j)] = eig.values[static_cast<std::size_t>(j)];
    for (index_t i = 0; i < n; ++i) {
      sm->CX.at(i, j) = eig.vectors.at(i, j);
      sm->CW.at(i, j) = eig.vectors.at(n + i, j);
      sm->CP.at(i, j) = use_p ? eig.vectors.at(2 * n + i, j) : 0.0;
    }
  }
}

/// Attaches the per-iteration convergence metrics to the iteration span.
/// The norms/converged fields are valid here: every version's iteration
/// barrier orders the kConvCheck task before this runs on the driver.
void note_iteration_metrics(obs::IterScope& iter, const Smalls& sm,
                            index_t n) {
  if (!iter.enabled()) return;
  double max_residual = 0.0;
  for (index_t j = 0; j < n; ++j) {
    max_residual = std::max(max_residual, sm.norms.at(j, 0));
  }
  iter.metric("converged", static_cast<double>(sm.converged));
  iter.metric("max_residual", max_residual);
}

/// Applies options.restore (when set) and returns the iteration to resume
/// from. Only X/AX/P/AP and the convergence bookkeeping are restored —
/// every iteration recomputes W/AW/R and the Gram blocks from those, so
/// resuming is bit-identical whenever the kernel schedule is deterministic.
/// The checkpoint must describe this exact solve (kind, shape, seed).
int apply_restore(const LobpcgOptions& options, State& s) {
  if (options.restore == nullptr) return 0;
  const ckpt::Checkpoint& c = *options.restore;
  if (c.kind != ckpt::Kind::kLobpcg) {
    throw support::Error(std::string("lobpcg restore: checkpoint holds ") +
                         ckpt::to_string(c.kind) + " state");
  }
  const ckpt::LobpcgState& st = c.lobpcg;
  if (st.m != s.m || st.n != s.n) {
    throw support::Error("lobpcg restore: checkpoint block is " +
                         std::to_string(st.m) + "x" + std::to_string(st.n) +
                         ", this solve needs " + std::to_string(s.m) + "x" +
                         std::to_string(s.n));
  }
  if (st.seed != options.seed) {
    throw support::Error("lobpcg restore: checkpoint seed " +
                         std::to_string(st.seed) + " != options.seed " +
                         std::to_string(options.seed));
  }
  std::copy(st.x.begin(), st.x.end(), s.X.flat().begin());
  std::copy(st.ax.begin(), st.ax.end(), s.AX.flat().begin());
  std::copy(st.p.begin(), st.p.end(), s.P.flat().begin());
  std::copy(st.ap.begin(), st.ap.end(), s.AP.flat().begin());
  s.sm.theta = st.theta;
  for (index_t j = 0; j < s.n; ++j) {
    s.sm.norms.at(j, 0) = st.norms[static_cast<std::size_t>(j)];
  }
  s.sm.converged = static_cast<int>(st.converged);
  obs::counter("solver.ckpt_restores").add();
  return static_cast<int>(st.iterations);
}

/// Writes a checkpoint after `completed` iterations when the options ask
/// for one (ckpt::save_if_due). Called after the iteration barrier, before
/// the next submission round; a flux solve passes its scheduler as `drain`,
/// whose tail copy kernels may still write the blocks until it quiesces.
void maybe_checkpoint(const LobpcgOptions& options, const State& s,
                      int completed, int every,
                      flux::Scheduler* drain = nullptr) {
  ckpt::save_if_due(options.ckpt_path, completed, every, [&] {
    if (drain != nullptr) drain->wait_for_quiescence();
    ckpt::Checkpoint c;
    c.kind = ckpt::Kind::kLobpcg;
    ckpt::LobpcgState& st = c.lobpcg;
    st.seed = options.seed;
    st.m = s.m;
    st.n = s.n;
    st.iterations = completed;
    st.converged = s.sm.converged;
    st.theta = s.sm.theta;
    st.norms.resize(static_cast<std::size_t>(s.n));
    for (index_t j = 0; j < s.n; ++j) {
      st.norms[static_cast<std::size_t>(j)] = s.sm.norms.at(j, 0);
    }
    st.x.assign(s.X.flat().begin(), s.X.flat().end());
    st.ax.assign(s.AX.flat().begin(), s.AX.flat().end());
    st.p.assign(s.P.flat().begin(), s.P.flat().end());
    st.ap.assign(s.AP.flat().begin(), s.AP.flat().end());
    return c;
  });
}

LobpcgResult finalize(const State& s, IterationTiming timing) {
  LobpcgResult result;
  result.eigenvalues = s.sm.theta;
  result.residual_norms.resize(static_cast<std::size_t>(s.n));
  for (index_t j = 0; j < s.n; ++j) {
    result.residual_norms[static_cast<std::size_t>(j)] = s.sm.norms.at(j, 0);
  }
  result.converged = s.sm.converged;
  if (s.sm.nonfinite) {
    result.status = SolverStatus::kNotFinite;
  } else if (s.sm.rr_failed) {
    result.status = SolverStatus::kBreakdown;
  }
  result.timing = timing;
  return result;
}

// --------------------------------------------------------------------------
// BSP versions (libcsr / libcsb)
// --------------------------------------------------------------------------

LobpcgResult run_bsp(const sparse::Csr* csr, const sparse::Csb& csb,
                     int max_iterations, const LobpcgOptions& options) {
  State s = make_state(csb, options);
  const index_t chunk = options.block_size;
  Smalls& sm = s.sm;
  const int start = apply_restore(options, s);
  const int every = ckpt::effective_every(options.ckpt_every);

  IterationTiming timing;
  const support::Timer timer;
  for (int it = start; it < max_iterations; ++it) {
    poll_cancel(options);
    obs::IterScope iter(csr != nullptr ? "lobpcg.libcsr" : "lobpcg.libcsb",
                        it);
    bsp::xty(s.X.view(), s.AX.view(), sm.M.view(), chunk);
    // R = AX - X M: copy AX -> R, then R -= X M.
    {
      la::ConstMatrixView ax = s.AX.view();
      la::MatrixView r = s.R.view();
#pragma omp parallel for schedule(static)
      for (index_t i = 0; i < s.m; ++i) {
        const double* src = ax.row(i);
        double* dst = r.row(i);
        for (index_t j = 0; j < s.n; ++j) dst[j] = src[j];
      }
    }
    bsp::xy(s.X.view(), sm.M.view(), s.R.view(), chunk, -1.0, 1.0);
    bsp::xty(s.R.view(), s.R.view(), sm.RR.view(), chunk);
    body_conv_check(&sm, options.tolerance);

    // W = orthonormalize(R - X X^T R).
    bsp::xty(s.X.view(), s.R.view(), sm.CXW.view(), chunk);
    bsp::xy(s.X.view(), sm.CXW.view(), s.R.view(), chunk, -1.0, 1.0);
    bsp::xty(s.R.view(), s.R.view(), sm.GWW.view(), chunk);
    body_w_normalizer(&sm);
    bsp::xy(s.R.view(), sm.WSC.view(), s.W.view(), chunk, 1.0, 0.0);

    if (csr != nullptr) {
      bsp::spmm(*csr, s.W.view(), s.AW.view());
    } else {
      bsp::spmm(csb, s.W.view(), s.AW.view());
    }

    bsp::xty(s.X.view(), s.AW.view(), sm.ga01.view(), chunk);
    bsp::xty(s.X.view(), s.AP.view(), sm.ga02.view(), chunk);
    bsp::xty(s.W.view(), s.AW.view(), sm.ga11.view(), chunk);
    bsp::xty(s.W.view(), s.AP.view(), sm.ga12.view(), chunk);
    bsp::xty(s.P.view(), s.AP.view(), sm.ga22.view(), chunk);
    bsp::xty(s.X.view(), s.X.view(), sm.gb00.view(), chunk);
    bsp::xty(s.X.view(), s.W.view(), sm.gb01.view(), chunk);
    bsp::xty(s.X.view(), s.P.view(), sm.gb02.view(), chunk);
    bsp::xty(s.W.view(), s.W.view(), sm.gb11.view(), chunk);
    bsp::xty(s.W.view(), s.P.view(), sm.gb12.view(), chunk);
    bsp::xty(s.P.view(), s.P.view(), sm.gb22.view(), chunk);
    body_rayleigh_ritz(&sm);

    bsp::xy(s.W.view(), sm.CW.view(), s.Pn.view(), chunk, 1.0, 0.0);
    bsp::xy(s.P.view(), sm.CP.view(), s.Pn.view(), chunk, 1.0, 1.0);
    bsp::xy(s.AW.view(), sm.CW.view(), s.APn.view(), chunk, 1.0, 0.0);
    bsp::xy(s.AP.view(), sm.CP.view(), s.APn.view(), chunk, 1.0, 1.0);
    bsp::xy(s.X.view(), sm.CX.view(), s.Xn.view(), chunk, 1.0, 0.0);
    bsp::axpy(1.0, s.Pn.view(), s.Xn.view(), chunk);
    bsp::xy(s.AX.view(), sm.CX.view(), s.AXn.view(), chunk, 1.0, 0.0);
    bsp::axpy(1.0, s.APn.view(), s.AXn.view(), chunk);

    std::swap(s.X, s.Xn);
    std::swap(s.AX, s.AXn);
    std::swap(s.P, s.Pn);
    std::swap(s.AP, s.APn);
    note_iteration_metrics(iter, sm, s.n);
    ++timing.iterations;
    if (sm.converged >= s.n || sm.rr_failed || sm.nonfinite) break;
    maybe_checkpoint(options, s, it + 1, every);
  }
  timing.total_seconds = timer.seconds();
  return finalize(s, timing);
}

// --------------------------------------------------------------------------
// DeepSparse version: one-iteration TDG built once, re-executed with the
// convergence check acting as the inter-iteration barrier. Buffer rotation
// is expressed as copy kernels so the graph stays valid across iterations.
// --------------------------------------------------------------------------

LobpcgResult run_ds(const sparse::Csb& csb, int max_iterations,
                    const LobpcgOptions& options) {
  State s = make_state(csb, options);
  Smalls& sm = s.sm;
  Smalls* smp = &sm;
  const int start = apply_restore(options, s);
  const int every = ckpt::effective_every(options.ckpt_every);

  ds::Program prog(&csb, {.skip_empty_blocks = options.skip_empty_blocks,
                          .dependency_based_spmm =
                              options.dependency_based_spmm,
                          .spmm_buffers =
                              static_cast<std::int32_t>(options.threads)});
  const ds::DataId X = prog.vec("X", &s.X);
  const ds::DataId AX = prog.vec("AX", &s.AX);
  const ds::DataId W = prog.vec("W", &s.W);
  const ds::DataId AW = prog.vec("AW", &s.AW);
  const ds::DataId P = prog.vec("P", &s.P);
  const ds::DataId AP = prog.vec("AP", &s.AP);
  const ds::DataId R = prog.vec("R", &s.R);
  const ds::DataId Xn = prog.vec("Xn", &s.Xn);
  const ds::DataId AXn = prog.vec("AXn", &s.AXn);
  const ds::DataId Pn = prog.vec("Pn", &s.Pn);
  const ds::DataId APn = prog.vec("APn", &s.APn);
  const ds::DataId M = prog.small("M", &sm.M);
  const ds::DataId RR = prog.small("RR", &sm.RR);
  const ds::DataId CXW = prog.small("CXW", &sm.CXW);
  const ds::DataId GWW = prog.small("GWW", &sm.GWW);
  const ds::DataId WSC = prog.small("WSC", &sm.WSC);
  const ds::DataId ga01 = prog.small("ga01", &sm.ga01);
  const ds::DataId ga02 = prog.small("ga02", &sm.ga02);
  const ds::DataId ga11 = prog.small("ga11", &sm.ga11);
  const ds::DataId ga12 = prog.small("ga12", &sm.ga12);
  const ds::DataId ga22 = prog.small("ga22", &sm.ga22);
  const ds::DataId gb00 = prog.small("gb00", &sm.gb00);
  const ds::DataId gb01 = prog.small("gb01", &sm.gb01);
  const ds::DataId gb02 = prog.small("gb02", &sm.gb02);
  const ds::DataId gb11 = prog.small("gb11", &sm.gb11);
  const ds::DataId gb12 = prog.small("gb12", &sm.gb12);
  const ds::DataId gb22 = prog.small("gb22", &sm.gb22);
  const ds::DataId CXid = prog.small("CX", &sm.CX);
  const ds::DataId CWid = prog.small("CW", &sm.CW);
  const ds::DataId CPid = prog.small("CP", &sm.CP);
  const ds::DataId NRM = prog.small("norms", &sm.norms);

  IterationTiming timing;
  const support::Timer build_timer;
  const double tol = options.tolerance;

  prog.xty(X, AX, M);
  prog.copy(AX, R);
  prog.xy(X, M, R, -1.0, 1.0);
  prog.xty(R, R, RR);
  prog.small_task(graph::KernelKind::kConvCheck,
                  [smp, tol] { body_conv_check(smp, tol); }, {RR}, {NRM});
  prog.xty(X, R, CXW);
  prog.xy(X, CXW, R, -1.0, 1.0);
  prog.xty(R, R, GWW);
  prog.small_task(graph::KernelKind::kOrtho,
                  [smp] { body_w_normalizer(smp); }, {GWW}, {WSC});
  prog.xy(R, WSC, W, 1.0, 0.0);
  prog.spmm(W, AW);
  prog.xty(X, AW, ga01);
  prog.xty(X, AP, ga02);
  prog.xty(W, AW, ga11);
  prog.xty(W, AP, ga12);
  prog.xty(P, AP, ga22);
  prog.xty(X, X, gb00);
  prog.xty(X, W, gb01);
  prog.xty(X, P, gb02);
  prog.xty(W, W, gb11);
  prog.xty(W, P, gb12);
  prog.xty(P, P, gb22);
  prog.small_task(graph::KernelKind::kOrtho,
                  [smp] { body_rayleigh_ritz(smp); },
                  {M, ga01, ga02, ga11, ga12, ga22, gb00, gb01, gb02, gb11,
                   gb12, gb22},
                  {CXid, CWid, CPid});
  prog.xy(W, CWid, Pn, 1.0, 0.0);
  prog.xy(P, CPid, Pn, 1.0, 1.0);
  prog.xy(AW, CWid, APn, 1.0, 0.0);
  prog.xy(AP, CPid, APn, 1.0, 1.0);
  prog.xy(X, CXid, Xn, 1.0, 0.0);
  prog.axpy(1.0, Pn, Xn);
  prog.xy(AX, CXid, AXn, 1.0, 0.0);
  prog.axpy(1.0, APn, AXn);
  prog.copy(Xn, X);
  prog.copy(AXn, AX);
  prog.copy(Pn, P);
  prog.copy(APn, AP);
  const graph::Tdg graph = prog.build();
  const ds::Schedule schedule = ds::prepare(graph);
  timing.graph_build_seconds = build_timer.seconds();

  const ds::ExecOptions exec{.mode = ds::ExecMode::kOmpTasks,
                             .trace = options.trace};
  const support::Timer timer;
  for (int it = start; it < max_iterations; ++it) {
    poll_cancel(options);
    obs::IterScope iter("lobpcg.ds", it);
    ds::execute(schedule, exec);
    note_iteration_metrics(iter, sm, s.n);
    ++timing.iterations;
    if (sm.converged >= s.n || sm.rr_failed || sm.nonfinite) break;
    maybe_checkpoint(options, s, it + 1, every);
  }
  timing.total_seconds = timer.seconds();
  return finalize(s, timing);
}

// --------------------------------------------------------------------------
// flux (HPX-style) version: the same kernel sequence as the other versions,
// one task per vector piece; FluxSolve's STF layer infers the futures that
// an HPX programmer threads by hand in Listing 2 from each task's declared
// reads and writes.
// --------------------------------------------------------------------------

class FluxLobpcg {
public:
  /// A tracked block vector (one piece per block row) or small matrix.
  struct Obj {
    DenseMatrix* data;
    int id;
  };

  FluxLobpcg(const sparse::Csb& a, const LobpcgOptions& options)
      : np_(a.block_rows()), b_(a.block_size()), fx_(a, options) {}

  FluxSolve& solve() { return fx_; }

  Obj vec(DenseMatrix* d) { return {d, fx_.data(np_)}; }
  Obj small(DenseMatrix* d) { return {d, fx_.data(1)}; }

  /// y = A * x (dependency-based chains per output piece).
  void spmm(Obj x, Obj y) {
    fx_.spmm(graph::KernelKind::kSpMM, x.data, x.id, y.data, y.id);
  }

  /// y = alpha * x * z + beta * y.
  void xy(Obj x, Obj z, Obj y, double alpha, double beta) {
    for (index_t p = 0; p < np_; ++p) {
      const index_t r0 = p * b_;
      const index_t nr = fx_.rows_in(p);
      fx_.task(graph::KernelKind::kXY, p,
               [xd = x.data, zd = z.data, yd = y.data, r0, nr, alpha, beta] {
                 la::gemm(alpha, xd->row_block(r0, nr), zd->view(), beta,
                          yd->row_block(r0, nr));
               },
               {flux::read(x.id, p), flux::read(z.id), flux::write(y.id, p)});
    }
  }

  /// Resets the per-iteration partial-buffer cursor so xty call sites reuse
  /// their buffers across iterations instead of allocating fresh ones.
  void begin_iteration() { xty_cursor_ = 0; }

  /// p_out = x^T y via partials + reduce. Each call site reuses the same
  /// partial buffer across iterations; the buffer is tracked like any
  /// other vector, so the next iteration's partial writes wait for this
  /// iteration's reduce to have read them.
  void xty(Obj x, Obj y, Obj p_out) {
    const index_t pr = x.data->cols();
    const index_t pc = y.data->cols();
    if (xty_cursor_ == partials_.size()) {
      partials_.push_back(
          {std::make_unique<DenseMatrix>(np_, pr * pc), fx_.data(np_)});
    }
    DenseMatrix* part = partials_[xty_cursor_].buf.get();
    const int part_id = partials_[xty_cursor_].id;
    ++xty_cursor_;
    STS_ASSERT(part->cols() == pr * pc);
    for (index_t p = 0; p < np_; ++p) {
      const index_t r0 = p * b_;
      const index_t nr = fx_.rows_in(p);
      fx_.task(graph::KernelKind::kXTY, p,
               [xd = x.data, yd = y.data, part, r0, nr, p, pr, pc] {
                 la::MatrixView out{part->data() + p * pr * pc, pr, pc, pc};
                 la::gemm_tn(1.0, xd->row_block(r0, nr),
                             yd->row_block(r0, nr), 0.0, out);
               },
               {flux::read(x.id, p), flux::read(y.id, p),
                flux::write(part_id, p)});
    }
    DenseMatrix* dst = p_out.data;
    const index_t np = np_;
    fx_.task(graph::KernelKind::kReduce, -1,
             [part, dst, np, pr, pc] {
               for (index_t i = 0; i < pr; ++i) {
                 for (index_t j = 0; j < pc; ++j) dst->at(i, j) = 0.0;
               }
               for (index_t p = 0; p < np; ++p) {
                 la::ConstMatrixView v{part->data() + p * pr * pc, pr, pc,
                                       pc};
                 la::axpy(1.0, v, dst->view());
               }
             },
             {flux::read(part_id), flux::write(p_out.id)});
  }

  void axpy(double alpha, Obj x, Obj y) {
    for (index_t p = 0; p < np_; ++p) {
      const index_t r0 = p * b_;
      const index_t nr = fx_.rows_in(p);
      fx_.task(graph::KernelKind::kAxpy, p,
               [xd = x.data, yd = y.data, r0, nr, alpha] {
                 la::axpy(alpha, xd->row_block(r0, nr),
                          yd->row_block(r0, nr));
               },
               {flux::read(x.id, p), flux::write(y.id, p)});
    }
  }

  void copy(Obj x, Obj y) {
    for (index_t p = 0; p < np_; ++p) {
      const index_t r0 = p * b_;
      const index_t nr = fx_.rows_in(p);
      fx_.task(graph::KernelKind::kAxpy, p,
               [xd = x.data, yd = y.data, r0, nr] {
                 la::copy(xd->row_block(r0, nr), yd->row_block(r0, nr));
               },
               {flux::read(x.id, p), flux::write(y.id, p)});
    }
  }

private:
  index_t np_;
  index_t b_;
  struct Partial {
    std::unique_ptr<DenseMatrix> buf;
    int id;
  };
  // Before fx_: a partial buffer must outlive the tasks that touch it.
  std::vector<Partial> partials_;
  std::size_t xty_cursor_ = 0;
  FluxSolve fx_;
};

LobpcgResult run_flux(const sparse::Csb& csb, int max_iterations,
                      const LobpcgOptions& options) {
  using flux::read;
  using flux::write;
  State s = make_state(csb, options);
  Smalls& sm = s.sm;
  Smalls* smp = &sm;
  const int start = apply_restore(options, s);
  const int every = ckpt::effective_every(options.ckpt_every);
  FluxLobpcg fx(csb, options);

  const auto X = fx.vec(&s.X);
  const auto AX = fx.vec(&s.AX);
  const auto W = fx.vec(&s.W);
  const auto AW = fx.vec(&s.AW);
  const auto P = fx.vec(&s.P);
  const auto AP = fx.vec(&s.AP);
  const auto R = fx.vec(&s.R);
  const auto Xn = fx.vec(&s.Xn);
  const auto AXn = fx.vec(&s.AXn);
  const auto Pn = fx.vec(&s.Pn);
  const auto APn = fx.vec(&s.APn);
  const auto M = fx.small(&sm.M);
  const auto RR = fx.small(&sm.RR);
  const auto CXW = fx.small(&sm.CXW);
  const auto GWW = fx.small(&sm.GWW);
  const auto WSC = fx.small(&sm.WSC);
  const auto ga01 = fx.small(&sm.ga01);
  const auto ga02 = fx.small(&sm.ga02);
  const auto ga11 = fx.small(&sm.ga11);
  const auto ga12 = fx.small(&sm.ga12);
  const auto ga22 = fx.small(&sm.ga22);
  const auto gb00 = fx.small(&sm.gb00);
  const auto gb01 = fx.small(&sm.gb01);
  const auto gb02 = fx.small(&sm.gb02);
  const auto gb11 = fx.small(&sm.gb11);
  const auto gb12 = fx.small(&sm.gb12);
  const auto gb22 = fx.small(&sm.gb22);
  const auto CX = fx.small(&sm.CX);
  const auto CW = fx.small(&sm.CW);
  const auto CP = fx.small(&sm.CP);
  const auto NRM = fx.small(&sm.norms);
  FluxSolve& solve = fx.solve();

  const double tol = options.tolerance;
  IterationTiming timing;
  const support::Timer timer;
  for (int it = start; it < max_iterations; ++it) {
    poll_cancel(options);
    // Driver-side span: submission through the convergence-check sync; the
    // tail kernels of the iteration may still be in flight on the workers.
    obs::IterScope iter("lobpcg.flux", it);
    fx.begin_iteration();
    fx.xty(X, AX, M);
    fx.copy(AX, R);
    fx.xy(X, M, R, -1.0, 1.0);
    fx.xty(R, R, RR);
    solve.task(graph::KernelKind::kConvCheck, -1,
               [smp, tol] { body_conv_check(smp, tol); },
               {read(RR.id), write(NRM.id)});
    fx.xty(X, R, CXW);
    fx.xy(X, CXW, R, -1.0, 1.0);
    fx.xty(R, R, GWW);
    solve.task(graph::KernelKind::kOrtho, -1,
               [smp] { body_w_normalizer(smp); },
               {read(GWW.id), write(WSC.id)});
    fx.xy(R, WSC, W, 1.0, 0.0);
    fx.spmm(W, AW);
    fx.xty(X, AW, ga01);
    fx.xty(X, AP, ga02);
    fx.xty(W, AW, ga11);
    fx.xty(W, AP, ga12);
    fx.xty(P, AP, ga22);
    fx.xty(X, X, gb00);
    fx.xty(X, W, gb01);
    fx.xty(X, P, gb02);
    fx.xty(W, W, gb11);
    fx.xty(W, P, gb12);
    fx.xty(P, P, gb22);
    solve.task(graph::KernelKind::kOrtho, -1,
               [smp] { body_rayleigh_ritz(smp); },
               {read(M.id), read(ga01.id), read(ga02.id), read(ga11.id),
                read(ga12.id), read(ga22.id), read(gb00.id), read(gb01.id),
                read(gb02.id), read(gb11.id), read(gb12.id), read(gb22.id),
                write(CX.id), write(CW.id), write(CP.id)});
    fx.xy(W, CW, Pn, 1.0, 0.0);
    fx.xy(P, CP, Pn, 1.0, 1.0);
    fx.xy(AW, CW, APn, 1.0, 0.0);
    fx.xy(AP, CP, APn, 1.0, 1.0);
    fx.xy(X, CX, Xn, 1.0, 0.0);
    fx.axpy(1.0, Pn, Xn);
    fx.xy(AX, CX, AXn, 1.0, 0.0);
    fx.axpy(1.0, APn, AXn);
    fx.copy(Xn, X);
    fx.copy(AXn, AX);
    fx.copy(Pn, P);
    fx.copy(APn, AP);

    solve.sync({read(NRM.id)}); // per-iteration convergence check
    note_iteration_metrics(iter, sm, s.n);
    ++timing.iterations;
    if (sm.converged >= s.n || sm.rr_failed || sm.nonfinite) break;
    maybe_checkpoint(options, s, it + 1, every, &solve.scheduler());
  }
  solve.finish();
  timing.total_seconds = timer.seconds();
  return finalize(s, timing);
}

// --------------------------------------------------------------------------
// rgt (Regent-style) version: the runtime's dependence analysis replaces
// the future threading; the driver reads like Listing 3.
// --------------------------------------------------------------------------

class RgtLobpcg {
public:
  RgtLobpcg(State* s, const sparse::Csb* a, const LobpcgOptions& options)
      : s_(s), a_(a), opts_(options), np_(a->block_rows()),
        b_(a->block_size()),
        rt_({.cpu_workers = options.threads}) {}

  rgt::Runtime& runtime() { return rt_; }

  struct Vec {
    DenseMatrix* data;
    rgt::RegionId region;
  };
  struct Small {
    DenseMatrix* data;
    rgt::RegionId region;
  };

  Vec vec(const char* name, DenseMatrix* d) {
    const rgt::RegionId r = rt_.register_region(d->flat(), name);
    rt_.partition_equal(r, static_cast<std::int32_t>(np_));
    return {d, r};
  }
  Small small(const char* name, DenseMatrix* d) {
    return {d, rt_.register_region(d->flat(), name)};
  }

  index_t rows_in(index_t p) const { return std::min(b_, s_->m - p * b_); }

  template <typename Fn>
  rgt::TaskBody traced(graph::KernelKind kind, std::int32_t id, Fn fn) {
    return rgt_traced(opts_.trace, kind, id, std::move(fn));
  }

  void spmm(Vec& x, Vec& y) {
    const sparse::Csb* a = a_;
    if (opts_.dependency_based_spmm) {
      for (index_t bi = 0; bi < np_; ++bi) {
        DenseMatrix* yd = y.data;
        rt_.execute({traced(graph::KernelKind::kZero,
                            static_cast<std::int32_t>(bi),
                            [a, yd, bi](rgt::TaskContext&) {
                              sparse::csb_block_zero(*a, bi, yd->view());
                            }),
                     {{y.region, static_cast<std::int32_t>(bi),
                       rgt::Privilege::kWrite}},
                     "zero"});
      }
      for (index_t bi = 0; bi < np_; ++bi) {
        for (index_t bj = 0; bj < np_; ++bj) {
          if (opts_.skip_empty_blocks && a->block_empty(bi, bj)) continue;
          DenseMatrix* xd = x.data;
          DenseMatrix* yd = y.data;
          rt_.execute({traced(graph::KernelKind::kSpMM,
                              static_cast<std::int32_t>(bi),
                              [a, xd, yd, bi, bj](rgt::TaskContext&) {
                                sparse::csb_block_spmm(*a, bi, bj, xd->view(),
                                                       yd->view());
                              }),
                       {{x.region, static_cast<std::int32_t>(bj),
                         rgt::Privilege::kRead},
                        {y.region, static_cast<std::int32_t>(bi),
                         rgt::Privilege::kReadWrite}},
                       "spmm"});
        }
      }
    } else {
      DenseMatrix* yd = y.data;
      rt_.execute({traced(graph::KernelKind::kZero, -1,
                          [yd](rgt::TaskContext&) { yd->fill(0.0); }),
                   {{y.region, -1, rgt::Privilege::kWrite}},
                   "zero"});
      for (index_t bi = 0; bi < np_; ++bi) {
        for (index_t bj = 0; bj < np_; ++bj) {
          if (opts_.skip_empty_blocks && a->block_empty(bi, bj)) continue;
          DenseMatrix* xd = x.data;
          const rgt::RegionId yr = y.region;
          const index_t m = s_->m;
          const index_t n = s_->n;
          rt_.execute(
              {traced(graph::KernelKind::kSpMM,
                      static_cast<std::int32_t>(bi),
                      [a, xd, yr, bi, bj, m, n](rgt::TaskContext& ctx) {
                        std::span<double> buf = ctx.reduce_target(yr);
                        la::MatrixView out{buf.data(), m, n, n};
                        sparse::csb_block_spmm(*a, bi, bj, xd->view(), out);
                      }),
               {{x.region, static_cast<std::int32_t>(bj),
                 rgt::Privilege::kRead},
                {yr, -1, rgt::Privilege::kReduce}},
               "spmm-reduce"});
        }
      }
    }
  }

  void xy(Vec& x, Small& z, Vec& y, double alpha, double beta) {
    DenseMatrix* xd = x.data;
    DenseMatrix* zd = z.data;
    DenseMatrix* yd = y.data;
    const index_t b = b_;
    rt_.index_launch(static_cast<std::int32_t>(np_), [&, xd, zd, yd,
                                                      b](std::int32_t p) {
      const index_t r0 = static_cast<index_t>(p) * b;
      const index_t nr = rows_in(p);
      return rgt::TaskLaunch{
          traced(graph::KernelKind::kXY, p,
                 [xd, zd, yd, r0, nr, alpha, beta](rgt::TaskContext&) {
                   la::gemm(alpha, xd->row_block(r0, nr), zd->view(), beta,
                            yd->row_block(r0, nr));
                 }),
          {{x.region, p, rgt::Privilege::kRead},
           {z.region, -1, rgt::Privilege::kRead},
           {y.region, p,
            beta == 0.0 ? rgt::Privilege::kWrite
                        : rgt::Privilege::kReadWrite}},
          "xy"};
    });
  }

  /// Resets the partial-buffer cursor at the top of each iteration so call
  /// sites reuse buffers (and their regions) across iterations.
  void begin_iteration() { xty_cursor_ = 0; }

  void xty(Vec& x, Vec& y, Small& p_out) {
    const index_t pr = x.data->cols();
    const index_t pc = y.data->cols();
    if (xty_cursor_ == partials_.size()) {
      auto buf = std::make_unique<DenseMatrix>(np_, pr * pc);
      const rgt::RegionId region =
          rt_.register_region(buf->flat(), "xty_part");
      rt_.partition_equal(region, static_cast<std::int32_t>(np_));
      partials_.push_back({std::move(buf), region});
    }
    DenseMatrix* part = partials_[xty_cursor_].buf.get();
    const rgt::RegionId rpart = partials_[xty_cursor_].region;
    ++xty_cursor_;
    STS_ASSERT(part->cols() == pr * pc);
    DenseMatrix* xd = x.data;
    DenseMatrix* yd = y.data;
    const index_t b = b_;
    const bool same = xd == yd;
    rt_.index_launch(static_cast<std::int32_t>(np_), [&, xd, yd, part, b, pr,
                                                      pc, same,
                                                      rpart](std::int32_t p) {
      const index_t r0 = static_cast<index_t>(p) * b;
      const index_t nr = rows_in(p);
      std::vector<rgt::RegionReq> reqs = {
          {x.region, p, rgt::Privilege::kRead},
          {rpart, p, rgt::Privilege::kWrite}};
      if (!same) reqs.push_back({y.region, p, rgt::Privilege::kRead});
      return rgt::TaskLaunch{
          traced(graph::KernelKind::kXTY, p,
                 [xd, yd, part, r0, nr, p, pr, pc](rgt::TaskContext&) {
                   la::MatrixView out{part->data() + p * pr * pc, pr, pc, pc};
                   la::gemm_tn(1.0, xd->row_block(r0, nr),
                               yd->row_block(r0, nr), 0.0, out);
                 }),
          std::move(reqs), "xty"};
    });
    DenseMatrix* dst = p_out.data;
    const index_t np = np_;
    rt_.execute({traced(graph::KernelKind::kReduce, -1,
                        [part, dst, np, pr, pc](rgt::TaskContext&) {
                          for (index_t i = 0; i < pr; ++i) {
                            for (index_t j = 0; j < pc; ++j) {
                              dst->at(i, j) = 0.0;
                            }
                          }
                          for (index_t p = 0; p < np; ++p) {
                            la::ConstMatrixView v{part->data() + p * pr * pc,
                                                  pr, pc, pc};
                            la::axpy(1.0, v, dst->view());
                          }
                        }),
                 {{rpart, -1, rgt::Privilege::kRead},
                  {p_out.region, -1, rgt::Privilege::kWrite}},
                 "reduce"});
  }

  void axpy(double alpha, Vec& x, Vec& y) {
    DenseMatrix* xd = x.data;
    DenseMatrix* yd = y.data;
    const index_t b = b_;
    rt_.index_launch(static_cast<std::int32_t>(np_), [&, xd, yd,
                                                      b](std::int32_t p) {
      const index_t r0 = static_cast<index_t>(p) * b;
      const index_t nr = rows_in(p);
      return rgt::TaskLaunch{
          traced(graph::KernelKind::kAxpy, p,
                 [xd, yd, r0, nr, alpha](rgt::TaskContext&) {
                   la::axpy(alpha, xd->row_block(r0, nr),
                            yd->row_block(r0, nr));
                 }),
          {{x.region, p, rgt::Privilege::kRead},
           {y.region, p, rgt::Privilege::kReadWrite}},
          "axpy"};
    });
  }

  void copy(Vec& x, Vec& y) {
    DenseMatrix* xd = x.data;
    DenseMatrix* yd = y.data;
    const index_t b = b_;
    rt_.index_launch(static_cast<std::int32_t>(np_), [&, xd, yd,
                                                      b](std::int32_t p) {
      const index_t r0 = static_cast<index_t>(p) * b;
      const index_t nr = rows_in(p);
      return rgt::TaskLaunch{
          traced(graph::KernelKind::kAxpy, p,
                 [xd, yd, r0, nr](rgt::TaskContext&) {
                   la::copy(xd->row_block(r0, nr), yd->row_block(r0, nr));
                 }),
          {{x.region, p, rgt::Privilege::kRead},
           {y.region, p, rgt::Privilege::kWrite}},
          "copy"};
    });
  }

  template <typename Fn>
  void small_op(graph::KernelKind kind, std::vector<Small*> reads,
                std::vector<Small*> writes, Fn fn) {
    std::vector<rgt::RegionReq> reqs;
    for (Small* r : reads) reqs.push_back({r->region, -1, rgt::Privilege::kRead});
    for (Small* w : writes) {
      reqs.push_back({w->region, -1, rgt::Privilege::kReadWrite});
    }
    rt_.execute({traced(kind, -1, [fn](rgt::TaskContext&) { fn(); }),
                 std::move(reqs), "small"});
  }

private:
  State* s_;
  const sparse::Csb* a_;
  LobpcgOptions opts_;
  index_t np_;
  index_t b_;
  rgt::Runtime rt_;
  struct Partial {
    std::unique_ptr<DenseMatrix> buf;
    rgt::RegionId region;
  };
  std::vector<Partial> partials_;
  std::size_t xty_cursor_ = 0;
};

LobpcgResult run_rgt(const sparse::Csb& csb, int max_iterations,
                     const LobpcgOptions& options) {
  State s = make_state(csb, options);
  Smalls& sm = s.sm;
  Smalls* smp = &sm;
  const int start = apply_restore(options, s);
  const int every = ckpt::effective_every(options.ckpt_every);
  RgtLobpcg rg(&s, &csb, options);

  auto X = rg.vec("X", &s.X);
  auto AX = rg.vec("AX", &s.AX);
  auto W = rg.vec("W", &s.W);
  auto AW = rg.vec("AW", &s.AW);
  auto P = rg.vec("P", &s.P);
  auto AP = rg.vec("AP", &s.AP);
  auto R = rg.vec("R", &s.R);
  auto Xn = rg.vec("Xn", &s.Xn);
  auto AXn = rg.vec("AXn", &s.AXn);
  auto Pn = rg.vec("Pn", &s.Pn);
  auto APn = rg.vec("APn", &s.APn);
  auto M = rg.small("M", &sm.M);
  auto RR = rg.small("RR", &sm.RR);
  auto CXW = rg.small("CXW", &sm.CXW);
  auto GWW = rg.small("GWW", &sm.GWW);
  auto WSC = rg.small("WSC", &sm.WSC);
  auto ga01 = rg.small("ga01", &sm.ga01);
  auto ga02 = rg.small("ga02", &sm.ga02);
  auto ga11 = rg.small("ga11", &sm.ga11);
  auto ga12 = rg.small("ga12", &sm.ga12);
  auto ga22 = rg.small("ga22", &sm.ga22);
  auto gb00 = rg.small("gb00", &sm.gb00);
  auto gb01 = rg.small("gb01", &sm.gb01);
  auto gb02 = rg.small("gb02", &sm.gb02);
  auto gb11 = rg.small("gb11", &sm.gb11);
  auto gb12 = rg.small("gb12", &sm.gb12);
  auto gb22 = rg.small("gb22", &sm.gb22);
  auto CX = rg.small("CX", &sm.CX);
  auto CW = rg.small("CW", &sm.CW);
  auto CP = rg.small("CP", &sm.CP);
  auto NRM = rg.small("norms", &sm.norms);

  const double tol = options.tolerance;
  IterationTiming timing;
  const support::Timer timer;
  for (int it = start; it < max_iterations; ++it) {
    poll_cancel(options);
    obs::IterScope iter("lobpcg.rgt", it);
    rg.begin_iteration();
    rg.xty(X, AX, M);
    rg.copy(AX, R);
    rg.xy(X, M, R, -1.0, 1.0);
    rg.xty(R, R, RR);
    rg.small_op(graph::KernelKind::kConvCheck, {&RR}, {&NRM},
                [smp, tol] { body_conv_check(smp, tol); });
    rg.xty(X, R, CXW);
    rg.xy(X, CXW, R, -1.0, 1.0);
    rg.xty(R, R, GWW);
    rg.small_op(graph::KernelKind::kOrtho, {&GWW}, {&WSC},
                [smp] { body_w_normalizer(smp); });
    rg.xy(R, WSC, W, 1.0, 0.0);
    rg.spmm(W, AW);
    rg.xty(X, AW, ga01);
    rg.xty(X, AP, ga02);
    rg.xty(W, AW, ga11);
    rg.xty(W, AP, ga12);
    rg.xty(P, AP, ga22);
    rg.xty(X, X, gb00);
    rg.xty(X, W, gb01);
    rg.xty(X, P, gb02);
    rg.xty(W, W, gb11);
    rg.xty(W, P, gb12);
    rg.xty(P, P, gb22);
    rg.small_op(graph::KernelKind::kOrtho,
                {&M, &ga01, &ga02, &ga11, &ga12, &ga22, &gb00, &gb01, &gb02,
                 &gb11, &gb12, &gb22},
                {&CX, &CW, &CP}, [smp] { body_rayleigh_ritz(smp); });
    rg.xy(W, CW, Pn, 1.0, 0.0);
    rg.xy(P, CP, Pn, 1.0, 1.0);
    rg.xy(AW, CW, APn, 1.0, 0.0);
    rg.xy(AP, CP, APn, 1.0, 1.0);
    rg.xy(X, CX, Xn, 1.0, 0.0);
    rg.axpy(1.0, Pn, Xn);
    rg.xy(AX, CX, AXn, 1.0, 0.0);
    rg.axpy(1.0, APn, AXn);
    rg.copy(Xn, X);
    rg.copy(AXn, AX);
    rg.copy(Pn, P);
    rg.copy(APn, AP);

    rg.runtime().wait_all(); // per-iteration convergence barrier
    note_iteration_metrics(iter, sm, s.n);
    ++timing.iterations;
    if (sm.converged >= s.n || sm.rr_failed || sm.nonfinite) break;
    maybe_checkpoint(options, s, it + 1, every);
  }
  timing.total_seconds = timer.seconds();
  return finalize(s, timing);
}

} // namespace

LobpcgResult lobpcg(const sparse::Csr& csr, const sparse::Csb& csb,
                    int max_iterations, Version v,
                    const LobpcgOptions& options) {
  validate(options);
  if (max_iterations < 1) {
    throw support::Error("lobpcg: max_iterations must be >= 1, got " +
                         std::to_string(max_iterations));
  }
  if (csb.rows() != csb.cols()) {
    throw support::Error("lobpcg: matrix must be square, got " +
                         std::to_string(csb.rows()) + " x " +
                         std::to_string(csb.cols()));
  }
  if (csb.block_size() != options.block_size) {
    throw support::Error(
        "lobpcg: CSB block size " + std::to_string(csb.block_size()) +
        " does not match options.block_size " +
        std::to_string(options.block_size));
  }
  if (options.nev < 1 || options.nev > csb.rows() / 4) {
    throw support::Error("lobpcg: nev must be in [1, rows/4], got " +
                         std::to_string(options.nev) + " for " +
                         std::to_string(csb.rows()) + " rows");
  }
  if (!(options.tolerance > 0.0) || !std::isfinite(options.tolerance)) {
    throw support::Error("lobpcg: tolerance must be positive and finite");
  }
#ifdef _OPENMP
  omp_set_num_threads(static_cast<int>(options.threads));
#endif
  switch (v) {
    case Version::kLibCsr:
      STS_EXPECTS(csr.rows() == csb.rows());
      return run_bsp(&csr, csb, max_iterations, options);
    case Version::kLibCsb:
      return run_bsp(nullptr, csb, max_iterations, options);
    case Version::kDs:
      return run_ds(csb, max_iterations, options);
    case Version::kFlux:
      return run_flux(csb, max_iterations, options);
    case Version::kRgt:
      return run_rgt(csb, max_iterations, options);
  }
  throw support::Error("unknown solver version");
}

} // namespace sts::solver
