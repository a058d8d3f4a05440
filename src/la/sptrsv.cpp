#include "la/sptrsv.hpp"

#include <algorithm>
#include <string>

#include "flux/dataflow.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"

namespace sts::la {

namespace {

using sparse::Csb;

/// x_block[bi] -= L(bi,bj) * x_block[bj]: the gather update one finished
/// predecessor contributes to a pending block row. `x` is the full vector.
void block_gather_sub(const Csb& l, index_t bi, index_t bj,
                      std::span<double> x) {
  const Csb::BlockView v = l.block_view(bi, bj);
  if (v.nnz == 0) return;
  const index_t rbase = bi * l.block_size();
  const index_t cbase = bj * l.block_size();
  for (const Csb::RowSegment& seg : v.segments) {
    double acc = 0.0;
    for (std::int64_t t = seg.begin; t < seg.begin + seg.count; ++t) {
      acc += v.values[t] * x[static_cast<std::size_t>(cbase + v.col(t))];
    }
    x[static_cast<std::size_t>(rbase + seg.row)] -= acc;
  }
}

/// In-place forward solve of the diagonal block: on entry x_block[bi]
/// holds the fully-updated right-hand side, on exit the solution. Row
/// segments are sorted by row and each ends on its diagonal entry, so one
/// forward sweep suffices.
void block_diag_solve(const Csb& l, index_t bi, std::span<double> x) {
  const Csb::BlockView v = l.block_view(bi, bi);
  const index_t base = bi * l.block_size();
  for (const Csb::RowSegment& seg : v.segments) {
    const std::int64_t last = seg.begin + seg.count - 1;
    double acc = x[static_cast<std::size_t>(base + seg.row)];
    for (std::int64_t t = seg.begin; t < last; ++t) {
      acc -= v.values[t] * x[static_cast<std::size_t>(base + v.col(t))];
    }
    x[static_cast<std::size_t>(base + seg.row)] = acc / v.values[last];
  }
}

/// x_block[bj] -= L(bi,bj)^T * x_block[bi]: the transposed gather update
/// of the backward solve (column bj of L^T is row bj of L, so successors'
/// rows scatter into this block's right-hand side).
void block_gather_sub_t(const Csb& l, index_t bi, index_t bj,
                        std::span<double> x) {
  const Csb::BlockView v = l.block_view(bi, bj);
  if (v.nnz == 0) return;
  const index_t rbase = bi * l.block_size();
  const index_t cbase = bj * l.block_size();
  for (const Csb::RowSegment& seg : v.segments) {
    const double xr = x[static_cast<std::size_t>(rbase + seg.row)];
    for (std::int64_t t = seg.begin; t < seg.begin + seg.count; ++t) {
      x[static_cast<std::size_t>(cbase + v.col(t))] -= v.values[t] * xr;
    }
  }
}

/// In-place backward (L^T) solve of the diagonal block: sweep the rows in
/// reverse; each solved entry scatters into the columns below it.
void block_diag_solve_t(const Csb& l, index_t bi, std::span<double> x) {
  const Csb::BlockView v = l.block_view(bi, bi);
  const index_t base = bi * l.block_size();
  for (std::size_t s = v.segments.size(); s-- > 0;) {
    const Csb::RowSegment& seg = v.segments[s];
    const std::int64_t last = seg.begin + seg.count - 1;
    const double xr = x[static_cast<std::size_t>(base + seg.row)] /
                      v.values[last];
    x[static_cast<std::size_t>(base + seg.row)] = xr;
    for (std::int64_t t = seg.begin; t < last; ++t) {
      x[static_cast<std::size_t>(base + v.col(t))] -= v.values[t] * xr;
    }
  }
}

void copy_block(const Csb& l, index_t bi, std::span<const double> b,
                std::span<double> x) {
  const index_t base = bi * l.block_size();
  const index_t nr = l.rows_in_block(bi);
  if (x.data() + base == b.data() + base) return; // aliasing solve
  std::copy(b.begin() + base, b.begin() + base + nr, x.begin() + base);
}

void check_shapes(const Csb& l, const SptrsvPlan& plan,
                  std::span<const double> b, std::span<double> x) {
  if (plan.block_rows() != l.block_rows()) {
    throw support::Error("sptrsv: plan built for " +
                         std::to_string(plan.block_rows()) +
                         " block rows, matrix has " +
                         std::to_string(l.block_rows()));
  }
  if (b.size() != static_cast<std::size_t>(l.rows()) ||
      x.size() != static_cast<std::size_t>(l.rows())) {
    throw support::Error("sptrsv: vector length does not match matrix rows");
  }
}

} // namespace

SptrsvPlan SptrsvPlan::build(const sparse::Csb& lower) {
  if (lower.rows() != lower.cols()) {
    throw support::Error("sptrsv: factor must be square, got " +
                         std::to_string(lower.rows()) + " x " +
                         std::to_string(lower.cols()));
  }
  const index_t nb = lower.block_rows();
  SptrsvPlan plan;
  plan.row_deps_.resize(static_cast<std::size_t>(nb));
  plan.col_blocks_.resize(static_cast<std::size_t>(nb));

  for (index_t bi = 0; bi < nb; ++bi) {
    for (index_t bj = bi + 1; bj < lower.block_cols(); ++bj) {
      if (!lower.block_empty(bi, bj)) {
        throw support::Error("sptrsv: block (" + std::to_string(bi) + "," +
                             std::to_string(bj) +
                             ") is above the diagonal; factor is not lower "
                             "triangular");
      }
    }
    for (index_t bj = 0; bj < bi; ++bj) {
      if (lower.block_empty(bi, bj)) continue;
      plan.row_deps_[static_cast<std::size_t>(bi)].push_back(bj);
      plan.col_blocks_[static_cast<std::size_t>(bj)].push_back(bi);
    }
    // Diagonal block: one segment per row of the block, each closed by its
    // diagonal entry — what the in-place sweeps divide by.
    const Csb::BlockView v = lower.block_view(bi, bi);
    const index_t nr = lower.rows_in_block(bi);
    if (static_cast<index_t>(v.segments.size()) != nr) {
      throw support::Error("sptrsv: diagonal block " + std::to_string(bi) +
                           " covers " + std::to_string(v.segments.size()) +
                           " of " + std::to_string(nr) +
                           " rows; a structurally missing diagonal makes "
                           "the factor singular");
    }
    for (const Csb::RowSegment& seg : v.segments) {
      const std::int64_t last = seg.begin + seg.count - 1;
      if (v.col(last) != seg.row) {
        throw support::Error(
            "sptrsv: row " + std::to_string(bi * lower.block_size() + seg.row) +
            " has no diagonal entry (or entries above it)");
      }
    }
  }

  // Level schedule: level(bi) = 1 + max level over predecessors. Computable
  // in one ascending pass because every dependency points backwards.
  std::vector<index_t> level(static_cast<std::size_t>(nb), 0);
  index_t span = 0;
  for (index_t bi = 0; bi < nb; ++bi) {
    index_t lv = 0;
    for (const index_t bj : plan.row_deps_[static_cast<std::size_t>(bi)]) {
      lv = std::max(lv, level[static_cast<std::size_t>(bj)] + 1);
    }
    level[static_cast<std::size_t>(bi)] = lv;
    span = std::max(span, lv + 1);
  }
  plan.levels_.resize(static_cast<std::size_t>(span));
  for (index_t bi = 0; bi < nb; ++bi) {
    plan.levels_[static_cast<std::size_t>(level[static_cast<std::size_t>(bi)])]
        .push_back(bi);
  }
  for (const auto& wave : plan.levels_) {
    plan.max_width_ =
        std::max(plan.max_width_, static_cast<index_t>(wave.size()));
  }
  obs::gauge("sptrsv.level_span").observe(span);
  obs::gauge("sptrsv.max_level_width").observe(plan.max_width_);
  return plan;
}

void sptrsv_forward(const sparse::Csb& lower, const SptrsvPlan& plan,
                    std::span<const double> b, std::span<double> x) {
  check_shapes(lower, plan, b, x);
  for (index_t bi = 0; bi < lower.block_rows(); ++bi) {
    copy_block(lower, bi, b, x);
    for (const index_t bj : plan.deps(bi)) {
      block_gather_sub(lower, bi, bj, x);
    }
    block_diag_solve(lower, bi, x);
  }
}

void sptrsv_backward(const sparse::Csb& lower, const SptrsvPlan& plan,
                     std::span<const double> b, std::span<double> x) {
  check_shapes(lower, plan, b, x);
  for (index_t bj = lower.block_rows(); bj-- > 0;) {
    copy_block(lower, bj, b, x);
    for (const index_t bi : plan.transposed_deps(bj)) {
      block_gather_sub_t(lower, bi, bj, x);
    }
    block_diag_solve_t(lower, bj, x);
  }
}

namespace {

/// Shared task-parallel driver for both orientations: submit one future
/// per block row in a topological order (ascending for forward, descending
/// for backward), chained on the plan's DAG edges, then cooperatively wait
/// on every row. The per-row task does the whole gather + in-block solve —
/// coarse enough to amortize task overhead, fine enough that independent
/// waves fill the machine.
template <typename Deps, typename Body>
void run_dag(const sparse::Csb& lower, flux::Scheduler& sched,
             const sparse::Csb::DomainMap* dmap, bool ascending,
             Deps&& deps_of, Body&& make_body) {
  const index_t nb = lower.block_rows();
  using Fut = flux::shared_future<void>;
  std::vector<Fut> done(static_cast<std::size_t>(nb));
  for (index_t step = 0; step < nb; ++step) {
    const index_t br = ascending ? step : nb - 1 - step;
    const std::vector<index_t>& deps = deps_of(br);
    std::vector<Fut> wait;
    wait.reserve(deps.size());
    for (const index_t d : deps) wait.push_back(done[static_cast<std::size_t>(d)]);
    const int hint = dmap != nullptr && dmap->domains() > 1
                         ? dmap->owner(br)
                         : -1;
    done[static_cast<std::size_t>(br)] =
        flux::dataflow_hint(sched, hint, flux::unwrapping(make_body(br)),
                            std::move(wait))
            .share();
  }
  for (Fut& f : done) f.get(&sched);
}

} // namespace

void sptrsv_forward(const sparse::Csb& lower, const SptrsvPlan& plan,
                    std::span<const double> b, std::span<double> x,
                    flux::Scheduler& sched,
                    const sparse::Csb::DomainMap* dmap) {
  check_shapes(lower, plan, b, x);
  const sparse::Csb* l = &lower;
  const SptrsvPlan* p = &plan;
  run_dag(
      lower, sched, dmap, /*ascending=*/true,
      [p](index_t bi) -> const std::vector<index_t>& { return p->deps(bi); },
      [l, p, b, x](index_t bi) {
        return [l, p, b, x, bi] {
          const obs::prof::TaskMark mark("flux", graph::KernelKind::kSpTRSV);
          copy_block(*l, bi, b, x);
          for (const index_t bj : p->deps(bi)) {
            block_gather_sub(*l, bi, bj, x);
          }
          block_diag_solve(*l, bi, x);
        };
      });
}

void sptrsv_backward(const sparse::Csb& lower, const SptrsvPlan& plan,
                     std::span<const double> b, std::span<double> x,
                     flux::Scheduler& sched,
                     const sparse::Csb::DomainMap* dmap) {
  check_shapes(lower, plan, b, x);
  const sparse::Csb* l = &lower;
  const SptrsvPlan* p = &plan;
  run_dag(
      lower, sched, dmap, /*ascending=*/false,
      [p](index_t bj) -> const std::vector<index_t>& {
        return p->transposed_deps(bj);
      },
      [l, p, b, x](index_t bj) {
        return [l, p, b, x, bj] {
          const obs::prof::TaskMark mark("flux", graph::KernelKind::kSpTRSV);
          copy_block(*l, bj, b, x);
          for (const index_t bi : p->transposed_deps(bj)) {
            block_gather_sub_t(*l, bi, bj, x);
          }
          block_diag_solve_t(*l, bj, x);
        };
      });
}

} // namespace sts::la
