// The two in-process solver workloads: lanczos-fem and lobpcg-nuclear.
// Each builds its matrix once, times set-up separately, warms up, then runs
// every version round-robin inside each timed repetition so that host
// drift hits all versions alike.
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>

#include "probes.hpp"
#include "sim/workloads.hpp"
#include "solvers/lanczos.hpp"
#include "solvers/lobpcg.hpp"
#include "sparse/suite.hpp"
#include "tuning/block_select.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace solver = sts::solver;
namespace sparse = sts::sparse;
using sts::la::index_t;

namespace {

const Spec kSpecs[] = {
    {"lanczos-fem", "inline_1", 1.0, 0.05, Kind::kLanczos, 60, 20, 0, 61, 1},
    {"lobpcg-nuclear", "Nm7", 0.2, 0.02, Kind::kLobpcg, 10, 10, 8, 8, 8},
};

// LOBPCG stops on its residual; a tolerance near the double range's floor
// keeps every run at the fixed iteration count.
constexpr double kUnreachableTol = 1e-300;
constexpr double kMatchTol = 1e-8; // relative agreement with serial
// A timed round during which the hypervisor stole more than this share of
// the machine's CPU time measured the host's other guests as much as the
// program; steal comes in phases of tens of seconds on a shared host.
constexpr double kQuietSteal = 0.02;

/// What a solve returns, reduced to what the checks and metrics need.
struct Answer {
  std::vector<double> values; // Ritz values / eigenvalues
  solver::SolverStatus status = solver::SolverStatus::kOk;
  int iterations = 0;
  double loop_s = 0.0;        // solver-reported iteration loop time
  double graph_build_s = 0.0; // ds only
};

std::string sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.12e", v);
  return buf;
}

/// Metric label of a version (the short names the CLI accepts).
const char* label(solver::Version v) {
  switch (v) {
    case solver::Version::kLibCsr: return "libcsr";
    case solver::Version::kLibCsb: return "libcsb";
    case solver::Version::kDs: return "ds";
    case solver::Version::kFlux: return "flux";
    case solver::Version::kRgt: return "rgt";
  }
  return "?";
}

/// Set-up samples: CSR from COO plus one CSB per block size the run uses.
struct Setup {
  std::vector<double> total;
  std::vector<double> csr;
  std::vector<double> csb;
};

class Problem {
public:
  /// Builds the matrix of `spec`, timing the set-up `reps` times (the
  /// median is what gets reported).
  Problem(const Spec& spec, const RunConfig& cfg,
          const std::vector<Variant>& variants, const sparse::Coo& coo,
          Tracer& tracer, Setup& setup)
      : spec_(spec), iterations_(spec.its(cfg.smoke)), seed_(cfg.seed) {
    const int reps = cfg.smoke ? 2 : 7;
    for (int rep = 0; rep < reps; ++rep) {
      sparse::Coo copy = coo;
      sparse::Csr c;
      std::map<index_t, sparse::Csb> m;
      const double tc = tracer.time("sparse.csr_build", -1, [&] {
        c = sparse::Csr::from_coo(std::move(copy));
      });
      double tb = 0.0;
      for (const Variant& v : variants) {
        if (m.count(v.block) != 0) continue;
        tb += tracer.time("sparse.csb_build", -1, [&] {
          m.emplace(v.block, sparse::Csb::from_csr(c, v.block));
        });
      }
      setup.csr.push_back(tc);
      setup.csb.push_back(tb);
      setup.total.push_back(tc + tb);
      csr_ = std::move(c);
      csbs_ = std::move(m);
    }
  }

  [[nodiscard]] int iterations() const { return iterations_; }
  [[nodiscard]] const sparse::Csr& csr() const { return csr_; }
  [[nodiscard]] const sparse::Csb& csb(index_t block) const {
    return csbs_.at(block);
  }

  Answer solve(const Variant& v, sts::flux::Scheduler* pool) const {
    solver::SolverOptions o;
    o.block_size = v.block;
    o.threads = v.threads;
    o.seed = seed_;
    if (v.version == solver::Version::kFlux) o.flux_pool = pool;
    const sparse::Csb& a = csb(v.block);
    Answer ans;
    if (spec_.kind == Kind::kLanczos) {
      const auto r = solver::lanczos(csr_, a, iterations_, v.version, o);
      ans.values = r.ritz_values;
      ans.status = r.status;
      ans.iterations = r.timing.iterations;
      ans.loop_s = r.timing.total_seconds;
      ans.graph_build_s = r.timing.graph_build_seconds;
    } else {
      solver::LobpcgOptions lo;
      static_cast<solver::SolverOptions&>(lo) = o;
      lo.nev = spec_.nev;
      lo.tolerance = kUnreachableTol;
      const auto r = solver::lobpcg(csr_, a, iterations_, v.version, lo);
      ans.values = r.eigenvalues;
      ans.status = r.status;
      ans.iterations = r.timing.iterations;
      ans.loop_s = r.timing.total_seconds;
      ans.graph_build_s = r.timing.graph_build_seconds;
    }
    return ans;
  }

  /// Empty when `a` is a correct answer given the serial reference `ref`.
  [[nodiscard]] std::string check(const Answer& a, const Answer& ref) const {
    if (a.status != solver::SolverStatus::kOk) {
      return std::string("status ") + solver::to_string(a.status);
    }
    if (a.iterations != iterations_) {
      return "ran " + std::to_string(a.iterations) + " iterations, not " +
             std::to_string(iterations_);
    }
    if (a.values.size() != ref.values.size() || a.values.empty()) {
      return "result size differs from serial";
    }
    for (std::size_t i = 0; i < a.values.size(); ++i) {
      const double d = std::abs(a.values[i] - ref.values[i]);
      if (!(d <= kMatchTol * std::abs(ref.values[i]))) {
        return "eigenvalue " + std::to_string(i) + " is " +
               sci(a.values[i]) + ", serial " + sci(ref.values[i]);
      }
    }
    return "";
  }

private:
  const Spec& spec_;
  int iterations_;
  std::uint64_t seed_;
  sparse::Csr csr_;
  std::map<index_t, sparse::Csb> csbs_;
};

/// Per-variant samples from the timed repetitions.
struct Samples {
  std::vector<int> rep; // the repetition each sample below belongs to
  std::vector<double> wall;
  std::vector<double> loop;
  std::vector<double> graph_build;
  int iterations = 0;
  double flux_tasks = 0.0;  // traced runs: pool tasks over all solves
  double flux_steals = 0.0;
  double flux_wall = 0.0;
};

} // namespace

const Spec& find_spec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return s;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

std::vector<Variant> make_variants(index_t rows) {
  using V = solver::Version;
  std::vector<Variant> out;
  for (const V v : {V::kLibCsr, V::kLibCsb, V::kDs, V::kFlux, V::kRgt}) {
    out.push_back({label(v), v, kWorkers,
                   sts::tune::recommended_block_size(v, kWorkers, rows)});
  }
  // The single-thread baseline: the same libcsb call at one thread.
  out.push_back({"serial", V::kLibCsb, 1, out[1].block});
  return out;
}

const Variant& by_label(const std::vector<Variant>& variants,
                        const std::string& label) {
  for (const Variant& v : variants) {
    if (v.label == label) return v;
  }
  throw std::logic_error("no variant " + label);
}

Outcome run_solver_workload(const RunConfig& cfg, Tracer& tracer) {
  const Spec& spec = find_spec(cfg.workload);
  Outcome out;

  const sparse::Coo coo =
      sparse::suite_entry(spec.matrix).make(spec.size(cfg.smoke));
  const std::vector<Variant> variants = make_variants(coo.rows());
  Setup setup;
  const Problem problem(spec, cfg, variants, coo, tracer, setup);

  // Traced runs hand flux a benchmark-owned pool so its counters can be
  // read around each solve; untraced runs let each call start its own.
  std::unique_ptr<sts::flux::Scheduler> pool;
  if (cfg.trace) {
    pool = std::make_unique<sts::flux::Scheduler>(pool_config(kWorkers));
  }

  std::map<std::string, Samples> samples;
  Answer reference;

  // One solve: timed from outside, checked against the serial reference.
  const auto run_one = [&](const Variant& v, int rep) {
    Samples& s = samples[v.label];
    const auto before = pool ? pool->stats() : sts::flux::Scheduler::Stats{};
    Answer ans;
    double wall = 0.0;
    try {
      wall = tracer.time("solve." + v.label, rep,
                         [&] { ans = problem.solve(v, pool.get()); });
    } catch (const std::exception& e) {
      out.record(v.label + ": " + e.what());
      return;
    }
    if (v.label == "serial" && reference.values.empty()) reference = ans;
    const std::string err = problem.check(ans, reference);
    out.record(err.empty() ? err : v.label + ": " + err);
    if (!err.empty() || rep < 0) return; // warm-up solves are not timed
    s.rep.push_back(rep);
    s.wall.push_back(wall);
    s.loop.push_back(ans.loop_s);
    s.graph_build.push_back(ans.graph_build_s);
    s.iterations = ans.iterations;
    if (pool && v.version == solver::Version::kFlux) {
      const auto after = pool->stats();
      s.flux_tasks += static_cast<double>(after.executed - before.executed);
      s.flux_steals += static_cast<double>(after.steals - before.steals);
      s.flux_wall += wall;
    }
  };

  // Warm-up: the serial reference first, then one untimed round of every
  // version — the first call of each pays one-off costs (thread creation,
  // first touch of its workspaces) that a warm process does not.
  run_one(variants.back(), -1);
  for (const Variant& v : variants) run_one(v, -1);

  // Timed repetitions: every version once per repetition, round-robin,
  // until the time is up (and at least three repetitions). The medians
  // summarize the rounds the host left quiet, the same rounds for every
  // version.
  const std::int64_t end =
      now_ns() + static_cast<std::int64_t>(cfg.seconds * 1e9);
  std::vector<double> round_steal;
  int rep = 0;
  do {
    const CpuTicks before = cpu_ticks();
    for (const Variant& v : variants) run_one(v, rep);
    round_steal.push_back(steal_share(before, cpu_ticks()));
    ++rep;
  } while (now_ns() < end || rep < 3);
  const std::vector<bool> quiet = quiet_rounds(round_steal, kQuietSteal);
  std::size_t used = 0;
  for (const bool q : quiet) used += q ? 1 : 0;
  std::printf("host steal: median %.2f%% of CPU time per round; %zu of %zu "
              "rounds at most %.0f%% (or the quietest quarter) summarized\n",
              100.0 * median(round_steal), used, quiet.size(),
              100.0 * kQuietSteal);
  // The samples of `s` taken in quiet rounds.
  const auto in_quiet = [&](const Samples& s, const std::vector<double>& v) {
    std::vector<double> kept;
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (quiet[static_cast<std::size_t>(s.rep[i])]) kept.push_back(v[i]);
    }
    return kept;
  };

  for (const Variant& v : variants) {
    const Samples& s = samples[v.label];
    out.e2e.add_median("solve_s." + v.label, in_quiet(s, s.wall), "s");
  }
  out.e2e.add_median("setup_s", setup.total, "s");
  out.e2e.add("rss_peak_mb", rss_peak_mib(), "MiB");
  if (!cfg.trace) return out;

  // ---- per-layer metrics (traced run only) ----
  MetricSet& layer = out.layer;
  const int reps = cfg.smoke ? 3 : 30;
  const Variant& csb_variant = by_label(variants, "libcsb");
  layer.add_median("sparse.csr_build_s", setup.csr, "s");
  layer.add_median("sparse.csb_build_s", setup.csb, "s");
  layer.add("sparse.csr_bytes",
            static_cast<double>(problem.csr().memory_bytes()), "bytes");
  layer.add("sparse.csb_bytes",
            static_cast<double>(
                problem.csb(csb_variant.block).memory_bytes()),
            "bytes");
  for (const Variant& v : variants) {
    layer.add("tuning.block." + v.label, static_cast<double>(v.block),
              "rows");
  }
  probe_bsp(layer, tracer, problem.csr(), problem.csb(csb_variant.block),
            spec.basis_cols, spec.rhs_cols, kWorkers, reps);
  probe_la(layer, tracer, problem.csr(), by_label(variants, "flux").block,
           kWorkers, cfg.smoke ? 2 : 5);
  probe_flux(layer, tracer, kWorkers, reps);

  layer.add_median("ds.graph_build_s",
                   in_quiet(samples["ds"], samples["ds"].graph_build), "s");
  const sparse::Csb& a = problem.csb(by_label(variants, "ds").block);
  const sts::sim::WorkloadOptions opts{
      .spmm_buffers = static_cast<std::int32_t>(kWorkers)};
  const sts::sim::Workload wl =
      spec.kind == Kind::kLanczos
          ? sts::sim::build_lanczos_workload(problem.csr(), a,
                                             problem.iterations() + 1, opts)
          : sts::sim::build_lobpcg_workload(problem.csr(), a, spec.nev,
                                            opts);
  layer.add("graph.tasks", static_cast<double>(wl.task_graph.task_count()),
            "count");
  layer.add("graph.edges", static_cast<double>(wl.task_graph.edge_count()),
            "count");
  probe_rgt(layer, tracer, kWorkers, reps);
  layer.add_median("env.steal_share", round_steal, "ratio");
  const Samples& fs = samples["flux"];
  const double flux_solves = static_cast<double>(fs.wall.size());
  layer.add("flux.tasks_per_solve", fs.flux_tasks / flux_solves, "count",
            fs.wall.size());
  layer.add("flux.steals_per_solve", fs.flux_steals / flux_solves, "count",
            fs.wall.size());
  layer.add("flux.ns_per_task", fs.flux_wall * 1e9 / fs.flux_tasks, "ns",
            fs.wall.size());
  for (const Variant& v : variants) {
    const Samples& s = samples[v.label];
    std::vector<double> in_call;
    for (std::size_t i = 0; i < s.wall.size(); ++i) {
      in_call.push_back(s.wall[i] - s.loop[i]);
    }
    layer.add_median("solvers.loop_s." + v.label, in_quiet(s, s.loop), "s");
    in_call = in_quiet(s, in_call);
    layer.add_median("solvers.in_call_setup_s." + v.label, in_call, "s");
    layer.add("solvers.iterations." + v.label, s.iterations, "count");
  }
  probe_svc(out, tracer, cfg, spec, by_label(variants, "libcsb"));
  return out;
}

} // namespace perfbench
