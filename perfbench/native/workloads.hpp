// The benchmark's workloads. Each one runs in a single process: set-up,
// a warm-up round, then timed repetitions for the requested seconds, every
// result checked. The traced run adds the per-layer probes. Every workload
// reports every metric: the same six solver versions end to end, and the
// same layers, probed on the workload's own matrix and solve.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "la/dense.hpp"
#include "solvers/common.hpp"

namespace perfbench {

/// Worker threads of every parallel version: one vCPU of a 4-vCPU host
/// stays free for the harness and the OS.
inline constexpr unsigned kWorkers = 3;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false; // tiny inputs, same code paths and checks
  /// Scratch directory for sockets and span files (relative to the cwd).
  std::string work_dir = ".bench_build";
};

enum class Kind { kLanczos, kLobpcg };

/// A workload's solve: the matrix, its size, and the solver's shape.
struct Spec {
  const char* name;
  const char* matrix; // suite entry
  double scale;
  double smoke_scale;
  Kind kind;
  int iterations;     // fixed: tolerances are set below reach
  int smoke_iterations;
  sts::la::index_t nev;        // LOBPCG block width
  sts::la::index_t basis_cols; // dense-kernel shape for the bsp probe
  sts::la::index_t rhs_cols;

  [[nodiscard]] double size(bool smoke) const {
    return smoke ? smoke_scale : scale;
  }
  [[nodiscard]] int its(bool smoke) const {
    return smoke ? smoke_iterations : iterations;
  }
};

/// The spec of a workload; throws std::invalid_argument for unknown names.
[[nodiscard]] const Spec& find_spec(const std::string& name);

/// One timed configuration: a solver version at a worker count and the
/// per-version heuristic block size. `label` names its metrics.
struct Variant {
  std::string label;
  sts::solver::Version version;
  unsigned threads;
  sts::la::index_t block;
};

/// libcsr, libcsb, ds, flux and rgt at kWorkers, then "serial" (libcsb at
/// one thread), each with its heuristic block size for `rows` rows.
[[nodiscard]] std::vector<Variant> make_variants(sts::la::index_t rows);

[[nodiscard]] const Variant& by_label(const std::vector<Variant>& variants,
                                      const std::string& label);

/// Workload names, in presentation order.
[[nodiscard]] std::vector<std::string> workload_names();

/// lanczos-fem and lobpcg-nuclear.
[[nodiscard]] Outcome run_solver_workload(const RunConfig& config,
                                          Tracer& tracer);

/// The svc layer of a solver workload's traced run: the workload's own
/// `variant` solve sent a few times through an in-process service, every
/// job checked and counted in `out`.
void probe_svc(Outcome& out, Tracer& tracer, const RunConfig& config,
               const Spec& spec, const Variant& variant);

} // namespace perfbench
