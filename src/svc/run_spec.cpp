#include "svc/run_spec.hpp"

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "sim/machine.hpp"
#include "sparse/mm_io.hpp"
#include "sparse/suite.hpp"
#include "support/error.hpp"
#include "support/topology.hpp"
#include "tuning/block_select.hpp"
#include "tuning/sweep.hpp"

namespace sts::svc {

const char* to_string(SolverKind s) {
  switch (s) {
    case SolverKind::kLanczos: return "lanczos";
    case SolverKind::kLobpcg: return "lobpcg";
    case SolverKind::kCg: return "cg";
  }
  return "?";
}

SolverKind parse_solver(const std::string& name) {
  if (name == "lanczos") return SolverKind::kLanczos;
  if (name == "lobpcg") return SolverKind::kLobpcg;
  if (name == "cg") return SolverKind::kCg;
  throw support::Error("unknown solver: " + name +
                       " (expected lanczos|lobpcg|cg)");
}

solver::Precond parse_precond(const std::string& name) {
  if (name == "none") return solver::Precond::kNone;
  if (name == "jacobi") return solver::Precond::kJacobi;
  if (name == "ic0") return solver::Precond::kIc0;
  throw support::Error("unknown preconditioner: " + name +
                       " (expected none|jacobi|ic0)");
}

solver::Version parse_version(const std::string& name) {
  if (name == "libcsr") return solver::Version::kLibCsr;
  if (name == "libcsb") return solver::Version::kLibCsb;
  if (name == "ds" || name == "deepsparse") return solver::Version::kDs;
  if (name == "flux" || name == "hpx") return solver::Version::kFlux;
  if (name == "rgt" || name == "regent") return solver::Version::kRgt;
  throw support::Error("unknown version: " + name);
}

namespace {

/// Short stable spelling for keys and wire payloads (to_string() yields
/// display names like "hpx-flux" that parse_version does not accept).
const char* version_token(solver::Version v) {
  switch (v) {
    case solver::Version::kLibCsr: return "libcsr";
    case solver::Version::kLibCsb: return "libcsb";
    case solver::Version::kDs: return "ds";
    case solver::Version::kFlux: return "flux";
    case solver::Version::kRgt: return "rgt";
  }
  return "?";
}

} // namespace

bool RunSpec::consume_arg(const std::string& arg,
                          const std::function<std::string()>& next) {
  if (arg == "--matrix") {
    matrix_path = next();
  } else if (arg == "--suite") {
    suite_name = next();
  } else if (arg == "--scale") {
    scale = std::atof(next().c_str());
  } else if (arg == "--solver") {
    solver = parse_solver(next());
  } else if (arg == "--version") {
    version = parse_version(next());
  } else if (arg == "--iterations" || arg == "--maxit") {
    iterations = std::atoi(next().c_str());
  } else if (arg == "--nev") {
    nev = std::atoll(next().c_str());
  } else if (arg == "--tolerance" || arg == "--tol") {
    tolerance = std::atof(next().c_str());
  } else if (arg == "--precond") {
    precond = parse_precond(next());
  } else if (arg == "--block") {
    block = std::atoll(next().c_str());
  } else if (arg == "--autotune") {
    autotune = true;
  } else if (arg == "--threads") {
    threads = static_cast<unsigned>(std::atoi(next().c_str()));
  } else if (arg == "--timeout") {
    timeout_sec = std::atof(next().c_str());
  } else if (arg == "--key") {
    client_key = next();
  } else if (arg == "--trace-id") {
    trace_id = next();
  } else if (arg == "--priority") {
    priority = next();
  } else if (arg == "--weight") {
    weight = static_cast<unsigned>(std::atoi(next().c_str()));
  } else if (arg == "--max-workers") {
    max_workers = static_cast<unsigned>(std::atoi(next().c_str()));
  } else if (arg == "--max-mem-bytes") {
    max_mem_bytes = static_cast<std::uint64_t>(std::atoll(next().c_str()));
  } else if (arg == "--deadline-ms") {
    deadline_ms = std::atoll(next().c_str());
  } else {
    return false;
  }
  return true;
}

void RunSpec::validate() const {
  if (matrix_path.empty() && suite_name.empty()) {
    throw support::Error("run spec: no matrix source (--matrix or --suite)");
  }
  if (!(scale > 0.0)) {
    throw support::Error("run spec: scale must be positive");
  }
  if (iterations < 1) {
    throw support::Error("run spec: iterations must be >= 1, got " +
                         std::to_string(iterations));
  }
  if (nev < 1) {
    throw support::Error("run spec: nev must be >= 1");
  }
  if (!(tolerance > 0.0)) {
    throw support::Error("run spec: tolerance must be positive");
  }
  if (block < 0) {
    throw support::Error("run spec: block must be >= 0");
  }
  if (precond != solver::Precond::kNone && solver != SolverKind::kCg) {
    throw support::Error(
        std::string("run spec: --precond=") + solver::to_string(precond) +
        " requires --solver=cg");
  }
  if (solver == SolverKind::kCg && (version == solver::Version::kDs ||
                                    version == solver::Version::kRgt)) {
    throw support::Error(std::string("run spec: cg does not support version ") +
                         solver::to_string(version) +
                         " (expected libcsr|libcsb|flux)");
  }
  if (block != 0 && autotune) {
    throw support::Error("run spec: --block and --autotune are exclusive");
  }
  if (timeout_sec < 0.0) {
    throw support::Error("run spec: timeout must be >= 0");
  }
  if (priority != "interactive" && priority != "batch") {
    throw support::Error("run spec: priority must be interactive|batch, got " +
                         priority);
  }
  if (weight < 1 || weight > 1024) {
    throw support::Error("run spec: weight must be in [1, 1024], got " +
                         std::to_string(weight));
  }
  if (deadline_ms < 0) {
    throw support::Error("run spec: deadline-ms must be >= 0");
  }
}

wire::Json RunSpec::to_json() const {
  wire::Json j = wire::Json::object();
  if (!matrix_path.empty()) j.set("matrix", matrix_path);
  if (!suite_name.empty()) j.set("suite", suite_name);
  j.set("scale", scale);
  j.set("solver", to_string(solver));
  j.set("version", version_token(version));
  j.set("iterations", iterations);
  j.set("nev", static_cast<std::int64_t>(nev));
  j.set("tolerance", tolerance);
  if (precond != solver::Precond::kNone) {
    j.set("precond", solver::to_string(precond));
  }
  if (block != 0) j.set("block", static_cast<std::int64_t>(block));
  if (autotune) j.set("autotune", true);
  if (threads != 0) j.set("threads", static_cast<std::int64_t>(threads));
  if (timeout_sec > 0.0) j.set("timeout_sec", timeout_sec);
  if (!client_key.empty()) j.set("key", client_key);
  if (!trace_id.empty()) j.set("trace_id", trace_id);
  if (priority != "batch") j.set("priority", priority);
  if (weight != 1) j.set("weight", static_cast<std::int64_t>(weight));
  if (max_workers != 0) {
    j.set("max_workers", static_cast<std::int64_t>(max_workers));
  }
  if (max_mem_bytes != 0) j.set("max_mem_bytes", max_mem_bytes);
  if (deadline_ms != 0) j.set("deadline_ms", deadline_ms);
  return j;
}

RunSpec RunSpec::from_json(const wire::Json& j) {
  RunSpec s;
  s.matrix_path = j.string_or("matrix", "");
  s.suite_name = j.string_or("suite", "");
  s.scale = j.number_or("scale", s.scale);
  s.solver = parse_solver(j.string_or("solver", "lobpcg"));
  s.version = parse_version(j.string_or("version", "flux"));
  s.iterations = static_cast<int>(j.int_or("iterations", s.iterations));
  s.nev = j.int_or("nev", s.nev);
  s.tolerance = j.number_or("tolerance", s.tolerance);
  s.precond = parse_precond(j.string_or("precond", "none"));
  s.block = j.int_or("block", 0);
  s.autotune = j.bool_or("autotune", false);
  s.threads = static_cast<unsigned>(j.int_or("threads", 0));
  s.timeout_sec = j.number_or("timeout_sec", 0.0);
  s.client_key = j.string_or("key", "");
  s.trace_id = j.string_or("trace_id", "");
  s.priority = j.string_or("priority", "batch");
  s.weight = static_cast<unsigned>(j.int_or("weight", 1));
  s.max_workers = static_cast<unsigned>(j.int_or("max_workers", 0));
  s.max_mem_bytes = static_cast<std::uint64_t>(j.int_or("max_mem_bytes", 0));
  s.deadline_ms = j.int_or("deadline_ms", 0);
  return s;
}

std::string RunSpec::source_key() const {
  if (!matrix_path.empty()) return "file:" + matrix_path;
  char buf[32];
  std::snprintf(buf, sizeof buf, "@%g", scale);
  return "suite:" + suite_name + buf;
}

std::string RunSpec::block_directive() const {
  if (block != 0) return "b" + std::to_string(block);
  if (autotune) {
    return std::string("tune:") + to_string(solver) + ":" +
           version_token(version) + ":nev" + std::to_string(nev);
  }
  return std::string("heur:") + version_token(version) + ":t" +
         std::to_string(resolved_threads());
}

unsigned RunSpec::resolved_threads() const {
  if (threads != 0) return threads;
  return std::max(1u, std::thread::hardware_concurrency());
}

sparse::Coo RunSpec::load() const {
  if (!matrix_path.empty()) {
    sparse::Coo coo = sparse::read_matrix_market_file(matrix_path);
    if (!coo.is_symmetric(1e-12)) coo.symmetrize_lower();
    return coo;
  }
  return sparse::suite_entry(suite_name).make(scale);
}

RunSpec::BlockChoice RunSpec::resolve_block(const sparse::Csr& csr) const {
  BlockChoice choice;
  if (block != 0) {
    choice.block = block;
    return choice;
  }
  if (autotune) {
    // CG sweeps with the Lanczos cost model: both are single-vector
    // iterations dominated by one SpMV, which is what the simulator prices.
    const auto sweep = tune::sweep_block_sizes_simulated(
        csr,
        solver == SolverKind::kLobpcg ? tune::SweepSolver::kLobpcg
                                      : tune::SweepSolver::kLanczos,
        version, sim::MachineModel::host(), /*full_sweep=*/false, nev);
    choice.block = sweep.best_block_size();
    for (const auto& p : sweep.points) {
      choice.sweep.emplace_back(p.block_count, p.simulated_seconds);
    }
    return choice;
  }
  choice.block =
      tune::recommended_block_size(version, resolved_threads(), csr.rows());
  choice.heuristic = true;
  return choice;
}

solver::SolverOptions RunSpec::solver_options(la::index_t blk) const {
  solver::SolverOptions o;
  o.block_size = blk;
  o.threads = resolved_threads();
  // Detected NUMA domains (1 under STS_NUMA=off). The service overrides
  // this with the shared pool's domain count for kFlux jobs; private-pool
  // runs derive the same answer from the same topology.
  o.numa_domains = support::topo::effective_domains(o.threads);
  return o;
}

solver::LobpcgOptions RunSpec::lobpcg_options(la::index_t blk) const {
  solver::LobpcgOptions o;
  static_cast<solver::SolverOptions&>(o) = solver_options(blk);
  o.nev = nev;
  o.tolerance = tolerance;
  return o;
}

solver::CgOptions RunSpec::cg_options() const {
  solver::CgOptions o;
  o.precond = precond;
  o.tol = tolerance;
  o.max_iterations = iterations;
  return o;
}

std::string RunSpec::describe() const {
  return std::string(to_string(solver)) + "/" + solver::to_string(version) +
         " " + source_key();
}

} // namespace sts::svc
