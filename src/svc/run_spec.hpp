// RunSpec: one solve request, shared verbatim between the stsolve CLI and
// the stsd daemon so the two front ends cannot drift.
//
// A RunSpec captures everything needed to reproduce a solve: the matrix
// source (Matrix Market file or named synthetic suite entry + scale), the
// solver/runtime pair, iteration budget, block-size directive (explicit,
// heuristic, or simulated autotune), thread count, and an optional
// wall-clock timeout. It knows how to
//   - consume its CLI flags (consume_arg, used by `stsolve` and
//     `stsctl submit`),
//   - round-trip through the wire JSON (to_json/from_json),
//   - identify itself for the plan cache (source_key/block_directive),
//   - load + symmetrize its matrix and resolve its block size, and
//   - produce validated solver::SolverOptions / LobpcgOptions.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "solvers/cg.hpp"
#include "solvers/lobpcg.hpp"
#include "sparse/coo.hpp"
#include "svc/wire.hpp"

namespace sts::svc {

enum class SolverKind { kLanczos, kLobpcg, kCg };

[[nodiscard]] const char* to_string(SolverKind s);
[[nodiscard]] SolverKind parse_solver(const std::string& name);
/// "none" | "jacobi" | "ic0".
[[nodiscard]] solver::Precond parse_precond(const std::string& name);
/// "libcsr" | "libcsb" | "ds"/"deepsparse" | "flux"/"hpx" | "rgt"/"regent".
[[nodiscard]] solver::Version parse_version(const std::string& name);

struct RunSpec {
  std::string matrix_path;       // Matrix Market input; wins over suite
  std::string suite_name;        // synthetic suite entry
  double scale = 0.2;            // suite scale factor
  SolverKind solver = SolverKind::kLobpcg;
  solver::Version version = solver::Version::kFlux;
  int iterations = 30;           // Lanczos/LOBPCG budget; CG cap (--maxit)
  la::index_t nev = 8;           // LOBPCG block width
  double tolerance = 1e-6;       // LOBPCG/CG residual tolerance (--tol)
  solver::Precond precond = solver::Precond::kNone; // CG preconditioner
  la::index_t block = 0;         // CSB block size; 0 = heuristic
  bool autotune = false;         // pick block by simulated sweep
  unsigned threads = 0;          // 0 = hardware concurrency
  double timeout_sec = 0.0;      // 0 = no wall-clock guard
  /// Client-supplied idempotency key ("--key"). A resubmission carrying the
  /// same key returns the existing job id instead of enqueueing a second
  /// run — what makes client retry-after-reconnect safe (DESIGN.md §12).
  std::string client_key;
  /// Client-supplied trace correlation id ("--trace-id"), recorded in the
  /// job's captured Chrome trace so `stsctl trace <id>` output links back
  /// to whatever external system submitted the job (DESIGN.md §13). Empty
  /// defaults to "job-<id>" server-side.
  std::string trace_id;
  /// Dispatcher scheduling + quotas (DESIGN.md §15). The strict priority
  /// class ("interactive" beats "batch"), the weighted-fair-queuing weight
  /// inside the class, and the per-job resource quotas the dispatcher
  /// enforces at admission and pool-build time. All journaled, so a recovered job
  /// re-enters the queue with its original scheduling identity.
  std::string priority = "batch"; // "interactive" | "batch"
  unsigned weight = 1;            // DRR quantum; >= 1
  unsigned max_workers = 0;       // cap on pool workers; 0 = partition size
  std::uint64_t max_mem_bytes = 0; // cap on plan footprint; 0 = unlimited
  std::int64_t deadline_ms = 0;   // submit->terminal deadline; 0 = none

  /// Consumes one CLI flag if it belongs to the spec ("--matrix", "--suite",
  /// "--scale", "--solver", "--version", "--iterations", "--nev",
  /// "--tolerance", "--precond", "--tol" (alias of --tolerance), "--maxit"
  /// (alias of --iterations), "--block", "--autotune", "--threads",
  /// "--timeout", "--key", "--trace-id", "--priority", "--weight",
  /// "--max-workers", "--max-mem-bytes", "--deadline-ms").
  /// `next` yields the flag's value (and may exit with usage). Returns
  /// false for flags the spec does not own.
  bool consume_arg(const std::string& arg,
                   const std::function<std::string()>& next);

  /// Throws support::Error unless the spec names a source and every numeric
  /// field is usable. Called before any I/O on both front ends.
  void validate() const;

  /// Wire form (flat object, only non-default fields emitted).
  [[nodiscard]] wire::Json to_json() const;
  [[nodiscard]] static RunSpec from_json(const wire::Json& j);

  /// Plan-cache identity: what matrix bytes ("file:..." / "suite:name@s")
  /// and how the block size is chosen ("b<N>" / "heur:<ver>:t<n>" /
  /// "tune:<solver>:<ver>:nev<n>"). Computable without touching the source.
  [[nodiscard]] std::string source_key() const;
  [[nodiscard]] std::string block_directive() const;

  /// Worker threads after defaulting (hardware concurrency when 0).
  [[nodiscard]] unsigned resolved_threads() const;

  /// Reads/generates the matrix, symmetrizing file input when needed.
  [[nodiscard]] sparse::Coo load() const;

  /// The chosen block size plus (for autotune) the simulated sweep points
  /// so callers can log them.
  struct BlockChoice {
    la::index_t block = 0;
    bool heuristic = false;
    std::vector<std::pair<la::index_t, double>> sweep; // (blocks, seconds)
  };
  [[nodiscard]] BlockChoice resolve_block(const sparse::Csr& csr) const;

  /// Solver options for the resolved block size (validated defaults;
  /// cancellation/pool wiring is the caller's business).
  [[nodiscard]] solver::SolverOptions solver_options(la::index_t block) const;
  [[nodiscard]] solver::LobpcgOptions lobpcg_options(la::index_t block) const;
  /// CG knobs (preconditioner, tol, maxit); pair with solver_options().
  [[nodiscard]] solver::CgOptions cg_options() const;

  /// One-line human description ("lobpcg/hpx-flux suite:Queen_4147@0.2").
  [[nodiscard]] std::string describe() const;
};

} // namespace sts::svc
