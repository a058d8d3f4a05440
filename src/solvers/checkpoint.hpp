// Versioned, CRC-guarded binary checkpoints of solver iteration state.
//
// A checkpoint captures everything a Lanczos, LOBPCG or CG solve needs to
// resume bit-identically from an iteration boundary: the basis/block
// vectors, the scalar recursion coefficients, the completed-iteration
// counter and the RNG seed the initial guess was drawn from. Everything a
// single iteration recomputes from that state (z/proj/beta for Lanczos;
// W/AW/R and the Gram blocks for LOBPCG; z/q and the preconditioner for
// CG) is deliberately not stored.
//
// On-disk format (fixed-width little-endian-as-host integers; checkpoints
// are a crash-recovery mechanism for one machine, not an archival format):
//
//   8 bytes   magic "STSCKPT\0"
//   u32       format version (kFormatVersion)
//   u32       solver kind (Kind)
//   u64       payload length in bytes
//   u32       CRC-32 of the payload
//   u32       reserved (zero)
//   payload   length-prefixed field arrays, see checkpoint.cpp
//
// save() is atomic: the bytes go to a temp file in the same directory,
// fsync, then rename over `path` — a crash mid-write leaves the previous
// checkpoint intact, never a torn one. load() validates magic, version,
// kind, CRC and per-field shapes and throws support::Error on any
// mismatch, so a corrupt file can never yield a half-restored solve.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sts::solver::ckpt {

inline constexpr std::uint32_t kFormatVersion = 1;

enum class Kind : std::uint32_t { kLanczos = 1, kLobpcg = 2, kCg = 3 };

[[nodiscard]] const char* to_string(Kind k);

struct LanczosState {
  std::uint64_t seed = 0;      // options.seed the run started from
  std::int64_t m = 0;          // matrix rows
  std::int64_t cols = 0;       // Krylov basis width (k + 1)
  std::int64_t iterations = 0; // accepted iterations completed
  std::vector<double> alphas;
  std::vector<double> betas;
  std::vector<double> basis; // Q, row-major m x cols (unused columns zero)
  std::vector<double> q;     // current Lanczos vector, m x 1
};

struct LobpcgState {
  std::uint64_t seed = 0;
  std::int64_t m = 0;
  std::int64_t n = 0;          // block width (nev)
  std::int64_t iterations = 0; // iterations completed
  std::int64_t converged = 0;  // eigenpairs below tolerance at checkpoint
  std::vector<double> theta;   // Ritz values at the checkpointed iteration
  std::vector<double> norms;   // residual norms, n entries
  std::vector<double> x, ax, p, ap; // row-major m x n iterate blocks
};

struct CgState {
  std::uint64_t seed = 0;      // options.seed: b is regenerated from it
  std::int64_t m = 0;          // system size
  std::int64_t iterations = 0; // accepted iterations completed
  double rho = 0.0;            // r . z at the checkpointed boundary
  std::vector<double> x, r, p; // iterate, residual, search direction
};

/// One serializable solver state; `kind` selects which member is live.
struct Checkpoint {
  Kind kind = Kind::kLanczos;
  LanczosState lanczos;
  LobpcgState lobpcg;
  CgState cg;
};

/// CRC-32 (IEEE, reflected polynomial 0xEDB88320) of `len` bytes.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t len) noexcept;

/// Atomically writes `c` to `path` (temp file + fsync + rename). The fault
/// site "ckpt:write" fires before any I/O. Throws support::Error on I/O
/// failure; success is counted in solver.ckpt_writes / solver.ckpt_write_ns.
void save(const Checkpoint& c, const std::string& path);

/// Reads and fully validates a checkpoint. Throws support::Error when the
/// file is missing, truncated, CRC-corrupt, from a different format
/// version, or internally inconsistent.
[[nodiscard]] Checkpoint load(const std::string& path);

/// The checkpoint period in effect for a solve: `requested` when positive,
/// else the STS_CKPT_EVERY environment variable, else 10.
[[nodiscard]] int effective_every(int requested);

/// save() with the failure contained: the atomic rename left any previous
/// checkpoint intact, so a write error is counted (solver.ckpt_errors) and
/// logged, and the solve carries on.
void save_contained(const Checkpoint& c, const std::string& path);

/// The iteration-boundary checkpoint step of every solver: when `path` is
/// set and `completed` is a multiple of `every`, builds the checkpoint with
/// `pack()` and saves it through save_contained(). `pack` is not called when
/// no checkpoint is due.
template <typename Pack>
void save_if_due(const std::string& path, int completed, int every,
                 Pack&& pack) {
  if (path.empty() || completed % every != 0) return;
  save_contained(pack(), path);
}

} // namespace sts::solver::ckpt
