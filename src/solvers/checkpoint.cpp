#include "solvers/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "obs/obs.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/timer.hpp"

namespace sts::solver::ckpt {

namespace {

constexpr std::array<char, 8> kMagic = {'S', 'T', 'S', 'C', 'K', 'P', 'T', 0};
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8 + 4 + 4;

// ---- payload serialization ----------------------------------------------

class Writer {
public:
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void doubles(const std::vector<double>& v) {
    u64(v.size());
    if (!v.empty()) raw(v.data(), v.size() * sizeof(double));
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

private:
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<std::uint8_t> buf_;
};

class Reader {
public:
  Reader(const std::uint8_t* data, std::size_t size, const std::string& path)
      : data_(data), size_(size), path_(path) {}

  std::uint32_t u32() { return fixed<std::uint32_t>(); }
  std::uint64_t u64() { return fixed<std::uint64_t>(); }
  std::int64_t i64() { return fixed<std::int64_t>(); }
  double f64() { return fixed<double>(); }
  std::vector<double> doubles() {
    const std::uint64_t n = u64();
    if (n > (size_ - pos_) / sizeof(double)) {
      throw support::Error("checkpoint " + path_ +
                           ": truncated array (wants " + std::to_string(n) +
                           " doubles)");
    }
    std::vector<double> v(static_cast<std::size_t>(n));
    if (n != 0) {
      std::memcpy(v.data(), data_ + pos_,
                  static_cast<std::size_t>(n) * sizeof(double));
      pos_ += static_cast<std::size_t>(n) * sizeof(double);
    }
    return v;
  }
  void expect_exhausted() const {
    if (pos_ != size_) {
      throw support::Error("checkpoint " + path_ + ": " +
                           std::to_string(size_ - pos_) +
                           " trailing payload bytes");
    }
  }

private:
  template <typename T>
  T fixed() {
    if (size_ - pos_ < sizeof(T)) {
      throw support::Error("checkpoint " + path_ + ": truncated payload");
    }
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::string path_;
};

std::vector<std::uint8_t> serialize(const Checkpoint& c) {
  Writer w;
  if (c.kind == Kind::kLanczos) {
    const LanczosState& st = c.lanczos;
    w.u64(st.seed);
    w.i64(st.m);
    w.i64(st.cols);
    w.i64(st.iterations);
    w.doubles(st.alphas);
    w.doubles(st.betas);
    w.doubles(st.basis);
    w.doubles(st.q);
  } else if (c.kind == Kind::kCg) {
    const CgState& st = c.cg;
    w.u64(st.seed);
    w.i64(st.m);
    w.i64(st.iterations);
    w.f64(st.rho);
    w.doubles(st.x);
    w.doubles(st.r);
    w.doubles(st.p);
  } else {
    const LobpcgState& st = c.lobpcg;
    w.u64(st.seed);
    w.i64(st.m);
    w.i64(st.n);
    w.i64(st.iterations);
    w.i64(st.converged);
    w.doubles(st.theta);
    w.doubles(st.norms);
    w.doubles(st.x);
    w.doubles(st.ax);
    w.doubles(st.p);
    w.doubles(st.ap);
  }
  return w.take();
}

void check_size(const std::string& path, const char* field,
                std::size_t actual, std::int64_t expected) {
  if (expected < 0 ||
      actual != static_cast<std::size_t>(expected)) {
    throw support::Error("checkpoint " + path + ": " + field + " holds " +
                         std::to_string(actual) + " values, header implies " +
                         std::to_string(expected));
  }
}

Checkpoint deserialize(Kind kind, const std::uint8_t* payload,
                       std::size_t size, const std::string& path) {
  Checkpoint c;
  c.kind = kind;
  Reader r(payload, size, path);
  if (kind == Kind::kLanczos) {
    LanczosState& st = c.lanczos;
    st.seed = r.u64();
    st.m = r.i64();
    st.cols = r.i64();
    st.iterations = r.i64();
    st.alphas = r.doubles();
    st.betas = r.doubles();
    st.basis = r.doubles();
    st.q = r.doubles();
    r.expect_exhausted();
    if (st.m < 1 || st.cols < 2 || st.iterations < 0 ||
        st.iterations >= st.cols) {
      throw support::Error("checkpoint " + path +
                           ": inconsistent Lanczos dimensions");
    }
    check_size(path, "basis", st.basis.size(), st.m * st.cols);
    check_size(path, "q", st.q.size(), st.m);
    if (st.alphas.size() != st.betas.size() ||
        st.alphas.size() != static_cast<std::size_t>(st.iterations)) {
      throw support::Error("checkpoint " + path +
                           ": coefficient count disagrees with iteration "
                           "counter");
    }
  } else if (kind == Kind::kCg) {
    CgState& st = c.cg;
    st.seed = r.u64();
    st.m = r.i64();
    st.iterations = r.i64();
    st.rho = r.f64();
    st.x = r.doubles();
    st.r = r.doubles();
    st.p = r.doubles();
    r.expect_exhausted();
    if (st.m < 1 || st.iterations < 0) {
      throw support::Error("checkpoint " + path +
                           ": inconsistent CG dimensions");
    }
    check_size(path, "x", st.x.size(), st.m);
    check_size(path, "r", st.r.size(), st.m);
    check_size(path, "p", st.p.size(), st.m);
  } else {
    LobpcgState& st = c.lobpcg;
    st.seed = r.u64();
    st.m = r.i64();
    st.n = r.i64();
    st.iterations = r.i64();
    st.converged = r.i64();
    st.theta = r.doubles();
    st.norms = r.doubles();
    st.x = r.doubles();
    st.ax = r.doubles();
    st.p = r.doubles();
    st.ap = r.doubles();
    r.expect_exhausted();
    if (st.m < 1 || st.n < 1 || st.iterations < 0 || st.converged < 0 ||
        st.converged > st.n) {
      throw support::Error("checkpoint " + path +
                           ": inconsistent LOBPCG dimensions");
    }
    check_size(path, "theta", st.theta.size(), st.n);
    check_size(path, "norms", st.norms.size(), st.n);
    check_size(path, "X", st.x.size(), st.m * st.n);
    check_size(path, "AX", st.ax.size(), st.m * st.n);
    check_size(path, "P", st.p.size(), st.m * st.n);
    check_size(path, "AP", st.ap.size(), st.m * st.n);
  }
  return c;
}

// ---- I/O helpers ---------------------------------------------------------

void write_all(int fd, const void* data, std::size_t len,
               const std::string& path) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (len > 0) {
    const ssize_t n = ::write(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw support::Error("checkpoint " + path + ": write: " +
                           std::strerror(errno));
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
}

/// Best-effort fsync of the directory holding `path` so the rename that
/// published a checkpoint survives power loss too.
void sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

} // namespace

const char* to_string(Kind k) {
  switch (k) {
    case Kind::kLanczos: return "lanczos";
    case Kind::kLobpcg: return "lobpcg";
    case Kind::kCg: return "cg";
  }
  return "?";
}

std::uint32_t crc32(const void* data, std::size_t len) noexcept {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int b = 0; b < 8; ++b) {
        c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

void save(const Checkpoint& c, const std::string& path) {
  support::fault::check("ckpt:write");
  const support::Timer timer;

  const std::vector<std::uint8_t> payload = serialize(c);
  std::vector<std::uint8_t> bytes;
  bytes.reserve(kHeaderBytes + payload.size());
  auto put = [&bytes](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    bytes.insert(bytes.end(), b, b + n);
  };
  put(kMagic.data(), kMagic.size());
  const std::uint32_t version = kFormatVersion;
  put(&version, sizeof version);
  const std::uint32_t kind = static_cast<std::uint32_t>(c.kind);
  put(&kind, sizeof kind);
  const std::uint64_t payload_len = payload.size();
  put(&payload_len, sizeof payload_len);
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  put(&crc, sizeof crc);
  const std::uint32_t reserved = 0;
  put(&reserved, sizeof reserved);
  put(payload.data(), payload.size());

  // Same-directory temp name so the rename is atomic within one filesystem;
  // the pid suffix keeps concurrent writers (two daemons misconfigured onto
  // one checkpoint dir) from clobbering each other's partial files.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw support::Error("checkpoint " + tmp + ": open: " +
                         std::strerror(errno));
  }
  try {
    write_all(fd, bytes.data(), bytes.size(), tmp);
    if (::fsync(fd) != 0) {
      throw support::Error("checkpoint " + tmp + ": fsync: " +
                           std::strerror(errno));
    }
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw support::Error("checkpoint " + path + ": rename: " +
                         std::strerror(err));
  }
  sync_parent_dir(path);

  obs::counter("solver.ckpt_writes").add();
  obs::histogram("solver.ckpt_write_ns")
      .observe(static_cast<std::int64_t>(timer.seconds() * 1e9));
}

Checkpoint load(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw support::Error("checkpoint " + path + ": open: " +
                         std::strerror(errno));
  }
  std::vector<std::uint8_t> bytes;
  std::array<std::uint8_t, 1 << 16> buf;
  for (;;) {
    const ssize_t n = ::read(fd, buf.data(), buf.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      throw support::Error("checkpoint " + path + ": read: " +
                           std::strerror(err));
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), buf.data(), buf.data() + n);
  }
  ::close(fd);

  if (bytes.size() < kHeaderBytes) {
    throw support::Error("checkpoint " + path + ": short file (" +
                         std::to_string(bytes.size()) + " bytes)");
  }
  std::size_t pos = 0;
  auto take = [&bytes, &pos](void* p, std::size_t n) {
    std::memcpy(p, bytes.data() + pos, n);
    pos += n;
  };
  std::array<char, 8> magic;
  take(magic.data(), magic.size());
  if (magic != kMagic) {
    throw support::Error("checkpoint " + path + ": bad magic");
  }
  std::uint32_t version = 0;
  take(&version, sizeof version);
  if (version != kFormatVersion) {
    throw support::Error("checkpoint " + path + ": format version " +
                         std::to_string(version) + ", this build reads " +
                         std::to_string(kFormatVersion));
  }
  std::uint32_t kind_raw = 0;
  take(&kind_raw, sizeof kind_raw);
  if (kind_raw != static_cast<std::uint32_t>(Kind::kLanczos) &&
      kind_raw != static_cast<std::uint32_t>(Kind::kLobpcg) &&
      kind_raw != static_cast<std::uint32_t>(Kind::kCg)) {
    throw support::Error("checkpoint " + path + ": unknown solver kind " +
                         std::to_string(kind_raw));
  }
  std::uint64_t payload_len = 0;
  take(&payload_len, sizeof payload_len);
  std::uint32_t crc = 0;
  take(&crc, sizeof crc);
  std::uint32_t reserved = 0;
  take(&reserved, sizeof reserved);
  if (payload_len != bytes.size() - kHeaderBytes) {
    throw support::Error("checkpoint " + path + ": payload length " +
                         std::to_string(payload_len) + " disagrees with file "
                         "size");
  }
  const std::uint8_t* payload = bytes.data() + kHeaderBytes;
  const std::uint32_t actual =
      crc32(payload, static_cast<std::size_t>(payload_len));
  if (actual != crc) {
    throw support::Error("checkpoint " + path + ": CRC mismatch (stored " +
                         std::to_string(crc) + ", computed " +
                         std::to_string(actual) + ")");
  }
  return deserialize(static_cast<Kind>(kind_raw), payload,
                     static_cast<std::size_t>(payload_len), path);
}

void save_contained(const Checkpoint& c, const std::string& path) {
  try {
    save(c, path);
  } catch (const std::exception& e) {
    obs::counter("solver.ckpt_errors").add();
    obs::instant(std::string("ckpt: ") + e.what(), "solver");
  }
}

int effective_every(int requested) {
  if (requested > 0) return requested;
  const std::int64_t env = support::env_int("STS_CKPT_EVERY", 10);
  return env > 0 ? static_cast<int>(env) : 10;
}

} // namespace sts::solver::ckpt
