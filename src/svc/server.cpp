#include "svc/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <sstream>

#include "obs/expo.hpp"
#include "obs/obs.hpp"
#include "support/env.hpp"
#include "support/fault.hpp"

namespace sts::svc {

namespace {

wire::Json error_reply(const std::string& kind, const std::string& message) {
  wire::Json j = wire::Json::object();
  j.set("ok", false);
  j.set("kind", kind);
  j.set("error", message);
  return j;
}

wire::Json ok_reply() {
  wire::Json j = wire::Json::object();
  j.set("ok", true);
  return j;
}

} // namespace

std::string Server::default_socket_path() {
  return support::env_string("STS_SOCK", "/tmp/stsd.sock");
}

Server::Server(Service& service, std::string socket_path)
    : service_(service), path_(std::move(socket_path)) {}

Server::~Server() { stop(); }

void Server::start() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path_.size() >= sizeof(addr.sun_path)) {
    throw support::Error("socket path too long: " + path_);
  }
  std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw support::Error(std::string("socket: ") + std::strerror(errno));
  }
  ::unlink(path_.c_str()); // stale file from a crashed daemon
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw support::Error("bind " + path_ + ": " + std::strerror(err));
  }
  if (::listen(listen_fd_, 64) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(path_.c_str());
    throw support::Error("listen " + path_ + ": " + std::strerror(err));
  }
  stop_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this, fd = listen_fd_] { accept_loop(fd); });
}

void Server::stop() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  // shutdown() wakes the blocked accept(); close alone is not reliable for
  // that on all platforms. The fd is closed only after the accept thread
  // has exited, so its number cannot be reused while accept() may still
  // run on it.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::unique_ptr<Conn>> conns;
  {
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  ::unlink(path_.c_str());
}

void Server::reap_finished_locked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::accept_loop(int listen_fd) {
  while (!stop_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (stop_.load(std::memory_order_acquire)) return;
      continue; // transient accept failure; keep listening
    }
    if (stop_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    try {
      support::fault::check("svc:accept");
    } catch (const std::exception& e) {
      // Containment: this connection is dropped, the listener lives on.
      obs::instant(std::string("svc:accept fault: ") + e.what(), "svc");
      obs::counter("svc.accept_faults").add();
      ::close(fd);
      continue;
    }
    obs::counter("svc.connections").add();
    auto conn = std::make_unique<Conn>();
    Conn* raw = conn.get();
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    reap_finished_locked();
    conn->thread = std::thread([this, fd, raw] {
      handle_connection(fd);
      raw->done.store(true, std::memory_order_release);
    });
    conns_.push_back(std::move(conn));
  }
}

void Server::handle_connection(int fd) {
  std::string payload;
  while (wire::read_frame(fd, payload, &stop_)) {
    wire::Json reply;
    try {
      reply = dispatch(wire::Json::parse(payload));
    } catch (const wire::WireError& e) {
      reply = error_reply("bad_request", e.what());
    } catch (const support::Error& e) {
      reply = error_reply("bad_request", e.what());
    } catch (const std::exception& e) {
      reply = error_reply("internal", e.what());
    }
    try {
      wire::write_frame(fd, reply.dump());
    } catch (const std::exception&) {
      break; // peer went away mid-reply
    }
  }
  ::close(fd);
}

wire::Json Server::dispatch(const wire::Json& request) {
  const std::string op = request.string_or("op", "");
  if (op == "ping") {
    wire::Json reply = ok_reply();
    reply.set("op", "pong");
    return reply;
  }
  if (op == "submit") {
    const RunSpec spec = RunSpec::from_json(request.get("spec"));
    const SubmitOutcome outcome = service_.submit(spec);
    if (!outcome.accepted) {
      wire::Json reply = error_reply("backpressure", outcome.error);
      if (outcome.error == "queue_full") {
        // Depth + cap ride along so a rejected client can back off
        // proportionally instead of guessing (DESIGN.md §15).
        reply.set("queue_depth",
                  static_cast<std::uint64_t>(outcome.queue_depth));
        reply.set("queue_capacity",
                  static_cast<std::uint64_t>(outcome.queue_capacity));
      }
      return reply;
    }
    wire::Json reply = ok_reply();
    reply.set("id", outcome.id);
    return reply;
  }
  if (op == "status") {
    const auto id = static_cast<std::uint64_t>(request.get("id").as_int());
    wire::Json reply = ok_reply();
    reply.set("job", to_json(service_.status(id)));
    return reply;
  }
  if (op == "result") {
    const auto id = static_cast<std::uint64_t>(request.get("id").as_int());
    const std::int64_t timeout_ms =
        request.int_or("timeout_ms", 24LL * 3600 * 1000);
    const JobInfo info =
        service_.wait(id, std::chrono::milliseconds(timeout_ms), &stop_);
    wire::Json reply = ok_reply();
    reply.set("job", to_json(info));
    reply.set("terminal", info.terminal());
    return reply;
  }
  if (op == "cancel") {
    const auto id = static_cast<std::uint64_t>(request.get("id").as_int());
    const bool cancelled =
        service_.cancel(id, request.string_or("reason", "cancelled"));
    wire::Json reply = ok_reply();
    reply.set("cancelled", cancelled);
    return reply;
  }
  if (op == "stats") {
    wire::Json reply = ok_reply();
    reply.set("stats", to_json(service_.stats()));
    return reply;
  }
  if (op == "queue") {
    // Dispatcher snapshot for `stsctl queue`: slot partition table plus
    // every RUNNING and PENDING job with its scheduling identity.
    wire::Json reply = ok_reply();
    reply.set("queue", service_.queue_snapshot());
    return reply;
  }
  if (op == "metrics") {
    // Live exposition of the daemon's whole registry, rendered from one
    // coherent snapshot; `stsctl metrics [--prom|--csv]` and the optional
    // HTTP listener are both thin shells over this.
    const std::string format = request.string_or("format", "prom");
    std::ostringstream body;
    if (format == "prom") {
      obs::write_prometheus(body);
    } else if (format == "csv") {
      obs::write_metrics_csv(body);
    } else {
      return error_reply("bad_request", "unknown metrics format: " + format);
    }
    wire::Json reply = ok_reply();
    reply.set("format", format);
    reply.set("body", body.str());
    return reply;
  }
  if (op == "trace") {
    const auto id = static_cast<std::uint64_t>(request.get("id").as_int());
    (void)service_.status(id); // throws "unknown job id" -> bad_request
    std::ostringstream trace;
    if (!obs::write_job_trace_json(id, trace)) {
      return error_reply("bad_request",
                         "no trace buffered for job " + std::to_string(id) +
                             " (evicted or capture disabled)");
    }
    wire::Json reply = ok_reply();
    reply.set("id", id);
    reply.set("trace", trace.str());
    return reply;
  }
  if (op == "shutdown") {
    service_.request_shutdown();
    return ok_reply();
  }
  return error_reply("bad_request", "unknown op: " + op);
}

} // namespace sts::svc
