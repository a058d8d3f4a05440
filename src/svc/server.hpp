// Unix-domain-socket front end for svc::Service.
//
// One accept thread plus one thread per live connection; every request is a
// single length-prefixed JSON frame (see wire.hpp) answered by a single
// reply frame, so a connection is a simple sequential RPC channel. Replies
// are `{"ok": true, ...}` or `{"ok": false, "error": ..., "kind": ...}`
// where kind is "bad_request" (malformed op/spec), "backpressure"
// (queue_full/draining admission rejection — retry later), or "internal".
//
// Ops: ping, submit {spec}, status {id}, result {id, timeout_ms?},
// cancel {id, reason?}, stats, shutdown.
//
// Fault site "svc:accept" fires between accept() and connection start: an
// armed throw drops that one connection (client sees EOF) while the
// listener keeps serving — containment at the protocol edge.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "svc/service.hpp"

namespace sts::svc {

class Server {
public:
  /// STS_SOCK or /tmp/stsd.sock.
  [[nodiscard]] static std::string default_socket_path();

  Server(Service& service, std::string socket_path);
  ~Server(); // stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds (unlinking a stale socket file first), listens, and starts the
  /// accept thread. Throws support::Error when the socket cannot be bound.
  void start();

  /// Stops accepting, closes the listener, unlinks the socket file and
  /// joins every connection thread. Idempotent. In-flight requests get the
  /// stop flag, so blocked `result` waits return promptly.
  void stop();

  [[nodiscard]] const std::string& socket_path() const noexcept {
    return path_;
  }

private:
  struct Conn {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  /// Runs on the accept thread with the listener it was started with;
  /// listen_fd_ itself belongs to the start()/stop() caller.
  void accept_loop(int listen_fd);
  void handle_connection(int fd);
  [[nodiscard]] wire::Json dispatch(const wire::Json& request);
  void reap_finished_locked();

  Service& service_;
  std::string path_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::thread accept_thread_;
  std::mutex conn_mutex_;
  std::vector<std::unique_ptr<Conn>> conns_;
};

} // namespace sts::svc
