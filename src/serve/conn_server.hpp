// ConnServer — the one loopback connection server under the serve layer's
// two TCP surfaces, the query front-end (TcpServer) and the replication
// primary (ReplPrimary): a listener, one accept thread, and one handler
// thread per live connection. The owner supplies what a connection does.
//
// It keeps only live connections. A handler's fd leaves the live set before
// it is closed, so Stop() shuts down open sockets only, never a number the
// process has since given to another socket. Each handler that ends parks
// its own thread handle and joins the one parked before it, so at most one
// ended thread is unjoined at a time: threads are bounded by the live
// connections, not by every connection ever accepted. Stop() shuts the
// listener and every live connection down, waits for the handlers to end
// and joins the last one parked; it is idempotent, and Start() may follow.
//
// Start() and Stop() belong to the owning thread; the counters are
// any-thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>

namespace rpt::serve {

/// Payload of the one-byte busy frame a saturated server answers before
/// closing (an ordinary query response payload is kResponseWireSize bytes,
/// so the frame length alone disambiguates).
inline constexpr std::uint8_t kBusyStatusByte = 0xEE;

struct ConnServerOptions {
  /// SO_RCVTIMEO/SO_SNDTIMEO of every accepted connection; 0 = blocking.
  int io_timeout_ms = 0;
  /// With this many connections live, an accepted connection is answered
  /// with the busy frame and closed instead of getting a handler thread.
  /// 0 = unlimited.
  int max_connections = 0;
};

class ConnServer {
 public:
  /// `handler(fd)` serves one connection on its own thread and returns when
  /// the connection is over; the server closes `fd` after it returns.
  ConnServer(ConnServerOptions options, std::function<void(int fd)> handler);
  ConnServer(const ConnServer&) = delete;
  ConnServer& operator=(const ConnServer&) = delete;
  ~ConnServer() { Stop(); }

  /// Binds 127.0.0.1:`port` (0 = a free port) and starts accepting. Throws
  /// InternalError if the socket layer refuses, InvalidArgument if running.
  void Start(std::uint16_t port);
  void Stop();

  /// The bound port (valid after Start()).
  [[nodiscard]] std::uint16_t Port() const noexcept { return port_; }

  /// Connections accepted over the lifetime, refused ones included.
  [[nodiscard]] std::uint64_t Accepted() const noexcept {
    return accepted_.load(std::memory_order_relaxed);
  }
  /// Connections refused with the busy frame.
  [[nodiscard]] std::uint64_t Rejected() const noexcept {
    return rejected_.load(std::memory_order_relaxed);
  }
  /// Connections whose handler has not returned yet.
  [[nodiscard]] int Live() const;

 private:
  void AcceptLoop();
  void Serve(int fd);

  const ConnServerOptions options_;
  const std::function<void(int)> handler_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  mutable std::mutex mu_;            // guards live_ and ended_
  std::condition_variable drained_;  // a handler left live_
  std::unordered_map<int, std::thread> live_;  // fd -> the thread serving it
  std::thread ended_;  // the last handler to end, not joined yet
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
};

}  // namespace rpt::serve
