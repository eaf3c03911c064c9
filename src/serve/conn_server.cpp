#include "serve/conn_server.hpp"

#include <chrono>
#include <string>
#include <utility>

#include "serve/net_util.hpp"

namespace rpt::serve {

ConnServer::ConnServer(ConnServerOptions options, std::function<void(int fd)> handler)
    : options_(options), handler_(std::move(handler)) {}

void ConnServer::Start(std::uint16_t port) {
  RPT_REQUIRE(!accept_thread_.joinable(), "ConnServer: already started");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  RPT_CHECK(fd >= 0);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  socklen_t addr_len = sizeof(addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, /*backlog=*/64) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    const int err = errno;
    net::CloseQuiet(fd);
    throw InternalError(std::string("ConnServer: bind/listen failed: ") + std::strerror(err));
  }
  listen_fd_ = fd;
  port_ = ntohs(addr.sin_port);
  accept_thread_ = std::thread(&ConnServer::AcceptLoop, this);
}

void ConnServer::Stop() {
  if (!accept_thread_.joinable()) return;
  ::shutdown(listen_fd_, SHUT_RDWR);  // unblocks accept()
  accept_thread_.join();
  net::CloseQuiet(std::exchange(listen_fd_, -1));
  std::thread last;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Every accepted connection is in live_ by now, and none of these fds
    // is closed yet: a handler closes its fd only after leaving live_.
    for (const auto& [fd, thread] : live_) ::shutdown(fd, SHUT_RDWR);
    drained_.wait(lock, [&] { return live_.empty(); });
    last = std::move(ended_);
  }
  if (last.joinable()) last.join();  // it joined every handler parked before it
}

int ConnServer::Live() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(live_.size());
}

void ConnServer::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINVAL) return;  // Stop() shut the listener down
      // Out of fds (EMFILE) or buffers in a storm: retry once some close.
      if (errno != EINTR) std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    net::SetNoDelay(fd);  // responses must not queue behind delayed ACKs
    net::SetIoTimeouts(fd, options_.io_timeout_ms);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (options_.max_connections <= 0 ||
          live_.size() < static_cast<std::size_t>(options_.max_connections)) {
        // The handler takes mu_ to leave live_, so it cannot before it is in.
        live_.emplace(fd, std::thread(&ConnServer::Serve, this, fd));
        continue;
      }
    }
    // Overload guard: at capacity, answer the busy byte and close instead
    // of spawning a thread the box has no headroom for. The client sees a
    // well-formed one-byte frame (ServerBusy) and can rotate endpoints.
    rejected_.fetch_add(1, std::memory_order_relaxed);
    net::SendFrame(fd, std::string(1, static_cast<char>(kBusyStatusByte)));  // best effort
    net::CloseQuiet(fd);
  }
}

void ConnServer::Serve(int fd) {
  handler_(fd);
  std::thread previous;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto self = live_.find(fd);
    previous = std::exchange(ended_, std::move(self->second));
    live_.erase(self);
  }
  net::CloseQuiet(fd);  // out of live_ first, so Stop() cannot shut down its reuse
  drained_.notify_all();
  if (previous.joinable()) previous.join();
}

}  // namespace rpt::serve
