// Shared blocking-socket plumbing for the serve layer's two wire surfaces:
// the query front-end (tcp_server.cpp) and the replication link
// (repl_link.cpp). Both speak the same outer framing — a 4-byte
// little-endian length prefix followed by that many payload bytes — over
// loopback TCP with SO_RCVTIMEO/SO_SNDTIMEO bounding every operation. The
// server side of both runs on one ConnServer (conn_server.hpp), which owns
// the listener and joins each connection's handler once it ends; these
// helpers are what the handlers and the clients read and write with.
//
// This is an implementation header (included from .cpp files only): it
// pulls in <sys/socket.h> and friends, which the public headers keep out
// of the include graph.
#pragma once

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>

#include "support/common.hpp"
#include "support/wire.hpp"

namespace rpt::serve::net {

enum class IoStatus { kOk, kClosed, kTimeout };

// Full-buffer read/write with EINTR retry. With SO_RCVTIMEO/SO_SNDTIMEO set,
// an expired wait surfaces as EAGAIN/EWOULDBLOCK — reported as kTimeout so
// callers can count it or throw TimeoutError; EOF and hard errors are
// kClosed ("connection over" either way). ReadFull gives up after
// `max_stall_ticks` consecutive expired waits (every byte that arrives
// restarts the count), so a short SO_RCVTIMEO can serve as a poll interval
// without bailing out mid-frame, and a peer frozen mid-frame still ends.
inline IoStatus ReadFull(int fd, std::uint8_t* buf, std::size_t len,
                         int max_stall_ticks = 1) {
  std::size_t done = 0;
  int stalls = 0;
  while (done < len) {
    const ssize_t n = ::read(fd, buf + done, len - done);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      stalls = 0;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (++stalls >= max_stall_ticks) return IoStatus::kTimeout;
    } else {
      return IoStatus::kClosed;
    }
  }
  return IoStatus::kOk;
}

inline IoStatus WriteFull(int fd, const std::uint8_t* buf, std::size_t len) {
  std::size_t done = 0;
  while (done < len) {
    // MSG_NOSIGNAL: a peer that disconnected mid-exchange must surface as
    // EPIPE (-> kClosed), not deliver a process-killing SIGPIPE.
    const ssize_t n = ::send(fd, buf + done, len - done, MSG_NOSIGNAL);
    if (n > 0) {
      done += static_cast<std::size_t>(n);
    } else if (n == 0) {
      // send() made no progress and set no errno; classifying by leftover
      // errno could spin forever (stale EINTR) or misreport a timeout.
      return IoStatus::kClosed;
    } else if (errno == EINTR) {
      continue;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return IoStatus::kTimeout;
    } else {
      return IoStatus::kClosed;
    }
  }
  return IoStatus::kOk;
}

inline void CloseQuiet(int fd) {
  if (fd >= 0) ::close(fd);
}

inline void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

inline void SetIoTimeouts(int fd, int timeout_ms) {
  if (timeout_ms <= 0) return;
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// Bounded loopback connect: non-blocking connect + poll for writability,
/// then back to blocking with per-op timeouts. Returns the connected fd.
/// `on_fail(what, is_timeout)` is called (and must throw) on any failure —
/// the caller picks its exception types; the socket is closed first.
template <typename FailFn>
int ConnectLoopback(std::uint16_t port, int connect_timeout_ms,
                    int io_timeout_ms, FailFn&& on_fail) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  RPT_CHECK(fd >= 0);
  SetNoDelay(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);

  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const auto fail = [&](const std::string& what, bool timeout) {
    CloseQuiet(fd);
    on_fail(what, timeout);  // must throw
    RPT_CHECK(false);
  };
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      fail(std::string("connect failed: ") + std::strerror(errno), false);
    }
    pollfd pfd{fd, POLLOUT, 0};
    const int timeout = connect_timeout_ms > 0 ? connect_timeout_ms : -1;
    const int ready = ::poll(&pfd, 1, timeout);
    if (ready == 0) fail("connect timed out", true);
    if (ready < 0) {
      fail(std::string("connect poll failed: ") + std::strerror(errno), false);
    }
    int err = 0;
    socklen_t err_len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len);
    if (err != 0) fail(std::string("connect failed: ") + std::strerror(err), false);
  }
  ::fcntl(fd, F_SETFL, flags);
  SetIoTimeouts(fd, io_timeout_ms);
  return fd;
}

/// Sends one length-prefixed frame. kOk only when prefix and payload both
/// land fully. Prefix and payload go out in a single write: two small
/// writes per frame would hand Nagle + delayed-ACK a ~40 ms stall on every
/// synchronous request/ack round trip.
inline IoStatus SendFrame(int fd, const std::string& payload) {
  std::string frame;
  frame.reserve(4 + payload.size());
  wire::PutU32(frame, static_cast<std::uint32_t>(payload.size()));
  frame.append(payload);
  return WriteFull(fd, reinterpret_cast<const std::uint8_t*>(frame.data()),
                   frame.size());
}

/// Receives one length-prefixed frame into `payload`. kClosed on EOF or a
/// frame longer than `max_bytes` (desync — nothing sane to read after it).
///
/// Timeout contract: kTimeout is only ever returned with ZERO bytes
/// consumed (an idle tick between frames — the caller may loop and call
/// again). Once the first prefix byte has arrived, the rest of the frame
/// is read patiently: a short SO_RCVTIMEO used as a poll interval (the
/// replication link's silence tick) can never split a frame and desync
/// the stream. A peer that stalls mid-frame for `max_stall_ticks`
/// consecutive timeouts is reported kClosed.
inline IoStatus RecvFrame(int fd, std::string& payload, std::uint32_t max_bytes,
                          int max_stall_ticks = 64) {
  std::uint8_t prefix[4];
  const IoStatus first = ReadFull(fd, prefix, 1);
  if (first != IoStatus::kOk) return first;  // clean boundary: frame not begun
  const IoStatus rest = ReadFull(fd, prefix + 1, 3, max_stall_ticks);
  if (rest != IoStatus::kOk) return IoStatus::kClosed;
  const std::uint32_t len = wire::LoadU32(prefix);
  if (len > max_bytes) return IoStatus::kClosed;
  payload.resize(len);
  if (len == 0) return IoStatus::kOk;
  const IoStatus ps = ReadFull(fd, reinterpret_cast<std::uint8_t*>(payload.data()), len,
                              max_stall_ticks);
  return ps == IoStatus::kOk ? IoStatus::kOk : IoStatus::kClosed;
}

}  // namespace rpt::serve::net
