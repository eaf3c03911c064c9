// TcpServer — the network boundary of rpt-serve: a length-prefixed TCP loop
// over a ServeHarness, plus the minimal blocking TcpClient the tests and the
// example speak it with.
//
// Protocol (see query.hpp for the codec): every message on the wire is a
// 4-byte little-endian length prefix followed by that many payload bytes.
// A connection is a sequence of request/response pairs — the server answers
// each request against the snapshot current AT THAT INSTANT (queries pin via
// the harness, so an in-flight publish never blocks or tears an answer).
//
// Error handling keeps the service up: a payload that fails to decode (bad
// size, unknown kind) or a query on an out-of-range node gets a well-formed
// failure response (ok = 0, version = 0) instead of tearing down the
// connection; a frame longer than kMaxFrameBytes is a framing attack or a
// desync, and only then is the connection closed. A bad update batch never
// reaches the server at all — updates flow through the harness's single
// update thread, not the wire.
//
// Timeouts (the no-wedge contract): every accepted connection carries
// SO_RCVTIMEO/SO_SNDTIMEO of TcpServerOptions::io_timeout_ms, so a peer
// that sends half a frame and hangs — or stops draining responses — costs
// the service one handler thread for at most one timeout, after which the
// connection closes. The client symmetrically bounds connect (non-blocking
// connect + poll) and per-operation I/O, surfacing expiry as TimeoutError;
// TcpClient::Query additionally retries on a fresh connection with
// exponential backoff (queries are read-only, hence idempotent — resending
// is always safe). The failpoint "tcp.serve.stall" (Action::kDelay) sits at
// the top of the server's per-request loop so tests can simulate a slow
// server without touching real traffic.
//
// Threading: the server runs on a ConnServer (conn_server.hpp): one accept
// thread, and a handler thread per live connection that is joined once its
// connection ends (the expected fan-in is a handful of benchmark or test
// clients, not a C10K front; the harness underneath scales to any number of
// query threads). Stop() shuts down the listener and every open connection,
// then joins all threads — safe to call twice, called by the destructor.
//
// Binding: loopback (127.0.0.1) only, port 0 picks a free port — Port()
// reports the bound one. This is deliberately a harness front-end, not an
// internet-facing daemon.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "serve/conn_server.hpp"
#include "serve/query.hpp"
#include "serve/serve_harness.hpp"

namespace rpt::serve {

/// Frames longer than this are treated as a protocol desync and close the
/// connection (a legal request payload is kRequestWireSize bytes).
inline constexpr std::uint32_t kMaxFrameBytes = 1024;

/// A bounded socket operation expired. Subtype of InternalError so existing
/// callers that catch the broad class keep working; new callers can react
/// to timeouts specifically (the client's retry loop does).
class TimeoutError : public InternalError {
 public:
  explicit TimeoutError(const std::string& what) : InternalError(what) {}
};

/// The server answered the busy byte: it is at max_connections and refused
/// this connection. Retryable (the client's retry loop rotates to the next
/// endpoint), distinct from a timeout.
class ServerBusy : public InternalError {
 public:
  explicit ServerBusy(const std::string& what) : InternalError(what) {}
};

struct TcpServerOptions {
  /// Per-connection read/write timeout. A half-written request frame or an
  /// undrained response closes the connection after this long; 0 disables
  /// (blocking forever — the pre-timeout behavior, tests only).
  int io_timeout_ms = 30000;
  /// Overload guard: with more than this many connections already open, an
  /// accepted connection is answered with a one-byte busy frame
  /// (kBusyStatusByte) and closed instead of getting a handler thread.
  /// 0 = unlimited (the pre-guard behavior).
  int max_connections = 0;
};

struct TcpClientOptions {
  int connect_timeout_ms = 5000;  ///< bound on the TCP handshake
  int io_timeout_ms = 5000;       ///< bound on each send/recv; 0 disables
  /// Query() retries on a FRESH connection this many times after the first
  /// attempt fails with a timeout or connection error (0 = fail fast).
  /// With multiple endpoints, each retry rotates to the next one.
  int max_retries = 2;
  /// Backoff before retry k (0-based) is `backoff_base_ms << k`, capped at
  /// backoff_cap_ms, then jittered (see BackoffDelayMs).
  int backoff_base_ms = 10;
  /// Cap on the exponential: uncapped, `10 << 30` is twelve days — one
  /// misconfigured max_retries away. 0 = no cap (tests only).
  int backoff_cap_ms = 250;
  /// Seed for the deterministic jitter. Distinct seeds per client spread a
  /// post-failover reconnect herd; equal seeds reproduce a schedule exactly.
  std::uint64_t backoff_seed = 0;
};

/// Delay before retry `attempt` (0-based): the capped exponential
/// `min(base_ms << attempt, cap_ms)`, jittered deterministically into
/// [delay/2, delay] by a hash of (seed, attempt). Jitter exists so a herd
/// of clients whose primary just died does not hammer the promoted
/// follower in lockstep; determinism (no clocks, no global RNG) keeps
/// retry schedules reproducible in tests. Exposed for direct testing.
[[nodiscard]] std::uint64_t BackoffDelayMs(int attempt, int base_ms, int cap_ms,
                                           std::uint64_t seed) noexcept;

class TcpServer {
 public:
  /// Wraps `harness` (not owned; must outlive the server).
  explicit TcpServer(const ServeHarness& harness, TcpServerOptions options = {});

  /// Binds 127.0.0.1:`port` (0 = pick a free port), starts listening and
  /// accepting. Throws InternalError if the socket layer refuses; throws
  /// InvalidArgument if already started.
  void Start(std::uint16_t port = 0) { server_.Start(port); }

  /// Shuts the listener and all connections down and joins their threads.
  /// Idempotent.
  void Stop() { server_.Stop(); }

  /// The bound port (valid after Start()).
  [[nodiscard]] std::uint16_t Port() const noexcept { return server_.Port(); }

  /// Connections accepted over the server's lifetime.
  [[nodiscard]] std::uint64_t ConnectionsAccepted() const noexcept {
    return server_.Accepted();
  }

  /// Requests answered (including failure responses) over the lifetime.
  [[nodiscard]] std::uint64_t RequestsServed() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }

  /// Connections closed because a read or write timed out (half frames,
  /// undrained peers).
  [[nodiscard]] std::uint64_t TimeoutsObserved() const noexcept {
    return timeouts_.load(std::memory_order_relaxed);
  }

  /// Connections refused with the busy byte because max_connections was
  /// reached.
  [[nodiscard]] std::uint64_t RejectedConnections() const noexcept {
    return server_.Rejected();
  }

  /// Currently-open handler connections (the count max_connections bounds).
  [[nodiscard]] int ActiveConnections() const { return server_.Live(); }

 private:
  void ServeConnection(int fd);

  const ServeHarness& harness_;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  // Last: destroyed first, so its Stop() joins every handler while the
  // members above are still alive.
  ConnServer server_;
};

/// Minimal blocking client for the rpt-serve wire protocol: one connection,
/// one request/response at a time. Not thread-safe; throws TimeoutError
/// when a bounded operation expires, ServerBusy on the busy byte,
/// InternalError on other socket failures and InvalidArgument on malformed
/// responses.
///
/// Failover: constructed with an endpoint LIST, the client talks to the
/// first endpoint until an attempt fails, then rotates to the next (round
/// robin) on each retry — the shape a query client needs when its primary
/// dies and a promoted follower is listening on the other port. Which
/// endpoint answered is visible via ActivePort().
class TcpClient {
 public:
  /// Connects to 127.0.0.1:`port` within `options.connect_timeout_ms`.
  explicit TcpClient(std::uint16_t port, TcpClientOptions options = {});

  /// Failover client: endpoints are tried in order, starting from the
  /// first; each Query retry rotates to the next. Connects to the first
  /// reachable endpoint before returning.
  explicit TcpClient(std::vector<std::uint16_t> endpoints,
                     TcpClientOptions options = {});

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;
  ~TcpClient();

  /// Sends one request and blocks for its response. On a timeout, busy
  /// byte or connection error, rotates to the next endpoint and resends on
  /// a fresh connection up to `max_retries` times with capped+jittered
  /// exponential backoff (safe: queries are idempotent reads); throws the
  /// final attempt's error when the budget is exhausted.
  [[nodiscard]] QueryResponse Query(const QueryRequest& request);

  /// The endpoint the client is currently connected (or connecting) to.
  [[nodiscard]] std::uint16_t ActivePort() const noexcept {
    return endpoints_[endpoint_index_];
  }

  /// Sends `payload` under a raw length prefix — the tests' tool for
  /// poking malformed frames at the server. No retry.
  [[nodiscard]] QueryResponse RawFrame(std::span<const std::uint8_t> payload);

  /// Writes raw bytes with NO framing and reads nothing — the tests' tool
  /// for half-written frames and hung-peer scenarios.
  void SendBytes(std::span<const std::uint8_t> bytes);

  /// Retries Query() performed over this client's lifetime.
  [[nodiscard]] std::uint64_t Retries() const noexcept { return retries_; }

 private:
  void Connect();
  QueryResponse QueryOnce(const QueryRequest& request);
  QueryResponse ReadResponse();

  std::vector<std::uint16_t> endpoints_;
  std::size_t endpoint_index_ = 0;
  TcpClientOptions options_;
  int fd_ = -1;
  std::uint64_t retries_ = 0;
};

}  // namespace rpt::serve
