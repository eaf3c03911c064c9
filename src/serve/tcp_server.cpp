#include "serve/tcp_server.hpp"

#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "serve/net_util.hpp"
#include "support/common.hpp"
#include "support/failpoint.hpp"
#include "support/wire.hpp"

namespace rpt::serve {

using net::CloseQuiet;
using net::IoStatus;
using net::ReadFull;
using net::WriteFull;

std::uint64_t BackoffDelayMs(int attempt, int base_ms, int cap_ms,
                             std::uint64_t seed) noexcept {
  if (base_ms <= 0) return 0;
  // Clamp the shift itself: `base << attempt` at attempt >= 32 is UB long
  // before any cap could save it.
  const int shift = attempt < 30 ? attempt : 30;
  std::uint64_t delay = static_cast<std::uint64_t>(base_ms) << shift;
  if (cap_ms > 0 && delay > static_cast<std::uint64_t>(cap_ms)) {
    delay = static_cast<std::uint64_t>(cap_ms);
  }
  if (delay <= 1) return delay;
  // splitmix64 over (seed, attempt): stateless, clock-free, identical
  // across runs — jitter without sacrificing reproducibility.
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull +
                    static_cast<std::uint64_t>(attempt) + 0x9E3779B97F4A7C15ull;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  const std::uint64_t half = delay / 2;
  return half + x % (delay - half + 1);  // [delay/2, delay]
}

TcpServer::TcpServer(const ServeHarness& harness, TcpServerOptions options)
    : harness_(harness),
      server_({options.io_timeout_ms, options.max_connections},
              [this](int fd) { ServeConnection(fd); }) {}

void TcpServer::ServeConnection(int fd) {
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> out;
  std::uint8_t prefix[4];
  for (;;) {
    fail::Hit("tcp.serve.stall");  // kDelay here = a slow server, per request
    const IoStatus ps = ReadFull(fd, prefix, 4);
    if (ps != IoStatus::kOk) {
      // A timeout with zero bytes read is just an idle keep-alive gap to a
      // well-behaved peer — but distinguishing "idle before a frame" from
      // "dead mid-prefix" needs byte accounting inside ReadFull for little
      // gain; the contract is simply that a connection must speak within
      // every io_timeout_ms window or re-connect. Cheap for our clients,
      // and it guarantees a wedged peer frees its handler thread.
      if (ps == IoStatus::kTimeout) timeouts_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    const std::uint32_t len = wire::LoadU32(prefix);
    if (len > kMaxFrameBytes) break;  // desync — nothing sane to answer
    payload.resize(len);
    if (len > 0) {
      const IoStatus bs = ReadFull(fd, payload.data(), len);
      if (bs != IoStatus::kOk) {
        // Half-written frame: the peer died or hung mid-request. Close —
        // resynchronizing on a torn stream is guesswork.
        if (bs == IoStatus::kTimeout) timeouts_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
    }

    QueryResponse response;  // defaults: version 0, ok false
    try {
      const QueryRequest request = DecodeRequest(payload);
      response = harness_.Query(request);
    } catch (const InvalidArgument&) {
      // Malformed payload or out-of-range node: answer a failure frame and
      // keep serving — a bad client must not cost anyone else the service.
    }
    out.clear();
    EncodeResponse(response, out);
    requests_.fetch_add(1, std::memory_order_relaxed);
    const IoStatus ws = WriteFull(fd, out.data(), out.size());
    if (ws != IoStatus::kOk) {
      if (ws == IoStatus::kTimeout) timeouts_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }
}

TcpClient::TcpClient(std::uint16_t port, TcpClientOptions options)
    : TcpClient(std::vector<std::uint16_t>{port}, options) {}

TcpClient::TcpClient(std::vector<std::uint16_t> endpoints, TcpClientOptions options)
    : endpoints_(std::move(endpoints)), options_(options) {
  RPT_REQUIRE(!endpoints_.empty(), "TcpClient: endpoint list must be non-empty");
  for (std::size_t tried = 0;; ++tried) {
    try {
      Connect();
      return;
    } catch (const InternalError&) {
      // First reachable endpoint wins; all dead propagates the last error.
      if (tried + 1 >= endpoints_.size()) throw;
      endpoint_index_ = (endpoint_index_ + 1) % endpoints_.size();
    }
  }
}

void TcpClient::Connect() {
  fd_ = net::ConnectLoopback(
      endpoints_[endpoint_index_], options_.connect_timeout_ms,
      options_.io_timeout_ms, [](const std::string& what, bool timeout) {
        if (timeout) throw TimeoutError("TcpClient: " + what);
        throw InternalError("TcpClient: " + what);
      });
}

TcpClient::~TcpClient() { CloseQuiet(fd_); }

QueryResponse TcpClient::Query(const QueryRequest& request) {
  for (int attempt = 0;; ++attempt) {
    try {
      if (fd_ < 0) Connect();  // a prior attempt tore the connection down
      return QueryOnce(request);
    } catch (const InternalError&) {
      // TimeoutError, ServerBusy or a torn connection. The request never
      // mutates state, so resending on a fresh connection is always safe.
      CloseQuiet(fd_);
      fd_ = -1;
      if (attempt >= options_.max_retries) throw;
      ++retries_;
      // Rotate endpoints: the dead-primary case wants the NEXT endpoint
      // tried, not the same one hammered max_retries times.
      endpoint_index_ = (endpoint_index_ + 1) % endpoints_.size();
      const std::uint64_t delay =
          BackoffDelayMs(attempt, options_.backoff_base_ms,
                         options_.backoff_cap_ms, options_.backoff_seed);
      if (delay > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      }
    }
  }
}

QueryResponse TcpClient::QueryOnce(const QueryRequest& request) {
  std::vector<std::uint8_t> out;
  EncodeRequest(request, out);
  SendBytes(out);
  return ReadResponse();
}

QueryResponse TcpClient::RawFrame(std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  wire::PutU32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  SendBytes(out);
  return ReadResponse();
}

void TcpClient::SendBytes(std::span<const std::uint8_t> bytes) {
  RPT_CHECK(fd_ >= 0);
  const IoStatus ws = WriteFull(fd_, bytes.data(), bytes.size());
  if (ws == IoStatus::kTimeout) throw TimeoutError("TcpClient: send timed out");
  if (ws != IoStatus::kOk) throw InternalError("TcpClient: short write");
}

QueryResponse TcpClient::ReadResponse() {
  std::uint8_t prefix[4];
  const IoStatus ps = ReadFull(fd_, prefix, 4);
  if (ps == IoStatus::kTimeout) throw TimeoutError("TcpClient: response timed out");
  if (ps != IoStatus::kOk) throw InternalError("TcpClient: connection closed");
  const std::uint32_t len = wire::LoadU32(prefix);
  if (len == 1) {
    std::uint8_t status = 0;
    const IoStatus bs = ReadFull(fd_, &status, 1);
    if (bs == IoStatus::kOk && status == kBusyStatusByte) {
      throw ServerBusy("TcpClient: server at max_connections");
    }
    throw InternalError("TcpClient: unexpected one-byte response frame");
  }
  RPT_REQUIRE(len == kResponseWireSize, "TcpClient: unexpected response frame size");
  std::vector<std::uint8_t> payload(len);
  const IoStatus bs = ReadFull(fd_, payload.data(), len);
  if (bs == IoStatus::kTimeout) throw TimeoutError("TcpClient: response timed out");
  if (bs != IoStatus::kOk) throw InternalError("TcpClient: short read");
  return DecodeResponse(payload);
}

}  // namespace rpt::serve
