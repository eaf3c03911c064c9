// The rpt-serve query surface: typed requests/responses answered against a
// pinned PlacementSnapshot, plus the length-prefixed wire codec the TCP
// front-end speaks.
//
// Three query kinds, each O(depth) or better against the snapshot's flat
// buffers (placement_snapshot.hpp):
//  * kWhichReplica  — which replica serves client c? (primary server + the
//                     client's current demand)
//  * kResidual      — residual capacity and replica count under node s
//  * kAttachCost    — cost (path distance) of attaching `demand` new
//                     requests at node v without moving any replica
//
// Every response carries the snapshot version it was answered against, so
// callers can correlate answers with publishes (and the swap-torture test
// can verify answers byte-identically against the exact snapshot pinned).
//
// Wire format (little-endian, fixed width — no varints, no padding bytes on
// the wire): each message is a 4-byte length prefix followed by that many
// payload bytes. Request payload: kind u8, node u32, demand u64 (13 bytes).
// Response payload: version u64, status u8, server u32, value u64,
// distance u64 (29 bytes). Decode rejects short/overlong payloads; the
// codec round-trips bit-exactly (tests/test_serve.cpp).
//
// Thread-safety: Answer() is a pure function of (snapshot, request) — safe
// from any number of threads; the codec functions are stateless.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "serve/placement_snapshot.hpp"

namespace rpt::serve {

enum class QueryKind : std::uint8_t {
  kWhichReplica = 0,  ///< node = client id
  kResidual = 1,      ///< node = subtree root
  kAttachCost = 2,    ///< node = attach point, demand = new requests
};

struct QueryRequest {
  QueryKind kind = QueryKind::kWhichReplica;
  NodeId node = kInvalidNode;
  Requests demand = 0;  ///< kAttachCost only

  friend bool operator==(const QueryRequest&, const QueryRequest&) = default;
};

/// Outcome of one query. Field meaning per kind:
///  * kWhichReplica — ok iff the client is served; server = primary replica,
///    value = the client's demand, distance = client->server path distance.
///  * kResidual — always ok; value = summed residual under the node,
///    server = the node itself, distance = replica count under the node.
///  * kAttachCost — ok iff some ancestor replica fits the demand; server =
///    that replica, distance = attach cost, value = its residual capacity.
struct QueryResponse {
  std::uint64_t version = 0;  ///< snapshot the answer was computed against
  bool ok = false;
  /// Degraded-mode marker: the harness failed to apply-and-publish after
  /// this snapshot went out (WAL append error, solve failure mid-batch), so
  /// the answer is correct against the LAST GOOD state but known to lag the
  /// event stream. Clears on the next successful publish. Wire: bit 1 of
  /// the status byte (bit 0 is `ok`), so the frame size is unchanged.
  bool stale = false;
  /// Replica marker: a follower harness (replicating a primary's WAL —
  /// serve/repl_link.hpp) answered. The answer is correct against the last
  /// shipped-and-applied state but may lag the primary by in-flight
  /// records. Wire: bit 2 of the status byte.
  bool follower = false;
  NodeId server = kInvalidNode;
  std::uint64_t value = 0;
  Distance distance = 0;

  friend bool operator==(const QueryResponse&, const QueryResponse&) = default;
};

/// Answers `request` against `snapshot`. Throws InvalidArgument on an
/// out-of-range node id or unknown kind (the TCP loop maps that to a
/// failed response rather than tearing down the connection).
[[nodiscard]] QueryResponse Answer(const PlacementSnapshot& snapshot,
                                   const QueryRequest& request);

/// Fixed payload sizes of the wire format (excluding the length prefix).
inline constexpr std::size_t kRequestWireSize = 13;
inline constexpr std::size_t kResponseWireSize = 29;

/// Appends the length-prefixed encoding of a message to `out`.
void EncodeRequest(const QueryRequest& request, std::vector<std::uint8_t>& out);
void EncodeResponse(const QueryResponse& response, std::vector<std::uint8_t>& out);

/// Decodes one payload (WITHOUT the length prefix; the framing layer strips
/// it). Throws InvalidArgument on a size mismatch or an unknown kind byte.
[[nodiscard]] QueryRequest DecodeRequest(std::span<const std::uint8_t> payload);
[[nodiscard]] QueryResponse DecodeResponse(std::span<const std::uint8_t> payload);

}  // namespace rpt::serve
