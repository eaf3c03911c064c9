#include "serve/query.hpp"

#include "support/wire.hpp"

namespace rpt::serve {

QueryResponse Answer(const PlacementSnapshot& snapshot, const QueryRequest& request) {
  RPT_REQUIRE(request.node < snapshot.Size(), "serve: query node id out of range");
  QueryResponse response;
  response.version = snapshot.Version();
  if (!snapshot.IsLive(request.node)) {
    // The client may race a detach: the id is answerable (it existed when
    // the snapshot was published) but there is nothing behind it.
    response.ok = false;
    return response;
  }
  switch (request.kind) {
    case QueryKind::kWhichReplica: {
      const NodeId server = snapshot.PrimaryServerOf(request.node);
      response.ok = server != kInvalidNode;
      response.server = server;
      response.value = snapshot.DemandOf(request.node);
      response.distance =
          response.ok ? snapshot.DistToAncestor(request.node, server) : 0;
      return response;
    }
    case QueryKind::kResidual:
      response.ok = true;
      response.server = request.node;
      response.value = snapshot.ResidualUnder(request.node);
      response.distance = snapshot.ReplicasUnder(request.node);
      return response;
    case QueryKind::kAttachCost: {
      const AttachResult attach = snapshot.AttachAt(request.node, request.demand);
      response.ok = attach.feasible;
      response.server = attach.server;
      response.distance = attach.feasible ? attach.distance : 0;
      response.value = attach.feasible ? snapshot.ResidualOf(attach.server) : 0;
      return response;
    }
  }
  RPT_REQUIRE(false, "serve: unknown query kind");
  return response;  // unreachable
}

void EncodeRequest(const QueryRequest& request, std::vector<std::uint8_t>& out) {
  wire::PutU32(out, static_cast<std::uint32_t>(kRequestWireSize));
  wire::PutU8(out, static_cast<std::uint8_t>(request.kind));
  wire::PutU32(out, request.node);
  wire::PutU64(out, request.demand);
}

void EncodeResponse(const QueryResponse& response, std::vector<std::uint8_t>& out) {
  wire::PutU32(out, static_cast<std::uint32_t>(kResponseWireSize));
  wire::PutU64(out, response.version);
  wire::PutU8(out, static_cast<std::uint8_t>((response.ok ? 1 : 0) |
                                             (response.stale ? 2 : 0) |
                                             (response.follower ? 4 : 0)));
  wire::PutU32(out, response.server);
  wire::PutU64(out, response.value);
  wire::PutU64(out, response.distance);
}

QueryRequest DecodeRequest(std::span<const std::uint8_t> payload) {
  RPT_REQUIRE(payload.size() == kRequestWireSize,
              "serve: request payload must be exactly " + std::to_string(kRequestWireSize) +
                  " bytes, got " + std::to_string(payload.size()));
  RPT_REQUIRE(payload[0] <= static_cast<std::uint8_t>(QueryKind::kAttachCost),
              "serve: unknown query kind byte");
  QueryRequest request;
  request.kind = static_cast<QueryKind>(payload[0]);
  request.node = wire::LoadU32(&payload[1]);
  request.demand = wire::LoadU64(&payload[5]);
  return request;
}

QueryResponse DecodeResponse(std::span<const std::uint8_t> payload) {
  RPT_REQUIRE(payload.size() == kResponseWireSize,
              "serve: response payload must be exactly " + std::to_string(kResponseWireSize) +
                  " bytes, got " + std::to_string(payload.size()));
  RPT_REQUIRE(payload[8] <= 7, "serve: unknown status bits in response");
  QueryResponse response;
  response.version = wire::LoadU64(&payload[0]);
  response.ok = (payload[8] & 1) != 0;
  response.stale = (payload[8] & 2) != 0;
  response.follower = (payload[8] & 4) != 0;
  response.server = wire::LoadU32(&payload[9]);
  response.value = wire::LoadU64(&payload[13]);
  response.distance = wire::LoadU64(&payload[21]);
  return response;
}

}  // namespace rpt::serve
