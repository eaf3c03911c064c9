// Update events for the incremental re-solve engine: the unit of change a
// streaming workload applies to a solved instance.
//
// Since the topology-overlay refactor the tree is NOT fixed anymore: the
// solver runs over a TopologyView (immutable CSR base or delta TreeOverlay),
// and events cover both traffic and topology:
//
// Demand/capacity events (the original fixed-topology set):
//  * kDemandDelta    — client i's request rate changes by a signed delta;
//  * kClientAdd      — a pre-provisioned zero-demand client leaf comes alive
//                      with an initial demand (CDNs provision attachment
//                      points ahead of need; "adding a client" means turning
//                      one on);
//  * kClientRemove   — a client goes dark (demand drops to zero; the leaf
//                      stays in the topology and may be re-added later);
//  * kCapacity       — the uniform server capacity W changes (a fleet-wide
//                      hardware/QoS reconfiguration; invalidates every DP
//                      table, so it forces a full recompute).
//
// Topology events (applied to the solver's TreeOverlay; a batch containing
// any of these stages them, in order with its demand events, into a clone
// of the overlay, so a throwing event leaves the solver untouched):
//  * kAttachSubtree  — splice `spec` under internal node `node`; the new
//                      nodes get fresh ids appended past the current size
//                      (returned ids are deterministic: first new id ==
//                      solver size before the batch event applied);
//  * kDetachSubtree  — tombstone subtree(`node`); its ids die forever
//                      (re-joining hardware comes back as new ids);
//  * kMigrateSubtree — re-home subtree(`node`) under `new_parent` with edge
//                      length `value`; ids and solver tables survive;
//  * kLinkCapacity   — reconfigure the edge length of `node`'s parent link
//                      to `value` (link degradation/repair). Distances
//                      below the node shift; the Multiple-NoD DP tables are
//                      untouched (F depends only on subtree demands and W).
//
// Structural legality (root never detached/migrated, no internal node loses
// its last child, no cycles, distance bounds) is enforced by TreeOverlay's
// mutators; the solver surfaces their InvalidArgument before mutating
// anything.
//
// Events are plain data and deterministic to replay; a trace (a vector of
// per-tick event batches) fully determines the placement sequence.
#pragma once

#include <cstdint>
#include <vector>

#include "tree/tree.hpp"
#include "tree/tree_overlay.hpp"

namespace rpt::incremental {

/// Which engine executes a re-solve after an update batch. kFullResolve is
/// the oracle: it recomputes everything from scratch exactly as the batch
/// solver would (compacting the overlay first when topology changed), and
/// exists so the incremental path can be checked (and benchmarked) against
/// it.
enum class Engine : std::uint8_t {
  kIncremental,  ///< dirty-chain recompute, untouched subtrees reused
  kFullResolve,  ///< from-scratch solve per batch (the equivalence oracle)
};

/// Human-readable engine name ("incremental" / "full-resolve").
[[nodiscard]] const char* EngineName(Engine engine) noexcept;

/// One change to the demand/capacity/topology state of a solved instance.
struct UpdateEvent {
  enum class Kind : std::uint8_t {
    kDemandDelta,     ///< demand[client] += delta (result must stay >= 0)
    kClientAdd,       ///< demand[client] = value (client must be at 0; value > 0)
    kClientRemove,    ///< demand[client] = 0
    kCapacity,        ///< capacity = value (> 0)
    kAttachSubtree,   ///< splice `spec` under internal `client`
    kDetachSubtree,   ///< tombstone subtree(`client`)
    kMigrateSubtree,  ///< re-home subtree(`client`) under `parent` at delta `value`
    kLinkCapacity,    ///< delta of `client`'s parent edge becomes `value`
  };

  Kind kind = Kind::kDemandDelta;
  /// Target node: the client leaf (demand kinds), the attach parent
  /// (kAttachSubtree), or the subtree root / link node (detach, migrate,
  /// link). Unused for kCapacity.
  NodeId client = kInvalidNode;
  std::int64_t delta = 0;  ///< signed demand change (kDemandDelta only)
  /// New demand (kClientAdd), capacity (kCapacity), or edge length
  /// (kMigrateSubtree / kLinkCapacity).
  Requests value = 0;
  NodeId parent = kInvalidNode;  ///< migration target (kMigrateSubtree only)
  SubtreeSpec spec;              ///< attached subtree (kAttachSubtree only)

  friend bool operator==(const UpdateEvent&, const UpdateEvent&) = default;

  /// True for the four kinds that mutate the tree structure.
  [[nodiscard]] bool IsTopology() const noexcept {
    return kind == Kind::kAttachSubtree || kind == Kind::kDetachSubtree ||
           kind == Kind::kMigrateSubtree || kind == Kind::kLinkCapacity;
  }

  [[nodiscard]] static UpdateEvent DemandDelta(NodeId client, std::int64_t delta) {
    return UpdateEvent{Kind::kDemandDelta, client, delta, 0, kInvalidNode, {}};
  }
  [[nodiscard]] static UpdateEvent ClientAdd(NodeId client, Requests demand) {
    return UpdateEvent{Kind::kClientAdd, client, 0, demand, kInvalidNode, {}};
  }
  [[nodiscard]] static UpdateEvent ClientRemove(NodeId client) {
    return UpdateEvent{Kind::kClientRemove, client, 0, 0, kInvalidNode, {}};
  }
  [[nodiscard]] static UpdateEvent Capacity(Requests capacity) {
    return UpdateEvent{Kind::kCapacity, kInvalidNode, 0, capacity, kInvalidNode, {}};
  }
  [[nodiscard]] static UpdateEvent AttachSubtree(NodeId parent, SubtreeSpec spec) {
    return UpdateEvent{Kind::kAttachSubtree, parent, 0, 0, kInvalidNode, std::move(spec)};
  }
  [[nodiscard]] static UpdateEvent DetachSubtree(NodeId root) {
    return UpdateEvent{Kind::kDetachSubtree, root, 0, 0, kInvalidNode, {}};
  }
  [[nodiscard]] static UpdateEvent MigrateSubtree(NodeId root, NodeId new_parent,
                                                  Distance new_delta) {
    return UpdateEvent{Kind::kMigrateSubtree, root, 0, new_delta, new_parent, {}};
  }
  [[nodiscard]] static UpdateEvent LinkCapacity(NodeId node, Distance new_delta) {
    return UpdateEvent{Kind::kLinkCapacity, node, 0, new_delta, kInvalidNode, {}};
  }
};

/// A trace: one event batch per tick (batches may be empty). The unit
/// sim::Replay's streaming mode and the trace generator exchange.
using UpdateTrace = std::vector<std::vector<UpdateEvent>>;

}  // namespace rpt::incremental
