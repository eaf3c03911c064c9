// Solution representation: a replica set plus the explicit request routing.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tree/tree.hpp"

namespace rpt {

/// One routed block of requests: `amount` requests of `client` are processed
/// by the replica at `server`.
struct ServiceEntry {
  NodeId client = kInvalidNode;
  NodeId server = kInvalidNode;
  Requests amount = 0;

  friend bool operator==(const ServiceEntry&, const ServiceEntry&) = default;
};

/// A candidate solution. Algorithms must fill both the replica set and the
/// full assignment; the validator re-derives every constraint from these.
struct Solution {
  std::vector<NodeId> replicas;
  std::vector<ServiceEntry> assignment;

  /// |R| — the paper's objective value.
  [[nodiscard]] std::size_t ReplicaCount() const noexcept { return replicas.size(); }

  /// Total requests routed (sum of amounts).
  [[nodiscard]] Requests RoutedRequests() const noexcept {
    Requests total = 0;
    for (const ServiceEntry& entry : assignment) total += entry.amount;
    return total;
  }

  /// Puts the solution in the canonical form every golden and hash pins:
  /// replicas ascending without repeats; the assignment ordered by (client,
  /// server), equal keys summed, zero sums dropped. A canonical input comes
  /// back unchanged. Linear: a counting pass over the ids, then a sort per
  /// id bucket (O(k log k) for one client split over k servers). Scratch,
  /// local to the call: a copy of the n entries and at most 2n + 2^16 offsets.
  void Canonicalize();
};

/// FNV-1a fingerprint of the canonical form of `solution` (Canonicalize()),
/// the one the golden tests pin: equal fingerprints stand for byte-identical
/// canonical solutions. A canonical input hashes as it is.
[[nodiscard]] std::uint64_t CanonicalSolutionHash(Solution solution);

/// Per-server load summary derived from a solution.
struct LoadSummary {
  Requests max_load = 0;    ///< heaviest server load
  Requests total_load = 0;  ///< total routed requests
  double mean_load = 0.0;   ///< total / replica count
  double utilization = 0.0; ///< total / (replica count * W)
};

/// Computes server load statistics for a (valid) solution in O(tree +
/// solution); throws InvalidArgument on a replica or server id off the tree.
[[nodiscard]] LoadSummary SummarizeLoads(const Tree& tree, Requests capacity,
                                         const Solution& solution);

/// Rewrites every node id in `solution` through `map` (new_id = map[old_id]).
/// Used to translate a solution computed on a compacted overlay back into
/// overlay/view ids (and vice versa). Every referenced id must be in range
/// and map to a valid node; throws InvalidArgument otherwise.
[[nodiscard]] Solution MapNodeIds(const Solution& solution, std::span<const NodeId> map);

}  // namespace rpt
