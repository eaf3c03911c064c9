// Shard planner: subtree-weight-balanced cuts for the sharded Multiple-NoD
// solve (docs/ARCHITECTURE.md "Sharded solve").
//
// A *cut* is an internal, non-root node; the cut detaches its whole subtree
// from the megatree. Cuts are pairwise disjoint (no cut is an ancestor of
// another), so the remaining *spine* — every node not strictly below a cut —
// is itself a valid tree once each cut reappears in it as a client leaf
// carrying its subtree's demand. Each of the k shards owns a set of cut
// subtrees (a forest), solved in its own process/engine; the spine is merged
// by the coordinator from the shipped boundary tables.
//
// Planning is pure CSR-aggregate arithmetic — SubtreeSize/SubtreeRequests
// reads, no DP work — and fully deterministic: candidate refinement always
// splits the heaviest candidate (ties to the lowest node id), and shard
// assignment is largest-first into the lightest shard (ties to the lowest
// shard index). The weight proxy is subtree_requests + subtree_size. The
// DP's table footprint follows the size term alone: a cost-domain table
// holds at most its subtree's nodes + 1 entries, whatever the demand, and
// each node keeps one F table plus its prefix chain. The demand term dates
// from request-domain tables of demand + 1 entries; it stays because a new
// proxy moves every cut, which wants its own measured change.
#pragma once

#include <cstdint>
#include <vector>

#include "tree/tree.hpp"

namespace rpt::shard {

/// One planned cut: the subtree root that detaches, its weight proxy, and
/// the shard that owns it.
struct Cut {
  NodeId node = kInvalidNode;   ///< cut subtree root (internal, non-root)
  std::uint64_t weight = 0;     ///< subtree_requests + subtree_size
  std::uint32_t shard = 0;      ///< owning shard index, < ShardPlan::shard_count
};

/// Planner knobs.
struct PlanOptions {
  /// Requested shard count k (>= 1). The plan uses min(k, cut count) shards.
  std::uint32_t shards = 2;
  /// A candidate subtree heavier than (total_weight / k) * (1 + max_imbalance)
  /// is split into its internal children (the candidate joins the spine).
  double max_imbalance = 0.25;
  /// Refinement stops once this many cuts exist (keeps the spine small).
  std::uint32_t max_cuts = 4096;
};

/// The planned decomposition. `cuts` is sorted ascending by node id;
/// `shard_cuts[s]` lists shard s's cut nodes ascending. shard_count == 0
/// means the tree yielded no cuts (e.g. a star whose root has only client
/// children) — callers fall back to the unsharded solve.
struct ShardPlan {
  std::uint32_t shard_count = 0;
  std::vector<Cut> cuts;
  std::vector<std::vector<NodeId>> shard_cuts;
  std::vector<std::uint64_t> shard_weights;
  std::uint64_t spine_weight = 0;  ///< total weight not covered by any cut
};

/// Plans cuts for `tree`. Deterministic in (tree, options).
[[nodiscard]] ShardPlan PlanShards(const Tree& tree, const PlanOptions& options);

}  // namespace rpt::shard
