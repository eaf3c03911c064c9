// Arena-based distribution tree, the substrate every algorithm in this
// library operates on (paper §2).
//
// A tree T = C ∪ N: internal nodes N may host replicas, leaf nodes C are
// clients issuing requests. Each non-root node has an edge length δ to its
// parent; the root's δ is +inf (kNoDistanceLimit), matching the paper's
// convention δ_r = +∞, so nothing can be served "above the root".
//
// The structure is immutable after TreeBuilder::Build(); all derived data
// (depth, distance to root, Euler intervals for O(1) ancestor tests,
// post-order) is precomputed there. Node ids are dense indices into the
// arena, root is always id 0.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "support/common.hpp"

namespace rpt {

/// Dense node identifier; index into the tree arena. Root is always 0.
using NodeId = std::uint32_t;

/// Sentinel for "no node" (e.g. the root's parent).
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// Role of a node. Clients are exactly the leaves of the tree.
enum class NodeKind : std::uint8_t {
  kInternal,  ///< member of N; may host a replica, issues no requests
  kClient,    ///< member of C; leaf issuing requests, may also host a replica
};

class TreeBuilder;
struct SubtreeSlice;

/// Immutable rooted tree with weighted edges and client request counts.
class Tree {
 public:
  /// Root node id (always 0 for a built tree).
  [[nodiscard]] NodeId Root() const noexcept { return 0; }

  /// Total number of nodes |T| = |C| + |N|.
  [[nodiscard]] std::size_t Size() const noexcept { return kind_.size(); }

  /// Number of client (leaf) nodes.
  [[nodiscard]] std::size_t ClientCount() const noexcept { return clients_.size(); }

  /// Number of internal nodes.
  [[nodiscard]] std::size_t InternalCount() const noexcept { return Size() - ClientCount(); }

  /// Kind of a node.
  [[nodiscard]] NodeKind Kind(NodeId id) const { return kind_[Check(id)]; }

  /// True iff the node is a client (leaf).
  [[nodiscard]] bool IsClient(NodeId id) const { return Kind(id) == NodeKind::kClient; }

  /// Requests issued by a client; 0 for internal nodes.
  [[nodiscard]] Requests RequestsOf(NodeId id) const { return requests_[Check(id)]; }

  /// The whole per-node request column (indexed by NodeId; internal entries
  /// 0). The span is valid for the tree's lifetime.
  [[nodiscard]] std::span<const Requests> RequestsColumn() const noexcept { return requests_; }

  /// Parent id, or kInvalidNode for the root.
  [[nodiscard]] NodeId Parent(NodeId id) const { return parent_[Check(id)]; }

  /// Edge length δ_j from node j to its parent; kNoDistanceLimit for root.
  [[nodiscard]] Distance DistToParent(NodeId id) const { return delta_[Check(id)]; }

  /// Children of a node in insertion order (empty for clients).
  [[nodiscard]] std::span<const NodeId> Children(NodeId id) const {
    Check(id);
    return {children_flat_.data() + children_begin_[id],
            children_flat_.data() + children_begin_[id + 1]};
  }

  /// All client node ids, in increasing id order.
  [[nodiscard]] std::span<const NodeId> Clients() const noexcept { return clients_; }

  /// Nodes in post-order (children before parents); root is last.
  [[nodiscard]] std::span<const NodeId> PostOrder() const noexcept { return post_order_; }

  /// Depth in edges (root = 0).
  [[nodiscard]] std::uint32_t Depth(NodeId id) const { return depth_[Check(id)]; }

  /// Sum of edge lengths from the root down to this node.
  [[nodiscard]] Distance DistFromRoot(NodeId id) const { return dist_root_[Check(id)]; }

  /// Maximum number of children over internal nodes (the arity ∆). Zero for
  /// a single-node tree.
  [[nodiscard]] std::uint32_t Arity() const noexcept { return arity_; }

  /// True iff every internal node has at most two children.
  [[nodiscard]] bool IsBinary() const noexcept { return arity_ <= 2; }

  /// True iff `ancestor` is on the path from `node` to the root, inclusive of
  /// node == ancestor. O(1) via Euler intervals.
  [[nodiscard]] bool IsAncestorOrSelf(NodeId ancestor, NodeId node) const {
    Check(ancestor);
    Check(node);
    return tin_[ancestor] <= tin_[node] && Tout(node) <= Tout(ancestor);
  }

  /// Path distance from `node` up to `ancestor`; requires
  /// IsAncestorOrSelf(ancestor, node). O(1).
  [[nodiscard]] Distance DistToAncestor(NodeId node, NodeId ancestor) const {
    RPT_REQUIRE(IsAncestorOrSelf(ancestor, node), "DistToAncestor: not an ancestor");
    return dist_root_[node] - dist_root_[ancestor];
  }

  /// Total requests over all clients.
  [[nodiscard]] Requests TotalRequests() const noexcept { return total_requests_; }

  /// Sum of client requests within subtree(j) (precomputed).
  [[nodiscard]] Requests SubtreeRequests(NodeId id) const { return subtree_requests_[Check(id)]; }

  /// Number of nodes in subtree(j), including j.
  [[nodiscard]] std::uint32_t SubtreeSize(NodeId id) const { return subtree_size_[Check(id)]; }

  /// Extracts subtree(`root`) as a standalone tree plus the local→global id
  /// map (see SubtreeSlice below). `root` must be an internal node so the
  /// slice is a valid tree (a client leaf cannot be a root).
  [[nodiscard]] SubtreeSlice SliceSubtree(NodeId root) const;

 private:
  friend class TreeBuilder;
  Tree() = default;

  NodeId Check(NodeId id) const {
    RPT_REQUIRE(id < Size(), "Tree: node id out of range");
    return id;
  }

  /// Euler exit tick, derived from the entry tick and the subtree size (a
  /// subtree of s nodes spans exactly 2s consecutive ticks).
  [[nodiscard]] std::uint32_t Tout(NodeId id) const noexcept {
    return tin_[id] + 2 * subtree_size_[id] - 1;
  }

  std::vector<NodeKind> kind_;
  std::vector<NodeId> parent_;
  std::vector<Distance> delta_;
  std::vector<Requests> requests_;
  std::vector<std::uint32_t> children_begin_;  // size n+1, CSR offsets
  std::vector<NodeId> children_flat_;
  std::vector<NodeId> clients_;
  std::vector<NodeId> post_order_;
  std::vector<std::uint32_t> depth_;
  std::vector<Distance> dist_root_;
  std::vector<std::uint32_t> tin_;
  std::vector<Requests> subtree_requests_;
  std::vector<std::uint32_t> subtree_size_;
  Requests total_requests_ = 0;
  std::uint32_t arity_ = 0;
};

/// A subtree extracted from a larger tree as a standalone Tree, plus the id
/// map back into the source tree. Produced by Tree::SliceSubtree for the
/// sharded solve (src/shard/): each cut subtree is sliced, shipped to a
/// worker, and solved as its own instance; the map translates the worker's
/// solution fragment back into source-tree ids.
///
/// Local ids are the subtree's global ids in ascending order (local id =
/// rank of the global id among subtree members), so the remap is monotone:
/// parent-before-child and ascending-id child order — every CSR invariant —
/// survive verbatim, and the DP over the slice is byte-identical to the DP
/// over the same subtree in place (F_j depends only on subtree demands and
/// W; see multiple/nod_dp_engine.hpp). The slice root keeps δ = +inf like
/// any tree root; the cut edge's length is irrelevant to the NoD solvers.
struct SubtreeSlice {
  Tree tree;                       ///< subtree re-rooted at the cut, local ids
  std::vector<NodeId> to_global;   ///< local id -> source-tree id
};

/// Incremental tree constructor. Usage:
///   TreeBuilder b;
///   NodeId root = b.AddRoot();
///   NodeId n = b.AddInternal(root, /*delta=*/2);
///   b.AddClient(n, /*delta=*/1, /*requests=*/10);
///   Tree t = b.Build();
///
/// Build() validates the structure (exactly one root, clients are leaves,
/// internal nodes have at least one child) and freezes the tree. The builder
/// itself stores only flat per-node columns; the CSR children arrays are
/// materialized in Build() by a counting pass over the parent column, so no
/// per-node child vectors are ever allocated. Build() is single-threaded
/// and never touches the solver pool, so the tree is the same at any
/// SetSolverThreads width.
class TreeBuilder {
 public:
  TreeBuilder() = default;

  /// Adds the root (internal) node; must be called first, exactly once.
  NodeId AddRoot();

  /// Adds an internal node under `parent` with edge length `delta`.
  NodeId AddInternal(NodeId parent, Distance delta);

  /// Adds a client leaf under `parent` with edge length `delta` issuing
  /// `requests` requests.
  NodeId AddClient(NodeId parent, Distance delta, Requests requests);

  /// Number of nodes added so far.
  [[nodiscard]] std::size_t Size() const noexcept { return kind_.size(); }

  /// Pre-allocates the per-node columns for `node_count` nodes. Optional;
  /// generators that know the final size call it to avoid regrowth.
  void Reserve(std::size_t node_count);

  /// Validates and freezes; the builder is left empty afterwards.
  [[nodiscard]] Tree Build();

 private:
  NodeId AddNode(NodeId parent, Distance delta, NodeKind kind, Requests requests);

  /// Materializes the CSR children arrays and every derived column from the
  /// flat per-node inputs already moved into `tree`, in a few flat passes
  /// over the id range. Serial on purpose: a level-synchronous parallel form
  /// lost to it at every tree size and pool width measured (README,
  /// "Intra-instance parallelism").
  static void DeriveSerial(Tree& tree, std::size_t n, std::size_t client_count);

  std::vector<NodeKind> kind_;
  std::vector<NodeId> parent_;
  std::vector<Distance> delta_;
  std::vector<Requests> requests_;
  std::size_t client_count_ = 0;
};

}  // namespace rpt
