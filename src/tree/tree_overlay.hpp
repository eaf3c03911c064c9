// TreeOverlay — the mutable delta view over an immutable CSR Tree.
//
// The CSR Tree (tree.hpp) is frozen at Build() time; every solver invariant
// (Euler intervals, post-order, subtree aggregates) is baked into its flat
// columns. Streaming workloads, however, see topology churn: access nodes
// join and leave, whole regions re-home after a link failure. Rebuilding the
// world per event throws away every table the incremental solvers worked to
// keep warm, so this class keeps a *mutable* copy of the structural columns
// and applies topology deltas in place:
//
//  * AttachSubtree  — splice a new subtree (fresh ids appended past the
//                     current size) under a live internal node;
//  * DetachSubtree  — tombstone a subtree (ids stay allocated but dead;
//                     they are never reused — re-joining hardware comes back
//                     as new ids);
//  * MigrateSubtree — re-home a subtree under a new parent (ids, and hence
//                     every per-node solver table keyed by id, survive);
//  * SetLinkDelta   — reconfigure one edge length δ (link degradation /
//                     repair); distances below the edge shift, nothing else;
//  * SetRequests    — the demand write-through, so the overlay's request
//                     column and subtree totals always describe the current
//                     state (Compact() snapshots them; dead slots read 0).
//
// The accessor surface deliberately mirrors Tree's (Size/Kind/Parent/
// Children/Depth/SubtreeRequests/...), so solvers written against
// TopologyView (topology_view.hpp) run unchanged over either. Differences:
// ids may be dead (IsLive), Children() order is insertion order where
// migrated/attached children append at the end, IsAncestorOrSelf walks
// parent pointers (O(depth)) instead of Euler intervals, and PostOrder()/
// Clients() cover live nodes only (rebuilt lazily after mutations — first
// access after a mutation is not thread-safe; solvers touch them only from
// the update thread).
//
// Structural invariants (enforced by every mutator, which validates fully
// before touching any state — a throwing mutator leaves the overlay
// unchanged):
//  * node 0 is the root, live forever, never detached or migrated;
//  * every live non-root node has a live internal parent;
//  * every live internal node keeps >= 1 live child — detach/migrate of a
//    parent's last child is rejected (this is also what keeps the root from
//    being orphaned, and what keeps Compact() buildable: TreeBuilder rejects
//    childless internal nodes);
//  * migration cannot create a cycle (the new parent must not live inside
//    the moved subtree);
//  * dist-from-root stays below kNoDistanceLimit/2 everywhere (same bound
//    the builder enforces).
//
// Compact() folds the overlay back into a clean CSR Tree via TreeBuilder's
// serial Build and returns the old->new id remap. New ids are assigned by a
// greedy min-old-id topological order that preserves per-parent child
// order, so a never-mutated overlay compacts to the identity remap and a
// byte-identical tree.
//
// Ownership: the overlay copies every column it needs out of the base tree
// at construction; the base may be destroyed afterwards. Copyable (the
// incremental solver clones it to make topology batches atomic). Not
// thread-safe; const accessors are safe concurrently once the lazy
// Clients()/PostOrder() caches are warm.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "tree/tree.hpp"

namespace rpt {

/// A subtree to attach, described in local indices: node 0 is the subtree
/// root (its `parent` field is ignored — the attach target supplies it),
/// every other node's `parent` is a smaller local index. Internal spec nodes
/// must have at least one child within the spec; clients must be leaves.
struct SubtreeSpec {
  struct Node {
    NodeKind kind = NodeKind::kClient;
    std::uint32_t parent = 0;  ///< local index of the parent (ignored for node 0)
    Distance delta = 1;        ///< edge length to the (local or attach) parent
    Requests requests = 0;     ///< initial demand (clients only)

    friend bool operator==(const Node&, const Node&) = default;
  };

  std::vector<Node> nodes;

  friend bool operator==(const SubtreeSpec&, const SubtreeSpec&) = default;

  /// One client leaf joining under the attach parent.
  [[nodiscard]] static SubtreeSpec SingleClient(Distance delta, Requests requests) {
    SubtreeSpec spec;
    spec.nodes.push_back(Node{NodeKind::kClient, 0, delta, requests});
    return spec;
  }
};

class TreeOverlay {
 public:
  /// Copies every structural and demand column out of `base`; ids are
  /// preserved one-to-one. O(|T|).
  explicit TreeOverlay(const Tree& base);

  /// Reconstructs an overlay from flat columns (the deserialization path —
  /// see tree/serialize.hpp's rpt-overlay format). `alive[id]` marks live
  /// slots; dead slots' other columns are ignored, and their request entries
  /// are stored as 0. `child_rank[id]` is the node's position in its
  /// parent's child list (child order is load-bearing: Compact() and the
  /// solvers' tie-breaks follow it, and after migrations it is no longer
  /// ascending-id); per parent the live ranks must form 0..k-1. Validates the full structural invariant set
  /// (single live root 0, live internal parents, no cycles, internal nodes
  /// keep a live child) and derives every computed column. Throws
  /// InvalidArgument on violation.
  [[nodiscard]] static TreeOverlay FromColumns(std::span<const NodeKind> kind,
                                               std::span<const NodeId> parent,
                                               std::span<const Distance> delta,
                                               std::span<const Requests> requests,
                                               std::span<const std::uint8_t> alive,
                                               std::span<const std::uint32_t> child_rank);

  // --- Tree-compatible accessors (see tree.hpp for semantics) ---
  [[nodiscard]] NodeId Root() const noexcept { return 0; }
  [[nodiscard]] std::size_t Size() const noexcept { return kind_.size(); }
  [[nodiscard]] std::size_t LiveCount() const noexcept { return live_count_; }
  [[nodiscard]] std::size_t ClientCount() const noexcept { return live_client_count_; }
  [[nodiscard]] bool IsLive(NodeId id) const { return alive_[Check(id)] != 0; }
  [[nodiscard]] NodeKind Kind(NodeId id) const { return kind_[Check(id)]; }
  [[nodiscard]] bool IsClient(NodeId id) const { return Kind(id) == NodeKind::kClient; }
  [[nodiscard]] Requests RequestsOf(NodeId id) const { return requests_[Check(id)]; }
  [[nodiscard]] std::span<const Requests> RequestsColumn() const noexcept { return requests_; }
  [[nodiscard]] NodeId Parent(NodeId id) const { return parent_[Check(id)]; }
  [[nodiscard]] Distance DistToParent(NodeId id) const { return delta_[Check(id)]; }
  [[nodiscard]] std::span<const NodeId> Children(NodeId id) const;
  /// Live clients in ascending id order (lazily rebuilt after mutations).
  [[nodiscard]] std::span<const NodeId> Clients() const;
  /// Live nodes in DFS post-order over the current topology (children in
  /// Children() order before parents; root last). Lazily rebuilt.
  [[nodiscard]] std::span<const NodeId> PostOrder() const;
  [[nodiscard]] std::uint32_t Depth(NodeId id) const { return depth_[Check(id)]; }
  [[nodiscard]] Distance DistFromRoot(NodeId id) const { return dist_root_[Check(id)]; }
  [[nodiscard]] Requests TotalRequests() const noexcept { return total_requests_; }
  [[nodiscard]] Requests SubtreeRequests(NodeId id) const { return subtree_requests_[Check(id)]; }
  [[nodiscard]] std::uint32_t SubtreeSize(NodeId id) const { return subtree_size_[Check(id)]; }
  /// O(depth(node) - depth(ancestor)) parent walk (no Euler intervals here).
  [[nodiscard]] bool IsAncestorOrSelf(NodeId ancestor, NodeId node) const;
  [[nodiscard]] Distance DistToAncestor(NodeId node, NodeId ancestor) const {
    RPT_REQUIRE(IsAncestorOrSelf(ancestor, node), "TreeOverlay: not an ancestor");
    return dist_root_[node] - dist_root_[ancestor];
  }
  /// Largest depth over live nodes.
  [[nodiscard]] std::uint32_t MaxDepth() const noexcept { return max_depth_; }

  // --- mutators ---
  /// Splices `spec` under live internal `parent`; the new nodes get the ids
  /// [Size(), Size() + spec.nodes.size()) in spec order and append at the
  /// end of the parent's child list. Returns the new subtree root's id.
  NodeId AttachSubtree(NodeId parent, const SubtreeSpec& spec);

  /// Tombstones subtree(root). The parent must keep at least one other live
  /// child; detached clients' demand leaves the totals, and their request
  /// entries become 0. When `removed` is non-null it receives the ids killed
  /// (ascending).
  void DetachSubtree(NodeId root, std::vector<NodeId>* removed = nullptr);

  /// Re-homes subtree(root) under `new_parent` with edge length `new_delta`;
  /// the subtree keeps its ids and internal structure and appends at the end
  /// of the new parent's child list. The old parent must keep a live child;
  /// `new_parent` must not be inside the moved subtree.
  void MigrateSubtree(NodeId root, NodeId new_parent, Distance new_delta);

  /// Reconfigures the edge length of `node`'s parent link (node must be live
  /// and non-root); dist-from-root shifts for the whole subtree.
  void SetLinkDelta(NodeId node, Distance delta);

  /// Demand write-through for a live client; keeps the request column and
  /// every subtree total current.
  void SetRequests(NodeId client, Requests value);

  /// Number of topology mutations applied so far (attach/detach/migrate/
  /// link-delta; SetRequests does not count). 0 means Compact() is the
  /// identity remap.
  [[nodiscard]] std::uint64_t TopologyVersion() const noexcept { return topology_version_; }

  /// Fraction of allocated slots that are tombstones, in [0, 1] — the input
  /// to a caller's compaction trigger policy (see docs/ARCHITECTURE.md).
  [[nodiscard]] double TombstoneFraction() const noexcept {
    return Size() == 0 ? 0.0
                       : static_cast<double>(Size() - live_count_) / static_cast<double>(Size());
  }

  // --- compaction ---
  struct CompactResult {
    Tree tree;
    /// old id -> new id; kInvalidNode for tombstoned slots.
    std::vector<NodeId> remap;
  };

  /// Folds the overlay into a clean CSR Tree (TreeBuilder::Build — parallel
  /// on large trees) carrying the current request column. New ids follow a
  /// greedy min-old-id topological order that preserves per-parent child
  /// order: a never-mutated overlay compacts to the identity remap.
  [[nodiscard]] CompactResult Compact() const;

 private:
  TreeOverlay() = default;

  NodeId Check(NodeId id) const {
    RPT_REQUIRE(id < Size(), "TreeOverlay: node id out of range");
    return id;
  }

  /// Children list of `id` as a mutable vector, materializing the patched
  /// copy from the base CSR on first write.
  std::vector<NodeId>& PatchChildren(NodeId id);
  void RemoveChild(NodeId parent, NodeId child);

  /// Collects subtree(root) in BFS order (root first) into `out`.
  void CollectSubtree(NodeId root, std::vector<NodeId>& out) const;

  /// Adds `size_delta`/`request_delta` to every aggregate on the root path
  /// starting at `node` (inclusive).
  void BumpAggregates(NodeId node, std::int64_t size_delta, std::int64_t request_delta);

  /// Recomputes depth_/dist_root_ for subtree(root) by BFS (root's own
  /// entries must already be correct). Validates the dist bound.
  void RefreshDepths(NodeId root);

  /// Dry-run of RefreshDepths' overflow bound: throws without mutating when
  /// re-rooting subtree(root) at (new_depth, new_dist) would push any
  /// descendant past the distance cap.
  void CheckDistBound(NodeId root, Distance new_dist) const;

  void MarkCachesDirty() noexcept {
    clients_dirty_ = true;
    post_order_dirty_ = true;
  }
  void RecomputeMaxDepth();

  // Flat per-node columns, all sized Size(); dead slots keep stale values
  // that no live traversal reaches, except requests_: a dead slot's entry is
  // 0, so RequestsColumn() is a demand column as it stands (the solver's
  // Demands(), PlacementSnapshot::Build's input).
  std::vector<NodeKind> kind_;
  std::vector<NodeId> parent_;
  std::vector<Distance> delta_;
  std::vector<Requests> requests_;
  std::vector<std::uint8_t> alive_;
  std::vector<std::uint32_t> depth_;
  std::vector<Distance> dist_root_;
  std::vector<Requests> subtree_requests_;
  std::vector<std::uint32_t> subtree_size_;

  // Children: the base CSR is kept verbatim; nodes whose child set changed
  // (and all appended nodes) carry explicit vectors in the patch map.
  std::vector<std::uint32_t> base_children_begin_;  // size base_size_+1
  std::vector<NodeId> base_children_flat_;
  std::size_t base_size_ = 0;
  std::unordered_map<NodeId, std::vector<NodeId>> patched_children_;

  Requests total_requests_ = 0;
  std::size_t live_count_ = 0;
  std::size_t live_client_count_ = 0;
  std::uint32_t max_depth_ = 0;
  std::uint64_t topology_version_ = 0;

  // Lazy caches (rebuilt on demand from the update thread).
  mutable std::vector<NodeId> clients_cache_;
  mutable std::vector<NodeId> post_order_cache_;
  mutable bool clients_dirty_ = true;
  mutable bool post_order_dirty_ = true;
};

}  // namespace rpt
