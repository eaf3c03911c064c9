// TopologyView — the one seam between the solvers and the two topology
// representations: the immutable CSR `Tree` (tree.hpp) and the mutable
// delta `TreeOverlay` (tree_overlay.hpp).
//
// A view is two pointers and a branch: every accessor forwards to whichever
// backend is bound, under Tree's exact names and semantics. Solver code
// written against TopologyView runs unchanged over both; the base-Tree path
// stays allocation-free and byte-identical to calling the Tree directly
// (the branch predicts perfectly — a view never rebinds mid-solve).
//
// Differences a solver must tolerate only when an overlay is bound:
//  * ids may be dead — guard traversals with IsLive()/LiveCount() (over a
//    base Tree every id is live and IsLive is constant-true);
//  * Clients()/PostOrder() cover live nodes only and are lazily rebuilt
//    after overlay mutations — first access after a mutation must come from
//    the update thread (parallel sweeps never touch them; see
//    docs/ARCHITECTURE.md "Topology overlay");
//  * IsAncestorOrSelf is O(depth) on the overlay (no Euler intervals) vs
//    O(1) on the base.
//
// The view does not own its backend; the caller keeps the Tree/TreeOverlay
// alive for the view's lifetime. Trivially copyable — pass by value.
#pragma once

#include <span>

#include "tree/tree.hpp"
#include "tree/tree_overlay.hpp"

namespace rpt {

class TopologyView {
 public:
  // Implicit by design: every solver entry point that took `const Tree&`
  // keeps compiling (and gains overlay support) without call-site edits.
  TopologyView(const Tree& tree) noexcept : tree_(&tree) {}             // NOLINT
  TopologyView(const TreeOverlay& overlay) noexcept : overlay_(&overlay) {}  // NOLINT

  [[nodiscard]] bool IsOverlay() const noexcept { return overlay_ != nullptr; }

  [[nodiscard]] NodeId Root() const noexcept { return 0; }
  [[nodiscard]] std::size_t Size() const noexcept {
    return tree_ != nullptr ? tree_->Size() : overlay_->Size();
  }
  /// Number of live nodes (== Size() over a base Tree).
  [[nodiscard]] std::size_t LiveCount() const noexcept {
    return tree_ != nullptr ? tree_->Size() : overlay_->LiveCount();
  }
  [[nodiscard]] std::size_t ClientCount() const noexcept {
    return tree_ != nullptr ? tree_->ClientCount() : overlay_->ClientCount();
  }
  [[nodiscard]] bool IsLive(NodeId id) const {
    if (tree_ != nullptr) {
      (void)tree_->Kind(id);  // same bounds check as every other accessor
      return true;
    }
    return overlay_->IsLive(id);
  }
  [[nodiscard]] NodeKind Kind(NodeId id) const {
    return tree_ != nullptr ? tree_->Kind(id) : overlay_->Kind(id);
  }
  [[nodiscard]] bool IsClient(NodeId id) const { return Kind(id) == NodeKind::kClient; }
  [[nodiscard]] Requests RequestsOf(NodeId id) const {
    return tree_ != nullptr ? tree_->RequestsOf(id) : overlay_->RequestsOf(id);
  }
  [[nodiscard]] std::span<const Requests> RequestsColumn() const noexcept {
    return tree_ != nullptr ? tree_->RequestsColumn() : overlay_->RequestsColumn();
  }
  [[nodiscard]] NodeId Parent(NodeId id) const {
    return tree_ != nullptr ? tree_->Parent(id) : overlay_->Parent(id);
  }
  [[nodiscard]] Distance DistToParent(NodeId id) const {
    return tree_ != nullptr ? tree_->DistToParent(id) : overlay_->DistToParent(id);
  }
  [[nodiscard]] std::span<const NodeId> Children(NodeId id) const {
    return tree_ != nullptr ? tree_->Children(id) : overlay_->Children(id);
  }
  [[nodiscard]] std::span<const NodeId> Clients() const {
    return tree_ != nullptr ? tree_->Clients() : overlay_->Clients();
  }
  [[nodiscard]] std::span<const NodeId> PostOrder() const {
    return tree_ != nullptr ? tree_->PostOrder() : overlay_->PostOrder();
  }
  [[nodiscard]] std::uint32_t Depth(NodeId id) const {
    return tree_ != nullptr ? tree_->Depth(id) : overlay_->Depth(id);
  }
  [[nodiscard]] Distance DistFromRoot(NodeId id) const {
    return tree_ != nullptr ? tree_->DistFromRoot(id) : overlay_->DistFromRoot(id);
  }
  [[nodiscard]] bool IsAncestorOrSelf(NodeId ancestor, NodeId node) const {
    return tree_ != nullptr ? tree_->IsAncestorOrSelf(ancestor, node)
                            : overlay_->IsAncestorOrSelf(ancestor, node);
  }
  [[nodiscard]] Distance DistToAncestor(NodeId node, NodeId ancestor) const {
    return tree_ != nullptr ? tree_->DistToAncestor(node, ancestor)
                            : overlay_->DistToAncestor(node, ancestor);
  }
  [[nodiscard]] Requests TotalRequests() const noexcept {
    return tree_ != nullptr ? tree_->TotalRequests() : overlay_->TotalRequests();
  }
  [[nodiscard]] Requests SubtreeRequests(NodeId id) const {
    return tree_ != nullptr ? tree_->SubtreeRequests(id) : overlay_->SubtreeRequests(id);
  }
  [[nodiscard]] std::uint32_t SubtreeSize(NodeId id) const {
    return tree_ != nullptr ? tree_->SubtreeSize(id) : overlay_->SubtreeSize(id);
  }

 private:
  const Tree* tree_ = nullptr;
  const TreeOverlay* overlay_ = nullptr;
};

}  // namespace rpt
