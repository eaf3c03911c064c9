// Unit tests for the mutable topology layer: TreeOverlay mutators and their
// invariant enforcement, the TopologyView seam, Compact()'s id remapping,
// and FromColumns reconstruction.
#include <gtest/gtest.h>

#include <vector>

#include "tree/topology_view.hpp"
#include "tree/tree.hpp"
#include "tree/tree_overlay.hpp"

namespace rpt {
namespace {

// Same fixture as test_tree.cpp:
//        0 (root)
//       1   2     (children of 0)
//      3 4   5    (3,4 under 1; 5 under 2)
// 3,4,5 are clients; edges: 1->0:2, 2->0:3, 3->1:1, 4->1:4, 5->2:5.
Tree MakeFixture() {
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  const NodeId n1 = b.AddInternal(root, 2);
  const NodeId n2 = b.AddInternal(root, 3);
  b.AddClient(n1, 1, 10);
  b.AddClient(n1, 4, 20);
  b.AddClient(n2, 5, 30);
  return b.Build();
}

SubtreeSpec TwoClientPod(Distance root_delta) {
  // internal -- {client(7 req, delta 1), client(9 req, delta 2)}
  SubtreeSpec spec;
  spec.nodes.push_back({NodeKind::kInternal, 0, root_delta, 0});
  spec.nodes.push_back({NodeKind::kClient, 0, 1, 7});
  spec.nodes.push_back({NodeKind::kClient, 0, 2, 9});
  return spec;
}

// Checks every overlay column against a freshly built tree with the same
// live topology (`expect` built so its node i corresponds to overlay id
// map[i]).
void ExpectMatchesTree(const TreeOverlay& overlay, const Tree& expect,
                       const std::vector<NodeId>& map) {
  ASSERT_EQ(expect.Size(), map.size());
  ASSERT_EQ(overlay.LiveCount(), expect.Size());
  EXPECT_EQ(overlay.TotalRequests(), expect.TotalRequests());
  for (NodeId i = 0; i < expect.Size(); ++i) {
    const NodeId id = map[i];
    ASSERT_TRUE(overlay.IsLive(id));
    EXPECT_EQ(overlay.Kind(id), expect.Kind(i));
    EXPECT_EQ(overlay.RequestsOf(id), expect.RequestsOf(i));
    EXPECT_EQ(overlay.Depth(id), expect.Depth(i)) << "node " << id;
    EXPECT_EQ(overlay.DistFromRoot(id), expect.DistFromRoot(i)) << "node " << id;
    EXPECT_EQ(overlay.SubtreeRequests(id), expect.SubtreeRequests(i)) << "node " << id;
    EXPECT_EQ(overlay.SubtreeSize(id), expect.SubtreeSize(i)) << "node " << id;
    if (i != 0) {
      EXPECT_EQ(overlay.Parent(id), map[expect.Parent(i)]);
      EXPECT_EQ(overlay.DistToParent(id), expect.DistToParent(i));
    }
    const auto overlay_children = overlay.Children(id);
    const auto expect_children = expect.Children(i);
    ASSERT_EQ(overlay_children.size(), expect_children.size()) << "node " << id;
    for (std::size_t c = 0; c < expect_children.size(); ++c) {
      EXPECT_EQ(overlay_children[c], map[expect_children[c]]);
    }
  }
}

TEST(TreeOverlay, CleanOverlayMirrorsBase) {
  const Tree base = MakeFixture();
  const TreeOverlay overlay(base);
  std::vector<NodeId> identity(base.Size());
  for (NodeId i = 0; i < base.Size(); ++i) identity[i] = i;
  ExpectMatchesTree(overlay, base, identity);
  EXPECT_EQ(overlay.TopologyVersion(), 0u);
  EXPECT_EQ(overlay.TombstoneFraction(), 0.0);
  // Lazy caches equal the base columns.
  ASSERT_EQ(overlay.Clients().size(), base.Clients().size());
  for (std::size_t i = 0; i < base.Clients().size(); ++i) {
    EXPECT_EQ(overlay.Clients()[i], base.Clients()[i]);
  }
  ASSERT_EQ(overlay.PostOrder().size(), base.PostOrder().size());
  for (std::size_t i = 0; i < base.PostOrder().size(); ++i) {
    EXPECT_EQ(overlay.PostOrder()[i], base.PostOrder()[i]);
  }
}

TEST(TreeOverlay, AttachSubtreeAppendsAndAggregates) {
  const Tree base = MakeFixture();
  TreeOverlay overlay(base);
  const NodeId pod = overlay.AttachSubtree(2, TwoClientPod(4));
  EXPECT_EQ(pod, 6u);  // appended past the base size
  EXPECT_EQ(overlay.Size(), 9u);
  EXPECT_EQ(overlay.LiveCount(), 9u);
  EXPECT_EQ(overlay.TotalRequests(), 60u + 16u);
  EXPECT_EQ(overlay.SubtreeRequests(2), 30u + 16u);
  EXPECT_EQ(overlay.SubtreeRequests(0), 76u);
  EXPECT_EQ(overlay.SubtreeSize(0), 9u);
  EXPECT_EQ(overlay.Depth(pod), 2u);
  EXPECT_EQ(overlay.DistFromRoot(pod), 3u + 4u);
  EXPECT_EQ(overlay.DistFromRoot(8), 7u + 2u);
  // The pod root appends at the END of node 2's child list.
  ASSERT_EQ(overlay.Children(2).size(), 2u);
  EXPECT_EQ(overlay.Children(2)[0], 5u);
  EXPECT_EQ(overlay.Children(2)[1], pod);

  // Same live topology built from scratch.
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  const NodeId n1 = b.AddInternal(root, 2);
  const NodeId n2 = b.AddInternal(root, 3);
  b.AddClient(n1, 1, 10);
  b.AddClient(n1, 4, 20);
  b.AddClient(n2, 5, 30);
  const NodeId p = b.AddInternal(n2, 4);
  b.AddClient(p, 1, 7);
  b.AddClient(p, 2, 9);
  ExpectMatchesTree(overlay, b.Build(), {0, 1, 2, 3, 4, 5, 6, 7, 8});
}

TEST(TreeOverlay, DetachSubtreeTombstones) {
  const Tree base = MakeFixture();
  TreeOverlay overlay(base);
  std::vector<NodeId> removed;
  overlay.DetachSubtree(1, &removed);
  EXPECT_EQ(removed, (std::vector<NodeId>{1, 3, 4}));
  EXPECT_FALSE(overlay.IsLive(1));
  EXPECT_FALSE(overlay.IsLive(3));
  EXPECT_FALSE(overlay.IsLive(4));
  EXPECT_EQ(overlay.LiveCount(), 3u);
  EXPECT_EQ(overlay.ClientCount(), 1u);
  // A dead slot carries no demand: the request column stays a demand column.
  for (const NodeId id : removed) EXPECT_EQ(overlay.RequestsColumn()[id], 0u) << id;
  EXPECT_EQ(overlay.TotalRequests(), 30u);
  EXPECT_EQ(overlay.SubtreeRequests(0), 30u);
  EXPECT_EQ(overlay.SubtreeSize(0), 3u);
  ASSERT_EQ(overlay.Children(0).size(), 1u);
  EXPECT_EQ(overlay.Children(0)[0], 2u);
  EXPECT_NEAR(overlay.TombstoneFraction(), 0.5, 1e-12);
  // Caches skip the dead.
  EXPECT_EQ(overlay.Clients().size(), 1u);
  EXPECT_EQ(overlay.PostOrder().size(), 3u);
  EXPECT_EQ(overlay.PostOrder().back(), 0u);
  // Dead nodes reject further mutation.
  EXPECT_THROW(overlay.SetRequests(3, 1), InvalidArgument);
  EXPECT_THROW(overlay.DetachSubtree(1), InvalidArgument);
}

TEST(TreeOverlay, DetachRejectsOrphaningAndRoot) {
  const Tree base = MakeFixture();
  TreeOverlay overlay(base);
  EXPECT_THROW(overlay.DetachSubtree(0), InvalidArgument);  // the root itself
  // Node 5 is node 2's only child: removing it would orphan internal node 2.
  EXPECT_THROW(overlay.DetachSubtree(5), InvalidArgument);
  // Detaching node 2 (with its only child) instead is legal.
  overlay.DetachSubtree(2);
  EXPECT_EQ(overlay.LiveCount(), 4u);
  // ...after which node 1's subtree is the root's last child.
  EXPECT_THROW(overlay.DetachSubtree(1), InvalidArgument);
}

TEST(TreeOverlay, MigrateSubtreeReparents) {
  const Tree base = MakeFixture();
  TreeOverlay overlay(base);
  overlay.MigrateSubtree(4, 2, 6);  // client 4 re-homes under node 2
  EXPECT_EQ(overlay.Parent(4), 2u);
  EXPECT_EQ(overlay.DistToParent(4), 6u);
  EXPECT_EQ(overlay.DistFromRoot(4), 3u + 6u);
  EXPECT_EQ(overlay.SubtreeRequests(1), 10u);
  EXPECT_EQ(overlay.SubtreeRequests(2), 50u);
  EXPECT_EQ(overlay.SubtreeSize(1), 2u);
  EXPECT_EQ(overlay.SubtreeSize(2), 3u);
  EXPECT_EQ(overlay.TotalRequests(), 60u);
  ASSERT_EQ(overlay.Children(2).size(), 2u);
  EXPECT_EQ(overlay.Children(2)[0], 5u);
  EXPECT_EQ(overlay.Children(2)[1], 4u);  // appended at the end

  TreeBuilder b;
  const NodeId root = b.AddRoot();
  const NodeId n1 = b.AddInternal(root, 2);
  const NodeId n2 = b.AddInternal(root, 3);
  b.AddClient(n1, 1, 10);
  b.AddClient(n2, 5, 30);
  b.AddClient(n2, 6, 20);
  // expect ids: 0,1,2 as-is; 3 -> 3; 4 (under n2, 5) -> overlay 5; 5 -> overlay 4
  ExpectMatchesTree(overlay, b.Build(), {0, 1, 2, 3, 5, 4});
}

TEST(TreeOverlay, MigrateRejectsCyclesAndOrphans) {
  const Tree base = MakeFixture();
  TreeOverlay overlay(base);
  // New parent inside the moved subtree → cycle.
  EXPECT_THROW(overlay.MigrateSubtree(1, 1, 1), InvalidArgument);
  // Node 5 is node 2's only child.
  EXPECT_THROW(overlay.MigrateSubtree(5, 1, 1), InvalidArgument);
  // Clients cannot adopt.
  EXPECT_THROW(overlay.MigrateSubtree(4, 3, 1), InvalidArgument);
  // The root cannot move.
  EXPECT_THROW(overlay.MigrateSubtree(0, 1, 1), InvalidArgument);
  // Migrating node 2 under node 1 is legal and drags its subtree's depths.
  overlay.MigrateSubtree(2, 1, 7);
  EXPECT_EQ(overlay.Depth(2), 2u);
  EXPECT_EQ(overlay.Depth(5), 3u);
  EXPECT_EQ(overlay.DistFromRoot(5), 2u + 7u + 5u);
  EXPECT_EQ(overlay.SubtreeSize(0), 6u);
  ASSERT_EQ(overlay.Children(0).size(), 1u);
}

TEST(TreeOverlay, SetLinkDeltaShiftsSubtreeDistances) {
  const Tree base = MakeFixture();
  TreeOverlay overlay(base);
  overlay.SetLinkDelta(1, 9);
  EXPECT_EQ(overlay.DistToParent(1), 9u);
  EXPECT_EQ(overlay.DistFromRoot(1), 9u);
  EXPECT_EQ(overlay.DistFromRoot(3), 10u);
  EXPECT_EQ(overlay.DistFromRoot(4), 13u);
  EXPECT_EQ(overlay.Depth(3), 2u);  // depth untouched
  EXPECT_THROW(overlay.SetLinkDelta(0, 1), InvalidArgument);
  EXPECT_THROW(overlay.SetLinkDelta(1, kDistanceCap + 1), InvalidArgument);
}

TEST(TreeOverlay, SetRequestsMaintainsChainTotals) {
  const Tree base = MakeFixture();
  TreeOverlay overlay(base);
  overlay.SetRequests(3, 25);
  EXPECT_EQ(overlay.RequestsOf(3), 25u);
  EXPECT_EQ(overlay.SubtreeRequests(1), 45u);
  EXPECT_EQ(overlay.SubtreeRequests(0), 75u);
  EXPECT_EQ(overlay.TotalRequests(), 75u);
  overlay.SetRequests(3, 0);
  EXPECT_EQ(overlay.SubtreeRequests(1), 20u);
  EXPECT_EQ(overlay.TotalRequests(), 50u);
  EXPECT_THROW(overlay.SetRequests(1, 5), InvalidArgument);  // internal
}

TEST(TreeOverlay, CompactOnCleanOverlayIsIdentity) {
  const Tree base = MakeFixture();
  TreeOverlay overlay(base);
  // Demand writes are not topology: the remap stays the identity and the
  // compacted tree carries the new demand and its re-aggregated totals.
  overlay.SetRequests(3, 25);
  overlay.SetRequests(5, 0);
  ASSERT_EQ(overlay.TopologyVersion(), 0u);
  const auto [tree, remap] = overlay.Compact();
  ASSERT_EQ(tree.Size(), base.Size());
  EXPECT_EQ(tree.TotalRequests(), 45u);
  for (NodeId i = 0; i < base.Size(); ++i) {
    EXPECT_EQ(remap[i], i);
    EXPECT_EQ(tree.Kind(i), base.Kind(i));
    EXPECT_EQ(tree.Parent(i), base.Parent(i));
    EXPECT_EQ(tree.DistToParent(i), base.DistToParent(i));
    EXPECT_EQ(tree.RequestsOf(i), overlay.RequestsOf(i));
    EXPECT_EQ(tree.SubtreeRequests(i), overlay.SubtreeRequests(i));
  }
}

TEST(TreeOverlay, CompactAfterMutationsPreservesStructure) {
  const Tree base = MakeFixture();
  TreeOverlay overlay(base);
  overlay.AttachSubtree(2, TwoClientPod(4));
  overlay.DetachSubtree(1);
  overlay.MigrateSubtree(6, 0, 11);
  // Live topology now: 0 -- {2 -- {5}, 6 -- {7, 8}} with 6 re-homed last.
  const auto [tree, remap] = overlay.Compact();
  ASSERT_EQ(tree.Size(), overlay.LiveCount());
  EXPECT_EQ(remap[1], kInvalidNode);
  EXPECT_EQ(remap[3], kInvalidNode);
  EXPECT_EQ(remap[4], kInvalidNode);
  for (const NodeId old_id : {0u, 2u, 5u, 6u, 7u, 8u}) {
    const NodeId new_id = remap[old_id];
    ASSERT_NE(new_id, kInvalidNode);
    EXPECT_EQ(tree.Kind(new_id), overlay.Kind(old_id));
    EXPECT_EQ(tree.DistFromRoot(new_id), overlay.DistFromRoot(old_id));
    EXPECT_EQ(tree.Depth(new_id), overlay.Depth(old_id));
    EXPECT_EQ(tree.RequestsOf(new_id), overlay.RequestsOf(old_id));
    EXPECT_EQ(tree.SubtreeRequests(new_id), overlay.SubtreeRequests(old_id));
    EXPECT_EQ(tree.SubtreeSize(new_id), overlay.SubtreeSize(old_id));
    if (old_id != 0) {
      EXPECT_EQ(tree.Parent(new_id), remap[overlay.Parent(old_id)]);
    }
  }
  // Child order survives: root's children are [2, 6] in overlay order.
  ASSERT_EQ(tree.Children(0).size(), 2u);
  EXPECT_EQ(tree.Children(0)[0], remap[2]);
  EXPECT_EQ(tree.Children(0)[1], remap[6]);
  EXPECT_EQ(tree.TotalRequests(), overlay.TotalRequests());
}

TEST(TreeOverlay, FromColumnsRoundTripsMutatedOverlay) {
  const Tree base = MakeFixture();
  TreeOverlay overlay(base);
  overlay.AttachSubtree(2, TwoClientPod(4));
  overlay.DetachSubtree(1);
  overlay.MigrateSubtree(6, 0, 11);

  const std::size_t n = overlay.Size();
  std::vector<NodeKind> kind(n);
  std::vector<NodeId> parent(n);
  std::vector<Distance> delta(n);
  std::vector<Requests> requests(n);
  std::vector<std::uint8_t> alive(n, 0);
  std::vector<std::uint32_t> rank(n, 0);
  for (NodeId id = 0; id < n; ++id) {
    kind[id] = overlay.Kind(id);
    parent[id] = id == 0 ? kInvalidNode : overlay.Parent(id);
    delta[id] = overlay.DistToParent(id);
    requests[id] = overlay.RequestsOf(id);
    alive[id] = overlay.IsLive(id) ? 1 : 0;
    const auto children = overlay.Children(id);
    for (std::size_t i = 0; i < children.size(); ++i) {
      rank[children[i]] = static_cast<std::uint32_t>(i);
    }
  }
  // A stale request on a dead client slot is stored as 0.
  ASSERT_FALSE(overlay.IsLive(3));
  requests[3] = 99;
  const TreeOverlay restored =
      TreeOverlay::FromColumns(kind, parent, delta, requests, alive, rank);
  ASSERT_EQ(restored.Size(), overlay.Size());
  ASSERT_EQ(restored.LiveCount(), overlay.LiveCount());
  EXPECT_EQ(restored.TotalRequests(), overlay.TotalRequests());
  for (NodeId id = 0; id < n; ++id) {
    ASSERT_EQ(restored.IsLive(id), overlay.IsLive(id));
    if (!overlay.IsLive(id)) {
      EXPECT_EQ(restored.RequestsOf(id), 0u) << id;
      continue;
    }
    EXPECT_EQ(restored.Depth(id), overlay.Depth(id));
    EXPECT_EQ(restored.DistFromRoot(id), overlay.DistFromRoot(id));
    EXPECT_EQ(restored.SubtreeRequests(id), overlay.SubtreeRequests(id));
    EXPECT_EQ(restored.SubtreeSize(id), overlay.SubtreeSize(id));
    const auto a = restored.Children(id);
    const auto b = overlay.Children(id);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(TreeOverlay, FromColumnsRejectsBrokenStructure) {
  const std::vector<NodeKind> kind{NodeKind::kInternal, NodeKind::kClient, NodeKind::kClient};
  const std::vector<NodeId> parent{kInvalidNode, 0, 0};
  const std::vector<Distance> delta{kNoDistanceLimit, 1, 2};
  const std::vector<Requests> requests{0, 5, 6};
  const std::vector<std::uint8_t> alive{1, 1, 1};
  const std::vector<std::uint32_t> rank{0, 0, 1};
  // Sanity: the clean version parses.
  (void)TreeOverlay::FromColumns(kind, parent, delta, requests, alive, rank);

  {  // dead parent of a live child
    std::vector<std::uint8_t> bad = alive;
    bad[0] = 0;
    EXPECT_THROW((void)TreeOverlay::FromColumns(kind, parent, delta, requests, bad, rank),
                 InvalidArgument);
  }
  {  // duplicate ranks
    std::vector<std::uint32_t> bad = rank;
    bad[2] = 0;
    EXPECT_THROW((void)TreeOverlay::FromColumns(kind, parent, delta, requests, alive, bad),
                 InvalidArgument);
  }
  {  // parent cycle between live nodes 1 and 2
    const std::vector<NodeKind> k2{NodeKind::kInternal, NodeKind::kInternal, NodeKind::kInternal,
                                   NodeKind::kClient};
    const std::vector<NodeId> p2{kInvalidNode, 2, 1, 0};
    const std::vector<Distance> d2{kNoDistanceLimit, 1, 1, 1};
    const std::vector<Requests> r2{0, 0, 0, 3};
    const std::vector<std::uint8_t> a2{1, 1, 1, 1};
    const std::vector<std::uint32_t> rk2{0, 0, 0, 0};
    EXPECT_THROW((void)TreeOverlay::FromColumns(k2, p2, d2, r2, a2, rk2), InvalidArgument);
  }
}

TEST(TreeOverlay, AttachValidationIsAtomic) {
  const Tree base = MakeFixture();
  TreeOverlay overlay(base);
  // Spec with an internal node that has no children → rejected whole.
  SubtreeSpec bad;
  bad.nodes.push_back({NodeKind::kInternal, 0, 1, 0});
  bad.nodes.push_back({NodeKind::kInternal, 0, 1, 0});  // left childless
  bad.nodes.push_back({NodeKind::kClient, 0, 1, 4});
  EXPECT_THROW(overlay.AttachSubtree(2, bad), InvalidArgument);
  EXPECT_EQ(overlay.Size(), base.Size());
  EXPECT_EQ(overlay.TopologyVersion(), 0u);
  // Attach under a client → rejected.
  EXPECT_THROW(overlay.AttachSubtree(3, SubtreeSpec::SingleClient(1, 1)), InvalidArgument);
  // Attach under a dead node → rejected.
  overlay.DetachSubtree(1);
  EXPECT_THROW(overlay.AttachSubtree(1, SubtreeSpec::SingleClient(1, 1)), InvalidArgument);
}

TEST(TopologyView, BaseAndOverlayDispatch) {
  const Tree base = MakeFixture();
  const TreeOverlay overlay(base);
  const TopologyView base_view(base);
  const TopologyView overlay_view(overlay);
  EXPECT_FALSE(base_view.IsOverlay());
  EXPECT_TRUE(overlay_view.IsOverlay());
  for (const TopologyView& view : {base_view, overlay_view}) {
    EXPECT_EQ(view.Size(), base.Size());
    EXPECT_EQ(view.LiveCount(), base.Size());
    EXPECT_EQ(view.ClientCount(), base.ClientCount());
    EXPECT_EQ(view.TotalRequests(), base.TotalRequests());
    for (NodeId id = 0; id < base.Size(); ++id) {
      EXPECT_TRUE(view.IsLive(id));
      EXPECT_EQ(view.Kind(id), base.Kind(id));
      EXPECT_EQ(view.Depth(id), base.Depth(id));
      EXPECT_EQ(view.DistFromRoot(id), base.DistFromRoot(id));
      EXPECT_EQ(view.SubtreeRequests(id), base.SubtreeRequests(id));
    }
    EXPECT_TRUE(view.IsAncestorOrSelf(1, 4));
    EXPECT_FALSE(view.IsAncestorOrSelf(2, 4));
    EXPECT_EQ(view.DistToAncestor(4, 0), 6u);
  }
  EXPECT_THROW((void)base_view.IsLive(99), InvalidArgument);
  EXPECT_THROW((void)overlay_view.IsLive(99), InvalidArgument);
}

}  // namespace
}  // namespace rpt
