#include "tree/tree.hpp"

#include <algorithm>

namespace rpt {

void TreeBuilder::Reserve(std::size_t node_count) {
  kind_.reserve(node_count);
  parent_.reserve(node_count);
  delta_.reserve(node_count);
  requests_.reserve(node_count);
}

NodeId TreeBuilder::AddRoot() {
  RPT_REQUIRE(kind_.empty(), "TreeBuilder: root must be the first node");
  return AddNode(kInvalidNode, kNoDistanceLimit, NodeKind::kInternal, 0);
}

NodeId TreeBuilder::AddInternal(NodeId parent, Distance delta) {
  return AddNode(parent, delta, NodeKind::kInternal, 0);
}

NodeId TreeBuilder::AddClient(NodeId parent, Distance delta, Requests requests) {
  return AddNode(parent, delta, NodeKind::kClient, requests);
}

NodeId TreeBuilder::AddNode(NodeId parent, Distance delta, NodeKind kind, Requests requests) {
  if (parent != kInvalidNode) {
    RPT_REQUIRE(parent < kind_.size(), "TreeBuilder: unknown parent id");
    RPT_REQUIRE(kind_[parent] == NodeKind::kInternal, "TreeBuilder: parent must be internal");
    RPT_REQUIRE(delta <= kDistanceCap || delta == kNoDistanceLimit,
                "TreeBuilder: edge length exceeds kDistanceCap");
  } else {
    RPT_REQUIRE(kind_.empty(), "TreeBuilder: only the root has no parent");
  }
  const auto id = static_cast<NodeId>(kind_.size());
  RPT_REQUIRE(kind_.size() < kInvalidNode, "TreeBuilder: too many nodes");
  kind_.push_back(kind);
  parent_.push_back(parent);
  delta_.push_back(delta);
  requests_.push_back(requests);
  if (kind == NodeKind::kClient) ++client_count_;
  return id;
}

Tree TreeBuilder::Build() {
  RPT_REQUIRE(!kind_.empty(), "TreeBuilder: empty tree");
  const std::size_t n = kind_.size();

  Tree tree;
  tree.kind_ = std::move(kind_);
  tree.parent_ = std::move(parent_);
  tree.delta_ = std::move(delta_);
  tree.requests_ = std::move(requests_);

  DeriveSerial(tree, n, client_count_);
  client_count_ = 0;
  return tree;
}

void TreeBuilder::DeriveSerial(Tree& tree, std::size_t n, std::size_t client_count) {
  // CSR children layout by counting sort over the parent column. Scattering
  // ids in increasing order reproduces per-parent insertion order, because
  // AddNode appends children in id order. AddNode already rejects client
  // parents, so only the non-root-internal-must-have-children check remains.
  tree.children_begin_.assign(n + 1, 0);
  for (std::size_t id = 1; id < n; ++id) {
    ++tree.children_begin_[static_cast<std::size_t>(tree.parent_[id]) + 1];
  }
  for (std::size_t id = 0; id < n; ++id) {
    if (tree.kind_[id] == NodeKind::kInternal && id != 0) {
      RPT_REQUIRE(tree.children_begin_[id + 1] != 0,
                  "TreeBuilder: non-root internal node without children");
    }
    tree.children_begin_[id + 1] += tree.children_begin_[id];
  }
  tree.children_flat_.resize(n - 1);
  {
    std::vector<std::uint32_t> cursor(tree.children_begin_.begin(),
                                      tree.children_begin_.end() - 1);
    for (std::size_t id = 1; id < n; ++id) {
      tree.children_flat_[cursor[tree.parent_[id]]++] = static_cast<NodeId>(id);
    }
  }

  // Derived per-node data. AddNode guarantees a parent exists before its
  // children (parent id < child id), so the tree is connected by
  // construction and every derived column falls out of flat sequential
  // passes — no DFS anywhere:
  //  * forward id pass: depth, root distance, arity, client list;
  //  * reverse id pass: subtree sizes and request totals (children fold
  //    into parents bottom-up);
  //  * forward id pass: Euler intervals, because the DFS clock is fully
  //    determined by subtree sizes — the first child enters at tin+1 and
  //    each next sibling at the previous sibling's tout+1, with
  //    tout = tin + 2*subtree_size - 1;
  //  * clock scan: post-order is the nodes sorted by tout, recovered by
  //    bucketing touts over the 2n Euler clock ticks.
  // The resulting tin/tout/post-order match the classic iterative DFS tick
  // for tick.
  tree.depth_.assign(n, 0);
  tree.dist_root_.assign(n, 0);
  tree.clients_.clear();
  tree.clients_.reserve(client_count);
  tree.arity_ = 0;
  tree.total_requests_ = 0;
  for (std::size_t id = 0; id < n; ++id) {
    if (id != 0) {
      const NodeId parent = tree.parent_[id];
      tree.depth_[id] = tree.depth_[parent] + 1;
      tree.dist_root_[id] = tree.dist_root_[parent] + tree.delta_[id];
      RPT_REQUIRE(tree.dist_root_[id] < kNoDistanceLimit / 2,
                  "TreeBuilder: root distance overflow");
    }
    tree.arity_ = std::max(tree.arity_, tree.children_begin_[id + 1] - tree.children_begin_[id]);
    if (tree.kind_[id] == NodeKind::kClient) {
      tree.clients_.push_back(static_cast<NodeId>(id));
      tree.total_requests_ += tree.requests_[id];
    }
  }

  tree.subtree_requests_.assign(n, 0);
  tree.subtree_size_.assign(n, 1);
  for (std::size_t id = n; id-- > 1;) {
    const NodeId parent = tree.parent_[id];
    if (tree.kind_[id] == NodeKind::kClient) tree.subtree_requests_[id] += tree.requests_[id];
    tree.subtree_requests_[parent] += tree.subtree_requests_[id];
    tree.subtree_size_[parent] += tree.subtree_size_[id];
  }
  if (tree.kind_[0] == NodeKind::kClient) tree.subtree_requests_[0] += tree.requests_[0];

  tree.tin_.assign(n, 0);
  for (std::size_t id = 0; id < n; ++id) {
    std::uint32_t clock = tree.tin_[id] + 1;
    for (std::uint32_t slot = tree.children_begin_[id]; slot < tree.children_begin_[id + 1];
         ++slot) {
      const NodeId child = tree.children_flat_[slot];
      tree.tin_[child] = clock;
      clock += 2 * tree.subtree_size_[child];
    }
  }

  // Post-order position from the Euler clock: when a node exits, the ticks
  // spent so far are two per already-exited node (its tin and tout), one per
  // open ancestor (its tin), and the node's own tin — so
  // tout = 2*post_index + depth + 1.
  tree.post_order_.resize(n);
  for (std::size_t id = 0; id < n; ++id) {
    tree.post_order_[(tree.Tout(static_cast<NodeId>(id)) - tree.depth_[id] - 1) / 2] =
        static_cast<NodeId>(id);
  }
}

SubtreeSlice Tree::SliceSubtree(NodeId root) const {
  Check(root);
  RPT_REQUIRE(!IsClient(root), "Tree::SliceSubtree: slice root must be an internal node");
  // Collect the subtree's global ids, ascending. A DFS from `root` visits
  // exactly SubtreeSize(root) nodes; sorting makes the local→global map
  // monotone, which preserves parent<child ids and ascending child order.
  std::vector<NodeId> members;
  members.reserve(subtree_size_[root]);
  std::vector<NodeId> stack{root};
  while (!stack.empty()) {
    const NodeId node = stack.back();
    stack.pop_back();
    members.push_back(node);
    const auto kids = Children(node);
    stack.insert(stack.end(), kids.begin(), kids.end());
  }
  RPT_CHECK(members.size() == subtree_size_[root]);
  std::sort(members.begin(), members.end());

  TreeBuilder builder;
  builder.Reserve(members.size());
  builder.AddRoot();
  for (std::size_t local = 1; local < members.size(); ++local) {
    const NodeId global = members[local];
    // The parent's local id is its rank among members — a binary search,
    // valid because every ancestor of a member up to `root` is a member.
    const NodeId parent_global = parent_[global];
    const auto it = std::lower_bound(members.begin(), members.end(), parent_global);
    RPT_CHECK(it != members.end() && *it == parent_global);
    const auto parent_local = static_cast<NodeId>(it - members.begin());
    if (kind_[global] == NodeKind::kClient) {
      builder.AddClient(parent_local, delta_[global], requests_[global]);
    } else {
      builder.AddInternal(parent_local, delta_[global]);
    }
  }
  return SubtreeSlice{builder.Build(), std::move(members)};
}

}  // namespace rpt
