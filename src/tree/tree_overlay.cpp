#include "tree/tree_overlay.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>

namespace rpt {

namespace {

// Mutators validate the same bound TreeBuilder enforces, so Compact() can
// never fail structurally.
constexpr Distance kDistRootBound = kNoDistanceLimit / 2;

}  // namespace

TreeOverlay::TreeOverlay(const Tree& base) {
  const std::size_t n = base.Size();
  kind_.resize(n);
  parent_.resize(n);
  delta_.resize(n);
  requests_.resize(n);
  alive_.assign(n, 1);
  depth_.resize(n);
  dist_root_.resize(n);
  subtree_requests_.resize(n);
  subtree_size_.resize(n);
  base_children_begin_.resize(n + 1);
  base_children_flat_.resize(n == 0 ? 0 : n - 1);
  base_size_ = n;

  std::uint32_t flat = 0;
  for (NodeId id = 0; id < n; ++id) {
    kind_[id] = base.Kind(id);
    parent_[id] = base.Parent(id);
    delta_[id] = base.DistToParent(id);
    requests_[id] = base.RequestsOf(id);
    depth_[id] = base.Depth(id);
    dist_root_[id] = base.DistFromRoot(id);
    subtree_requests_[id] = base.SubtreeRequests(id);
    subtree_size_[id] = base.SubtreeSize(id);
    base_children_begin_[id] = flat;
    for (const NodeId child : base.Children(id)) base_children_flat_[flat++] = child;
    max_depth_ = std::max(max_depth_, depth_[id]);
  }
  base_children_begin_[n] = flat;
  total_requests_ = base.TotalRequests();
  live_count_ = n;
  live_client_count_ = base.ClientCount();
}

std::span<const NodeId> TreeOverlay::Children(NodeId id) const {
  Check(id);
  if (const auto it = patched_children_.find(id); it != patched_children_.end()) {
    return it->second;
  }
  if (id < base_size_) {
    return {base_children_flat_.data() + base_children_begin_[id],
            base_children_flat_.data() + base_children_begin_[id + 1]};
  }
  return {};  // appended leaf: never had children, never patched
}

std::vector<NodeId>& TreeOverlay::PatchChildren(NodeId id) {
  const auto it = patched_children_.find(id);
  if (it != patched_children_.end()) return it->second;
  std::vector<NodeId>& list = patched_children_[id];
  if (id < base_size_) {
    list.assign(base_children_flat_.begin() + base_children_begin_[id],
                base_children_flat_.begin() + base_children_begin_[id + 1]);
  }
  return list;
}

void TreeOverlay::RemoveChild(NodeId parent, NodeId child) {
  std::vector<NodeId>& list = PatchChildren(parent);
  const auto it = std::find(list.begin(), list.end(), child);
  RPT_CHECK(it != list.end());
  list.erase(it);
}

std::span<const NodeId> TreeOverlay::Clients() const {
  if (clients_dirty_) {
    clients_cache_.clear();
    clients_cache_.reserve(live_client_count_);
    for (NodeId id = 0; id < Size(); ++id) {
      if (alive_[id] != 0 && kind_[id] == NodeKind::kClient) clients_cache_.push_back(id);
    }
    clients_dirty_ = false;
  }
  return clients_cache_;
}

std::span<const NodeId> TreeOverlay::PostOrder() const {
  if (post_order_dirty_) {
    post_order_cache_.clear();
    post_order_cache_.reserve(live_count_);
    // Iterative DFS; a frame is (node, next child slot to descend into).
    std::vector<std::pair<NodeId, std::uint32_t>> stack;
    stack.emplace_back(Root(), 0);
    while (!stack.empty()) {
      auto& [node, slot] = stack.back();
      const std::span<const NodeId> children = Children(node);
      if (slot < children.size()) {
        stack.emplace_back(children[slot++], 0);
      } else {
        post_order_cache_.push_back(node);
        stack.pop_back();
      }
    }
    post_order_dirty_ = false;
  }
  return post_order_cache_;
}

bool TreeOverlay::IsAncestorOrSelf(NodeId ancestor, NodeId node) const {
  Check(ancestor);
  Check(node);
  RPT_REQUIRE(alive_[ancestor] != 0 && alive_[node] != 0,
              "TreeOverlay: ancestor test on a dead node");
  // Depths are maintained eagerly, so the walk can stop early.
  while (depth_[node] > depth_[ancestor]) node = parent_[node];
  return node == ancestor;
}

void TreeOverlay::CollectSubtree(NodeId root, std::vector<NodeId>& out) const {
  out.clear();
  out.push_back(root);
  for (std::size_t head = 0; head < out.size(); ++head) {
    for (const NodeId child : Children(out[head])) out.push_back(child);
  }
}

void TreeOverlay::BumpAggregates(NodeId node, std::int64_t size_delta,
                                 std::int64_t request_delta) {
  for (NodeId at = node;; at = parent_[at]) {
    subtree_size_ [at] = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(subtree_size_[at]) + size_delta);
    subtree_requests_[at] = static_cast<Requests>(
        static_cast<std::int64_t>(subtree_requests_[at]) + request_delta);
    if (at == Root()) break;
  }
}

void TreeOverlay::CheckDistBound(NodeId root, Distance new_dist) const {
  RPT_REQUIRE(new_dist < kDistRootBound, "TreeOverlay: root distance overflow");
  std::vector<std::pair<NodeId, Distance>> queue;
  queue.emplace_back(root, new_dist);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto [node, dist] = queue[head];
    for (const NodeId child : Children(node)) {
      const Distance child_dist = dist + delta_[child];
      RPT_REQUIRE(child_dist < kDistRootBound, "TreeOverlay: root distance overflow");
      queue.emplace_back(child, child_dist);
    }
  }
}

void TreeOverlay::RefreshDepths(NodeId root) {
  std::vector<NodeId> queue{root};
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId node = queue[head];
    for (const NodeId child : Children(node)) {
      depth_[child] = depth_[node] + 1;
      dist_root_[child] = dist_root_[node] + delta_[child];
      RPT_CHECK(dist_root_[child] < kDistRootBound);  // CheckDistBound ran first
      queue.push_back(child);
    }
  }
}

void TreeOverlay::RecomputeMaxDepth() {
  max_depth_ = 0;
  for (NodeId id = 0; id < Size(); ++id) {
    if (alive_[id] != 0) max_depth_ = std::max(max_depth_, depth_[id]);
  }
}

NodeId TreeOverlay::AttachSubtree(NodeId parent, const SubtreeSpec& spec) {
  Check(parent);
  RPT_REQUIRE(alive_[parent] != 0, "TreeOverlay::AttachSubtree: parent is dead");
  RPT_REQUIRE(kind_[parent] == NodeKind::kInternal,
              "TreeOverlay::AttachSubtree: parent must be internal");
  const std::size_t count = spec.nodes.size();
  RPT_REQUIRE(count > 0, "TreeOverlay::AttachSubtree: empty spec");
  RPT_REQUIRE(Size() + count < kInvalidNode, "TreeOverlay::AttachSubtree: too many nodes");

  // Full dry-run validation: local structure, edge bounds, distance bound,
  // and demand overflow — nothing is mutated until all of it passes.
  std::vector<std::uint32_t> local_children(count, 0);
  std::vector<Distance> local_dist(count, 0);
  Requests spec_requests = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const SubtreeSpec::Node& node = spec.nodes[i];
    RPT_REQUIRE(node.delta <= kDistanceCap,
                "TreeOverlay::AttachSubtree: edge length exceeds kDistanceCap");
    if (i == 0) {
      local_dist[0] = dist_root_[parent] + node.delta;
    } else {
      RPT_REQUIRE(node.parent < i, "TreeOverlay::AttachSubtree: spec parent must precede child");
      RPT_REQUIRE(spec.nodes[node.parent].kind == NodeKind::kInternal,
                  "TreeOverlay::AttachSubtree: spec parent must be internal");
      ++local_children[node.parent];
      local_dist[i] = local_dist[node.parent] + node.delta;
    }
    RPT_REQUIRE(local_dist[i] < kDistRootBound, "TreeOverlay::AttachSubtree: root distance overflow");
    if (node.kind == NodeKind::kClient) {
      RPT_REQUIRE(spec_requests <= std::numeric_limits<Requests>::max() - node.requests,
                  "TreeOverlay::AttachSubtree: request total overflow");
      spec_requests += node.requests;
    } else {
      RPT_REQUIRE(node.requests == 0,
                  "TreeOverlay::AttachSubtree: internal nodes issue no requests");
    }
  }
  for (std::size_t i = 0; i < count; ++i) {
    RPT_REQUIRE(spec.nodes[i].kind == NodeKind::kClient || local_children[i] > 0,
                "TreeOverlay::AttachSubtree: internal spec node without children");
  }
  RPT_REQUIRE(total_requests_ <= std::numeric_limits<Requests>::max() - spec_requests,
              "TreeOverlay::AttachSubtree: request total overflow");

  // Commit. New ids are appended in spec order; the subtree root lands at the
  // END of the parent's child list (insertion order, like TreeBuilder).
  const auto new_base = static_cast<NodeId>(Size());
  std::size_t new_clients = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const SubtreeSpec::Node& node = spec.nodes[i];
    const NodeId id = new_base + static_cast<NodeId>(i);
    const NodeId gparent = i == 0 ? parent : new_base + node.parent;
    kind_.push_back(node.kind);
    parent_.push_back(gparent);
    delta_.push_back(node.delta);
    requests_.push_back(node.kind == NodeKind::kClient ? node.requests : 0);
    alive_.push_back(1);
    depth_.push_back(depth_[gparent] + 1);
    dist_root_.push_back(local_dist[i]);
    subtree_size_.push_back(1);
    subtree_requests_.push_back(node.kind == NodeKind::kClient ? node.requests : 0);
    PatchChildren(gparent).push_back(id);
    max_depth_ = std::max(max_depth_, depth_[id]);
    if (node.kind == NodeKind::kClient) ++new_clients;
  }
  // Fold spec-local aggregates bottom-up (spec parents precede children).
  for (std::size_t i = count; i-- > 1;) {
    const NodeId id = new_base + static_cast<NodeId>(i);
    const NodeId gparent = new_base + spec.nodes[i].parent;
    subtree_size_[gparent] += subtree_size_[id];
    subtree_requests_[gparent] += subtree_requests_[id];
  }
  BumpAggregates(parent, static_cast<std::int64_t>(count),
                 static_cast<std::int64_t>(spec_requests));
  total_requests_ += spec_requests;
  live_count_ += count;
  live_client_count_ += new_clients;
  ++topology_version_;
  MarkCachesDirty();
  return new_base;
}

void TreeOverlay::DetachSubtree(NodeId root, std::vector<NodeId>* removed) {
  Check(root);
  RPT_REQUIRE(alive_[root] != 0, "TreeOverlay::DetachSubtree: node is dead");
  RPT_REQUIRE(root != Root(), "TreeOverlay::DetachSubtree: cannot detach the root");
  const NodeId parent = parent_[root];
  RPT_REQUIRE(Children(parent).size() >= 2,
              "TreeOverlay::DetachSubtree: would leave an internal node childless");

  std::vector<NodeId> subtree;
  CollectSubtree(root, subtree);
  Requests detached_requests = 0;
  std::size_t detached_clients = 0;
  for (const NodeId id : subtree) {
    alive_[id] = 0;
    if (kind_[id] == NodeKind::kClient) {
      detached_requests += requests_[id];
      ++detached_clients;
      requests_[id] = 0;  // a dead slot carries no demand
    }
    patched_children_.erase(id);  // dead lists are unreachable; free them
  }
  RemoveChild(parent, root);
  BumpAggregates(parent, -static_cast<std::int64_t>(subtree.size()),
                 -static_cast<std::int64_t>(detached_requests));
  total_requests_ -= detached_requests;
  live_count_ -= subtree.size();
  live_client_count_ -= detached_clients;
  RecomputeMaxDepth();
  ++topology_version_;
  MarkCachesDirty();
  if (removed != nullptr) {
    std::sort(subtree.begin(), subtree.end());
    *removed = std::move(subtree);
  }
}

void TreeOverlay::MigrateSubtree(NodeId root, NodeId new_parent, Distance new_delta) {
  Check(root);
  Check(new_parent);
  RPT_REQUIRE(alive_[root] != 0, "TreeOverlay::MigrateSubtree: node is dead");
  RPT_REQUIRE(root != Root(), "TreeOverlay::MigrateSubtree: cannot migrate the root");
  RPT_REQUIRE(alive_[new_parent] != 0, "TreeOverlay::MigrateSubtree: new parent is dead");
  RPT_REQUIRE(kind_[new_parent] == NodeKind::kInternal,
              "TreeOverlay::MigrateSubtree: new parent must be internal");
  RPT_REQUIRE(!IsAncestorOrSelf(root, new_parent),
              "TreeOverlay::MigrateSubtree: new parent lies inside the moved subtree");
  RPT_REQUIRE(new_delta <= kDistanceCap,
              "TreeOverlay::MigrateSubtree: edge length exceeds kDistanceCap");
  const NodeId old_parent = parent_[root];
  RPT_REQUIRE(Children(old_parent).size() >= 2,
              "TreeOverlay::MigrateSubtree: would leave an internal node childless");
  CheckDistBound(root, dist_root_[new_parent] + new_delta);

  RemoveChild(old_parent, root);
  PatchChildren(new_parent).push_back(root);  // insertion order: re-homed last
  const auto size = static_cast<std::int64_t>(subtree_size_[root]);
  const auto requests = static_cast<std::int64_t>(subtree_requests_[root]);
  BumpAggregates(old_parent, -size, -requests);
  BumpAggregates(new_parent, size, requests);
  parent_[root] = new_parent;
  delta_[root] = new_delta;
  depth_[root] = depth_[new_parent] + 1;
  dist_root_[root] = dist_root_[new_parent] + new_delta;
  RefreshDepths(root);
  RecomputeMaxDepth();
  ++topology_version_;
  MarkCachesDirty();
}

void TreeOverlay::SetLinkDelta(NodeId node, Distance delta) {
  Check(node);
  RPT_REQUIRE(alive_[node] != 0, "TreeOverlay::SetLinkDelta: node is dead");
  RPT_REQUIRE(node != Root(), "TreeOverlay::SetLinkDelta: the root has no parent link");
  RPT_REQUIRE(delta <= kDistanceCap, "TreeOverlay::SetLinkDelta: edge length exceeds kDistanceCap");
  CheckDistBound(node, dist_root_[parent_[node]] + delta);
  delta_[node] = delta;
  dist_root_[node] = dist_root_[parent_[node]] + delta;
  RefreshDepths(node);
  ++topology_version_;
  // Node set and child order are untouched: the lazy caches stay valid.
}

void TreeOverlay::SetRequests(NodeId client, Requests value) {
  Check(client);
  RPT_REQUIRE(alive_[client] != 0, "TreeOverlay::SetRequests: node is dead");
  RPT_REQUIRE(kind_[client] == NodeKind::kClient,
              "TreeOverlay::SetRequests: only clients issue requests");
  const Requests old = requests_[client];
  if (value == old) return;
  if (value > old) {
    const Requests diff = value - old;
    RPT_REQUIRE(total_requests_ <= std::numeric_limits<Requests>::max() - diff,
                "TreeOverlay::SetRequests: request total overflow");
    for (NodeId at = client;; at = parent_[at]) {
      subtree_requests_[at] += diff;
      if (at == Root()) break;
    }
    total_requests_ += diff;
  } else {
    const Requests diff = old - value;
    for (NodeId at = client;; at = parent_[at]) {
      subtree_requests_[at] -= diff;
      if (at == Root()) break;
    }
    total_requests_ -= diff;
  }
  requests_[client] = value;
}

TreeOverlay::CompactResult TreeOverlay::Compact() const {
  const std::size_t n = Size();
  // Greedy min-old-id topological order with sibling chaining: the heap
  // holds nodes whose parent is assigned AND whose previous sibling is
  // assigned. Popping always takes the smallest eligible old id, so a clean
  // overlay (ascending-id children, no mutations) compacts to the identity
  // remap; after mutations, per-parent child order is preserved exactly —
  // children receive ascending new ids in overlay child order, which is the
  // order TreeBuilder freezes into the children spans.
  std::vector<NodeId> first_child(n, kInvalidNode);
  std::vector<NodeId> next_sibling(n, kInvalidNode);
  for (NodeId id = 0; id < n; ++id) {
    if (alive_[id] == 0) continue;
    const std::span<const NodeId> children = Children(id);
    if (children.empty()) continue;
    first_child[id] = children[0];
    for (std::size_t i = 0; i + 1 < children.size(); ++i) {
      next_sibling[children[i]] = children[i + 1];
    }
  }

  std::vector<NodeId> remap(n, kInvalidNode);
  TreeBuilder builder;
  builder.Reserve(live_count_);
  std::priority_queue<NodeId, std::vector<NodeId>, std::greater<>> ready;
  ready.push(Root());
  std::size_t assigned = 0;
  while (!ready.empty()) {
    const NodeId old_id = ready.top();
    ready.pop();
    NodeId new_id;
    if (old_id == Root()) {
      new_id = builder.AddRoot();
    } else if (kind_[old_id] == NodeKind::kClient) {
      new_id = builder.AddClient(remap[parent_[old_id]], delta_[old_id], requests_[old_id]);
    } else {
      new_id = builder.AddInternal(remap[parent_[old_id]], delta_[old_id]);
    }
    remap[old_id] = new_id;
    ++assigned;
    if (first_child[old_id] != kInvalidNode) ready.push(first_child[old_id]);
    if (old_id != Root() && next_sibling[old_id] != kInvalidNode) {
      ready.push(next_sibling[old_id]);
    }
  }
  RPT_CHECK(assigned == live_count_);
  return CompactResult{builder.Build(), std::move(remap)};
}

TreeOverlay TreeOverlay::FromColumns(std::span<const NodeKind> kind,
                                     std::span<const NodeId> parent,
                                     std::span<const Distance> delta,
                                     std::span<const Requests> requests,
                                     std::span<const std::uint8_t> alive,
                                     std::span<const std::uint32_t> child_rank) {
  const std::size_t n = kind.size();
  RPT_REQUIRE(n > 0, "TreeOverlay::FromColumns: empty tree");
  RPT_REQUIRE(n < kInvalidNode, "TreeOverlay::FromColumns: too many nodes");
  RPT_REQUIRE(parent.size() == n && delta.size() == n && requests.size() == n &&
                  alive.size() == n && child_rank.size() == n,
              "TreeOverlay::FromColumns: column size mismatch");
  RPT_REQUIRE(alive[0] != 0, "TreeOverlay::FromColumns: root must be live");
  RPT_REQUIRE(kind[0] == NodeKind::kInternal, "TreeOverlay::FromColumns: root must be internal");
  RPT_REQUIRE(parent[0] == kInvalidNode, "TreeOverlay::FromColumns: root has no parent");

  TreeOverlay overlay;
  overlay.kind_.assign(kind.begin(), kind.end());
  overlay.parent_.assign(parent.begin(), parent.end());
  overlay.delta_.assign(delta.begin(), delta.end());
  overlay.requests_.assign(requests.begin(), requests.end());
  overlay.alive_.assign(alive.begin(), alive.end());
  overlay.delta_[0] = kNoDistanceLimit;
  overlay.base_children_begin_.assign(1, 0);
  overlay.base_size_ = 0;  // everything lives in the patch map

  // Per-node validation + per-parent (rank, child) collection.
  std::vector<std::vector<std::pair<std::uint32_t, NodeId>>> ranked(n);
  std::size_t live = 0;
  std::size_t live_clients = 0;
  Requests total = 0;
  for (NodeId id = 0; id < n; ++id) {
    if (alive[id] == 0) {
      overlay.requests_[id] = 0;  // a dead slot carries no demand
      continue;
    }
    ++live;
    if (kind[id] == NodeKind::kClient) {
      ++live_clients;
      RPT_REQUIRE(total <= std::numeric_limits<Requests>::max() - requests[id],
                  "TreeOverlay::FromColumns: request total overflow");
      total += requests[id];
    } else {
      RPT_REQUIRE(requests[id] == 0, "TreeOverlay::FromColumns: internal nodes issue no requests");
    }
    if (id == 0) continue;
    RPT_REQUIRE(parent[id] < n, "TreeOverlay::FromColumns: parent id out of range");
    RPT_REQUIRE(alive[parent[id]] != 0, "TreeOverlay::FromColumns: live node with dead parent");
    RPT_REQUIRE(kind[parent[id]] == NodeKind::kInternal,
                "TreeOverlay::FromColumns: parent must be internal");
    RPT_REQUIRE(delta[id] <= kDistanceCap,
                "TreeOverlay::FromColumns: edge length exceeds kDistanceCap");
    ranked[parent[id]].emplace_back(child_rank[id], id);
  }

  // Child lists in rank order; ranks must be a clean 0..k-1 permutation.
  for (NodeId id = 0; id < n; ++id) {
    if (ranked[id].empty()) continue;
    std::sort(ranked[id].begin(), ranked[id].end());
    std::vector<NodeId>& list = overlay.patched_children_[id];
    list.reserve(ranked[id].size());
    for (std::size_t i = 0; i < ranked[id].size(); ++i) {
      RPT_REQUIRE(ranked[id][i].first == i,
                  "TreeOverlay::FromColumns: child ranks must form 0..k-1 per parent");
      list.push_back(ranked[id][i].second);
    }
  }
  for (NodeId id = 0; id < n; ++id) {
    if (alive[id] == 0 || id == 0) continue;
    RPT_REQUIRE(kind[id] == NodeKind::kClient || !ranked[id].empty(),
                "TreeOverlay::FromColumns: internal node without children");
  }

  // BFS from the root: derives depth/dist and doubles as the connectivity
  // check (a parent cycle among live nodes is unreachable from the root).
  overlay.depth_.assign(n, 0);
  overlay.dist_root_.assign(n, 0);
  std::vector<NodeId> order{0};
  for (std::size_t head = 0; head < order.size(); ++head) {
    const NodeId node = order[head];
    overlay.max_depth_ = std::max(overlay.max_depth_, overlay.depth_[node]);
    for (const NodeId child : overlay.Children(node)) {
      overlay.depth_[child] = overlay.depth_[node] + 1;
      overlay.dist_root_[child] = overlay.dist_root_[node] + overlay.delta_[child];
      RPT_REQUIRE(overlay.dist_root_[child] < kDistRootBound,
                  "TreeOverlay::FromColumns: root distance overflow");
      order.push_back(child);
    }
  }
  RPT_REQUIRE(order.size() == live,
              "TreeOverlay::FromColumns: live nodes unreachable from the root (parent cycle?)");

  overlay.subtree_requests_.assign(n, 0);
  overlay.subtree_size_.assign(n, 0);
  for (std::size_t i = order.size(); i-- > 0;) {
    const NodeId node = order[i];
    Requests req = overlay.kind_[node] == NodeKind::kClient ? overlay.requests_[node] : 0;
    std::uint32_t size = 1;
    for (const NodeId child : overlay.Children(node)) {
      req += overlay.subtree_requests_[child];
      size += overlay.subtree_size_[child];
    }
    overlay.subtree_requests_[node] = req;
    overlay.subtree_size_[node] = size;
  }
  overlay.total_requests_ = total;
  overlay.live_count_ = live;
  overlay.live_client_count_ = live_clients;
  // A deserialized overlay is conservatively assumed mutated (identity-remap
  // claims only hold for overlays built directly over a base Tree).
  overlay.topology_version_ = 1;
  return overlay;
}

}  // namespace rpt
