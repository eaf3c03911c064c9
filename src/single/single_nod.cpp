#include "single/single_nod.hpp"

#include <algorithm>
#include <span>
#include <vector>

namespace rpt::single {

namespace {

constexpr std::uint32_t kNil = static_cast<std::uint32_t>(-1);

// One (client, amount) block of a bundle, stored in a shared arena and
// chained through `next`. Bundles only ever concatenate, so a singly linked
// chain makes every merge O(1) with zero allocation.
struct Entry {
  NodeId client = kInvalidNode;
  Requests amount = 0;
  std::uint32_t next = kNil;
};

// A pending bundle: requests of the chained entries (all inside
// subtree(root_node)) that can be served together by a replica at root_node
// or any ancestor. Bundles themselves chain into per-node pending lists.
struct Bundle {
  NodeId root_node = kInvalidNode;
  Requests total = 0;
  std::uint32_t head = kNil;  // first entry in the arena
  std::uint32_t tail = kNil;  // last entry (for O(1) concatenation)
  std::uint32_t next = kNil;  // next bundle in the same pending list
};

// Flat replacement for the former per-node std::vector<Bundle> lists: two
// arenas (entries, bundles) plus head/tail cursors per node.
class BundleLists {
 public:
  explicit BundleLists(TopologyView tree)
      : head_(tree.Size(), kNil), tail_(tree.Size(), kNil) {
    entries_.reserve(tree.ClientCount());
    bundles_.reserve(tree.Size());
  }

  [[nodiscard]] Bundle& At(std::uint32_t id) { return bundles_[id]; }

  std::uint32_t MakeLeafBundle(NodeId client, Requests requests) {
    const auto entry = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(Entry{client, requests, kNil});
    const auto bundle = static_cast<std::uint32_t>(bundles_.size());
    bundles_.push_back(Bundle{client, requests, entry, entry, kNil});
    return bundle;
  }

  // Concatenates the entry chains of `parts` (in order) into one new bundle
  // rooted at `root` — O(|parts|), no entry is copied or reallocated.
  std::uint32_t MakeMergedBundle(NodeId root, Requests total,
                                 const std::vector<std::uint32_t>& parts) {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    for (const std::uint32_t part : parts) {
      if (head == kNil) {
        head = bundles_[part].head;
      } else {
        entries_[tail].next = bundles_[part].head;
      }
      tail = bundles_[part].tail;
    }
    const auto bundle = static_cast<std::uint32_t>(bundles_.size());
    bundles_.push_back(Bundle{root, total, head, tail, kNil});
    return bundle;
  }

  void Append(NodeId node, std::uint32_t bundle) {
    bundles_[bundle].next = kNil;
    if (head_[node] == kNil) {
      head_[node] = bundle;
    } else {
      bundles_[tail_[node]].next = bundle;
    }
    tail_[node] = bundle;
  }

  // Moves the pending list of `node` into `out` (bundle ids, list order).
  void Drain(NodeId node, std::vector<std::uint32_t>& out) {
    out.clear();
    for (std::uint32_t b = head_[node]; b != kNil; b = bundles_[b].next) out.push_back(b);
    head_[node] = kNil;
    tail_[node] = kNil;
  }

  // Serves every entry of the bundle at `server`, in chain order.
  void ServeBundle(Solution& solution, NodeId server, std::uint32_t bundle) const {
    for (std::uint32_t e = bundles_[bundle].head; e != kNil; e = entries_[e].next) {
      solution.assignment.push_back(ServiceEntry{entries_[e].client, server, entries_[e].amount});
    }
  }

 private:
  std::vector<Entry> entries_;
  std::vector<Bundle> bundles_;
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> tail_;
};

}  // namespace

namespace {

// Shared core: preconditions already checked by the public entry points.
SingleNodResult SolveSingleNodImpl(TopologyView tree, Requests capacity,
                                   const SingleNodOptions& options);

}  // namespace

SingleNodResult SolveSingleNod(const Instance& instance, const SingleNodOptions& options) {
  RPT_REQUIRE(!instance.HasDistanceConstraint(),
              "single-nod: only valid without distance constraints (Single-NoD)");
  RPT_REQUIRE(instance.AllRequestsFitLocally(),
              "single-nod: some client has r_i > W; no Single solution exists");
  return SolveSingleNodImpl(instance.GetTree(), instance.Capacity(), options);
}

SingleNodResult SolveSingleNod(TopologyView view, Requests capacity,
                               const SingleNodOptions& options) {
  RPT_REQUIRE(capacity > 0, "single-nod: capacity must be positive");
  const std::span<const Requests> demands = view.RequestsColumn();
  for (NodeId id = 0; id < view.Size(); ++id) {
    if (!view.IsLive(id)) {
      RPT_REQUIRE(demands[id] == 0, "single-nod: dead nodes issue no requests");
    } else if (view.IsClient(id)) {
      RPT_REQUIRE(demands[id] <= capacity,
                  "single-nod: some client has r_i > W; no Single solution exists");
    } else {
      RPT_REQUIRE(demands[id] == 0, "single-nod: internal nodes issue no requests");
    }
  }
  return SolveSingleNodImpl(view, capacity, options);
}

namespace {

SingleNodResult SolveSingleNodImpl(TopologyView tree, Requests capacity,
                                   const SingleNodOptions& options) {
  const std::span<const Requests> demands = tree.RequestsColumn();
  SingleNodResult result;
  Solution& solution = result.solution;

  // L_j of the paper; bundles arrive from direct children and from
  // re-parenting at deeper overflow nodes.
  BundleLists lists(tree);
  std::vector<std::uint32_t> mine;  // reused per-node drain scratch

  for (const NodeId node : tree.PostOrder()) {
    if (tree.IsClient(node)) {
      const Requests requests = demands[node];
      if (requests > 0 && node != tree.Root()) {
        lists.Append(tree.Parent(node), lists.MakeLeafBundle(node, requests));
      }
      continue;
    }

    lists.Drain(node, mine);
    Requests total = 0;
    for (const std::uint32_t bundle : mine) total += lists.At(bundle).total;

    if (total > capacity) {
      // Overflow: this node becomes a server and greedily absorbs the
      // smallest bundles; the first bundle that would overflow gets its own
      // server at its root node (jmin of the paper).
      const bool ascending = options.order == SingleNodOptions::BundleOrder::kSmallestFirst;
      std::sort(mine.begin(), mine.end(),
                [ascending, &lists](std::uint32_t a, std::uint32_t b) {
                  const Bundle& ba = lists.At(a);
                  const Bundle& bb = lists.At(b);
                  if (ba.total != bb.total) {
                    return ascending ? ba.total < bb.total : ba.total > bb.total;
                  }
                  return ba.root_node < bb.root_node;  // deterministic tie-break
                });
      solution.replicas.push_back(node);
      ++result.stats.overflow_servers;
      Requests used = 0;
      std::size_t index = 0;
      for (; index < mine.size(); ++index) {
        const Bundle& bundle = lists.At(mine[index]);
        if (used + bundle.total <= capacity) {
          used += bundle.total;
          lists.ServeBundle(solution, node, mine[index]);
          continue;
        }
        // First overflow: companion server at the bundle's own root.
        solution.replicas.push_back(bundle.root_node);
        ++result.stats.extra_servers;
        lists.ServeBundle(solution, bundle.root_node, mine[index]);
        ++index;
        break;
      }
      // Remaining bundles: re-parent (or, at the root, each gets a server).
      if (node != tree.Root()) {
        for (; index < mine.size(); ++index) lists.Append(tree.Parent(node), mine[index]);
      } else {
        for (; index < mine.size(); ++index) {
          const Bundle& bundle = lists.At(mine[index]);
          solution.replicas.push_back(bundle.root_node);
          ++result.stats.root_spill_servers;
          lists.ServeBundle(solution, bundle.root_node, mine[index]);
        }
      }
      continue;
    }

    // No overflow: everything fits through this node.
    if (node == tree.Root()) {
      if (total > 0) {
        solution.replicas.push_back(tree.Root());
        result.stats.root_server = true;
        for (const std::uint32_t bundle : mine) lists.ServeBundle(solution, tree.Root(), bundle);
      }
      continue;
    }
    if (total > 0) {
      lists.Append(tree.Parent(node), lists.MakeMergedBundle(node, total, mine));
    }
  }

  return result;
}

}  // namespace

}  // namespace rpt::single
