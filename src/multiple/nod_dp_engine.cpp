#include "multiple/nod_dp_engine.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "support/thread_pool.hpp"

namespace rpt::multiple {

namespace {

using Cost = NodDpEngine::Cost;
constexpr Cost kInf = NodDpEngine::kInfCost;

// The fewest nodes of a level one pool chunk takes. On a 4-vCPU x86-64 box
// one fork-join of the solver pool at width 4 took 15-25 us, and one node's
// merge 50-230 ns on binary and random trees: even at the cheapest merges a
// chunk of 512 nodes costs more than its dispatch. A level of at most 512
// nodes runs on the calling thread.
constexpr std::size_t kLevelGrain = 512;

// Strictly decreasing with steps inv[i-1] - inv[i] that never grow: the
// shape of every table a subtree produces under a uniform W, and the one
// shape on which the step merge and the node step are exact.
bool IsConvex(std::span<const Requests> inv) {
  for (std::size_t i = 1; i < inv.size(); ++i) {
    if (inv[i] >= inv[i - 1]) return false;
    if (i >= 2 && inv[i - 1] - inv[i] > inv[i - 2] - inv[i - 1]) return false;
  }
  return true;
}

}  // namespace

NodDpEngine::NodDpEngine(TopologyView view, Requests capacity)
    : view_(view),
      capacity_(capacity),
      f_(view.Size()),
      regions_(view.Size()),
      last_dirty_pass_(view.Size(), 0),
      force_prefix_rebuild_(view.Size(), 0) {
  RPT_REQUIRE(capacity_ > 0, "NodDpEngine: capacity must be positive");
  RebuildLevels();
}

void NodDpEngine::RebuildLevels() {
  std::uint32_t max_depth = 0;
  for (NodeId id = 0; id < view_.Size(); ++id) {
    if (view_.IsLive(id)) max_depth = std::max(max_depth, view_.Depth(id));
  }
  all_levels_.assign(static_cast<std::size_t>(max_depth) + 1, {});
  dirty_levels_.assign(all_levels_.size(), {});
  for (NodeId id = 0; id < view_.Size(); ++id) {
    if (view_.IsLive(id)) all_levels_[view_.Depth(id)].push_back(id);
  }
}

void NodDpEngine::ApplyTopology(TopologyView view, std::span<const NodeId> children_changed,
                                std::span<const NodeId> removed) {
  view_ = view;
  const std::size_t n = view_.Size();
  f_.resize(n);
  regions_.resize(n);
  last_dirty_pass_.resize(n, 0);
  force_prefix_rebuild_.resize(n, 0);
  frag_.resize(n);
  for (const NodeId dead : removed) {
    CheckNode(dead);
    // Drop the dead subtree's tables (their regions turn to slack until the
    // next compaction) and reclaim its fragment budget; its slots stay
    // allocated (ids are never reused) but no live traversal reaches them.
    f_[dead] = Table{};
    live_entries_ -= regions_[dead].need;
    regions_[dead] = Region{};
    frag_entries_total_ -= frag_[dead].EntryCount();
    frag_[dead] = FragmentCache{};
    last_dirty_pass_[dead] = 0;
  }
  for (const NodeId parent : children_changed) {
    RPT_REQUIRE(view_.IsLive(CheckNode(parent)),
                "NodDpEngine::ApplyTopology: changed parent must be live");
    // The stored prefixes index the OLD child list; stamp the node so the
    // next pass (pass_ + 1) rebuilds its chain from child 0. Appends don't
    // need this: prefix[i] still covers children [0, i) and the appended
    // child is dirty, so the normal first-dirty-child scan is exact.
    force_prefix_rebuild_[parent] = pass_ + 1;
  }
  RebuildLevels();
}

void NodDpEngine::SetCapacity(Requests capacity) {
  RPT_REQUIRE(capacity > 0, "NodDpEngine: capacity must be positive");
  if (capacity == capacity_) return;
  capacity_ = capacity;
  computed_ = false;  // every transition depends on W: full recompute needed
}

NodDpEngine::Cost NodDpEngine::CostAt(const Table& table, std::size_t u) {
  const Requests* first = std::partition_point(table.inv, table.inv + table.len,
                                               [u](Requests v) { return v > u; });
  if (first == table.inv + table.len) return kInf;
  return static_cast<Cost>(first - table.inv);
}

// The min-plus convolution out(c) = min over c1 + c2 = c of a(c1) + b(c2).
// Both inputs are convex, so it is the merge of their step lists, steepest
// first — exact, and O(|a| + |b|). The output spans |a| + |b| - 1 costs and
// stays convex.
void NodDpEngine::MergeSteps(const Table& a, const Table& b, const Table& out) {
  out.inv[0] = a.inv[0] + b.inv[0];
  std::size_t i = 1;
  std::size_t j = 1;
  for (std::size_t k = 1; k < out.len; ++k) {
    const Requests step_a = i < a.len ? a.inv[i - 1] - a.inv[i] : 0;
    const Requests step_b = j < b.len ? b.inv[j - 1] - b.inv[j] : 0;
    if (step_a >= step_b) {
      out.inv[k] = out.inv[k - 1] - step_a;
      ++i;
    } else {
      out.inv[k] = out.inv[k - 1] - step_b;
      ++j;
    }
  }
}

void NodDpEngine::MoveRegions(std::span<const NodeId> nodes, std::size_t entries, bool carry) {
  std::unique_lock lock(slabs_mutex_);
  work_.storage_entries += entries;
  Requests* next = slabs_.emplace_back(std::make_unique_for_overwrite<Requests[]>(entries)).get();
  lock.unlock();
  for (const NodeId node : nodes) {
    Region& region = regions_[node];
    Table& table = f_[node];
    if (carry) {  // F ends the region's used part
      std::copy(region.base, table.inv + table.len, next);
      table.inv = next + (table.inv - region.base);
    }
    region.base = next;
    next += region.cap;
  }
}

// Runs in the chunk's worker once the children's F lengths are final; the
// live delta is an exact modular sum, the same at any pool width.
void NodDpEngine::PlaceChunk(std::span<const NodeId> nodes, bool incremental,
                             ChunkCounters& counters) {
  std::vector<NodeId> moved;
  std::size_t fresh = 0;
  for (const NodeId node : nodes) {
    std::size_t prefix_len = 1;  // |G_c|
    std::size_t need = 1;        // |G_0| + ... + |G_c|, then + |G_k| + 1 for F
    if (view_.IsClient(node)) {
      const auto it = imported_.empty() ? imported_.end() : imported_.find(node);
      need = it != imported_.end() ? it->second.size() : view_.RequestsOf(node) > 0 ? 2 : 1;
    } else {
      for (const NodeId kid : view_.Children(node)) {
        prefix_len += f_[kid].len - 1;
        need += prefix_len;
      }
      need += prefix_len + 1;
    }
    Region& region = regions_[node];
    counters.live += need - (incremental ? region.need : 0);
    region.need = need;
    if (need <= region.cap) continue;  // rewrite in place
    region.cap = incremental ? need + need / 8 : need;
    fresh += region.cap;
    moved.push_back(node);
  }
  // Reused prefixes keep their offsets, so an outgrown region's tables move
  // along (they fit: old need <= old cap < need).
  if (!moved.empty()) MoveRegions(moved, fresh, /*carry=*/incremental);
}

void NodDpEngine::CompactIfSparse() {
  if (work_.storage_entries <= 2 * live_entries_ + (std::size_t{1} << 16)) return;
  const auto old = std::exchange(slabs_, {});  // freed once every live region moved out
  work_.storage_entries = 0;
  for (const auto& level : all_levels_) {  // one exact slab per level
    std::size_t entries = 0;
    for (const NodeId node : level) entries += regions_[node].cap = regions_[node].need;
    MoveRegions(level, entries, /*carry=*/true);
  }
  ++work_.compactions;
}

// Recomputes f_[node] (and, for internal nodes, the stored prefix tables
// from child index `first_child` on) — all children must already be up to
// date, which the level sweep guarantees. The recomputed tables depend only
// on (children tables, demand, capacity), never on which pass runs the
// node, so an incremental recompute writes exactly the tables a full pass
// would.
void NodDpEngine::ProcessNode(NodeId node, std::size_t first_child, ChunkCounters& counters) {
  Table& table = f_[node];
  const Region& region = regions_[node];
  if (view_.IsClient(node)) {
    if (!imported_.empty()) {
      // Sharded solve: a boundary leaf's table IS the cut subtree root's F
      // table, shipped from the worker — install it verbatim.
      const auto it = imported_.find(node);
      if (it != imported_.end()) {
        const InverseTable& imported = it->second;
        table = {static_cast<std::uint32_t>(imported.size()), region.base};
        RPT_CHECK(imported[0] == view_.SubtreeRequests(node) && table.len <= region.cap);
        std::copy(imported.begin(), imported.end(), table.inv);
        counters.entries += table.len;
        return;
      }
    }
    // No replica forwards all r at cost 0; a replica serves min(r, W)
    // locally at cost 1. A leaf without demand forwards nothing.
    const Requests r = view_.RequestsOf(node);
    table = {r > 0 ? 2u : 1u, region.base};
    RPT_CHECK(table.len <= region.cap);
    table.inv[0] = r;
    if (r > 0) table.inv[1] = r > capacity_ ? r - capacity_ : 0;
    counters.entries += table.len;
    return;
  }
  // Children merges along the prefix chain: G_c, the product of children
  // [0, c), is kept as stored for c <= first_child. G_0 forwards 0 at cost 0.
  const auto kids = view_.Children(node);
  Table g{1, region.base};
  if (first_child == 0) {
    g.inv[0] = 0;
    counters.entries += 1;
  }
  for (std::size_t c = 0; c < kids.size(); ++c) {
    const Table& child = f_[kids[c]];
    const Table next = Extend(g, child);
    if (c >= first_child) {
      MergeSteps(g, child, next);
      counters.entries += next.len;
      counters.cells += next.len;
    }
    g = next;
  }
  // The node step F(u) = min(G(u), 1 + G(min(total, u + w))), w = min(W,
  // total), total = inv_G[0], in inverse form: cost c is spent either below
  // (inv_G[c]) or as c - 1 below plus a replica here that absorbs w of what
  // G forwards. F follows G_k; no sanitizer sees an overrun into the next
  // region of a slab.
  RPT_CHECK(g.inv[0] == view_.SubtreeRequests(node));
  const Requests w = std::min(capacity_, g.inv[0]);
  const std::size_t len = g.len;
  table = {0, g.inv + len};
  RPT_CHECK(static_cast<std::size_t>(table.inv - region.base) + len + 1 <= region.cap);
  table.inv[0] = g.inv[0];
  for (std::size_t i = 1; i <= len; ++i) {
    const Requests relaxed = g.inv[i - 1] > w ? g.inv[i - 1] - w : 0;
    table.inv[i] = std::min(g.inv[std::min(i, len - 1)], relaxed);
  }
  std::size_t out = len + 1;
  while (out > 1 && table.inv[out - 1] == table.inv[out - 2]) --out;
  table.len = static_cast<std::uint32_t>(out);
  RPT_CHECK(IsConvex({table.inv, out}));
  counters.entries += out;
}

// Level-synchronous sweep, deepest level first. Within a level every node's
// merge is independent (its children live one level deeper and are already
// done), so a level wider than kLevelGrain runs as parallel chunks on the
// process-wide solver pool, each chunk first placing its nodes' regions; a
// narrower one runs on the calling thread. Exact-integer work counters keep
// the outputs bit-identical to a serial sweep. In the incremental form the
// levels hold only dirty nodes — independent dirty chains proceed in
// parallel — and each internal node's prefix chain restarts at its first
// dirty child.
void NodDpEngine::SweepLevels(const std::vector<std::vector<NodeId>>& levels, bool incremental) {
  std::atomic<std::uint64_t> entries{0};
  std::atomic<std::uint64_t> cells{0};
  std::atomic<std::uint64_t> live{0};
  std::uint64_t nodes = 0;
  ThreadPool* pool = SolverPool();
  for (std::size_t d = levels.size(); d-- > 0;) {
    const std::vector<NodeId>& level = levels[d];
    if (level.empty()) continue;
    nodes += level.size();
    ParallelForChunked(pool, level.size(), kLevelGrain,
                       [&](std::size_t begin, std::size_t end) {
                         ChunkCounters counters;
                         PlaceChunk(std::span(level).subspan(begin, end - begin), incremental,
                                    counters);
                         for (std::size_t slot = begin; slot < end; ++slot) {
                           const NodeId node = level[slot];
                           std::size_t first_child = 0;
                           if (incremental && !view_.IsClient(node) &&
                               force_prefix_rebuild_[node] != pass_) {
                             // Reuse the prefix chain up to the first child
                             // whose subtree changed this pass. (A node whose
                             // child list shrank or reordered this pass is
                             // stamped by ApplyTopology and skips straight to
                             // a full rebuild — its prefixes index the old
                             // list.)
                             const auto kids = view_.Children(node);
                             first_child = kids.size();
                             for (std::size_t c = 0; c < kids.size(); ++c) {
                               if (last_dirty_pass_[kids[c]] == pass_) {
                                 first_child = c;
                                 break;
                               }
                             }
                             // A dirty internal node usually has a dirty
                             // child (dirt spreads leaf -> root); a
                             // topology-seeded node may not (e.g. a migrated
                             // subtree root, dirty by decree while all its
                             // children kept valid tables) — fall back to a
                             // full rebuild.
                             if (first_child == kids.size()) first_child = 0;
                           }
                           ProcessNode(node, first_child, counters);
                         }
                         entries.fetch_add(counters.entries, std::memory_order_relaxed);
                         cells.fetch_add(counters.cells, std::memory_order_relaxed);
                         live.fetch_add(counters.live, std::memory_order_relaxed);
                       });
  }
  work_.table_entries += entries.load(std::memory_order_relaxed);
  work_.convolve_cells += cells.load(std::memory_order_relaxed);
  live_entries_ += live.load(std::memory_order_relaxed);
  work_.nodes_processed += nodes;
  last_pass_nodes_ = nodes;
}

void NodDpEngine::ComputeAll() {
  ++pass_;
  std::fill(last_dirty_pass_.begin(), last_dirty_pass_.end(), pass_);
  live_entries_ = 0;  // a full pass adds every live node's need afresh
  SweepLevels(all_levels_, /*incremental=*/false);
  CompactIfSparse();
  computed_ = true;
}

void NodDpEngine::RecomputeDirty(std::span<const NodeId> touched) {
  RPT_REQUIRE(computed_, "NodDpEngine: RecomputeDirty requires a completed ComputeAll");
  if (touched.empty()) {
    last_pass_nodes_ = 0;
    return;
  }
  ++pass_;
  if (frag_.empty()) frag_.resize(view_.Size());
  for (auto& level : dirty_levels_) level.clear();
  // The dirty set is the union of the touched nodes' root paths; each walk
  // stops at the first node already marked by an earlier path. Seeds are
  // client leaves whose demand changed, or — after ApplyTopology — any live
  // node whose subtree membership changed (attached roots, detach/migrate
  // parents): an internal seed marks itself plus its chain, and the sweep's
  // fallback rebuilds its prefix chain even when none of its children are
  // dirty.
  for (const NodeId seed : touched) {
    RPT_REQUIRE(view_.IsLive(CheckNode(seed)), "NodDpEngine: touched nodes must be live");
    for (NodeId cur = seed;; cur = view_.Parent(cur)) {
      if (last_dirty_pass_[cur] == pass_) break;
      last_dirty_pass_[cur] = pass_;
      dirty_levels_[view_.Depth(cur)].push_back(cur);
      if (cur == view_.Root()) break;
    }
  }
  // Paths are walked in touched order, so bucket contents may be unsorted;
  // sort for deterministic chunk boundaries independent of touch order.
  for (auto& level : dirty_levels_) std::sort(level.begin(), level.end());
  SweepLevels(dirty_levels_, /*incremental=*/true);
  CompactIfSparse();
}

bool NodDpEngine::Feasible() const {
  RPT_REQUIRE(computed_, "NodDpEngine: Feasible requires up-to-date tables");
  return CostAt(f_[view_.Root()], 0) < kInf;
}

namespace {
constexpr std::uint32_t kPendNil = static_cast<std::uint32_t>(-1);
}  // namespace

NodDpEngine::PendChain NodDpEngine::ChainOf(
    std::span<const std::pair<NodeId, Requests>> pending) {
  PendChain chain{kPendNil, kPendNil, 0};
  for (const auto& [client, amount] : pending) {
    const auto id = static_cast<std::uint32_t>(pend_entries_.size());
    pend_entries_.push_back(PendEntry{client, amount, kPendNil});
    if (chain.head == kPendNil) {
      chain.head = id;
    } else {
      pend_entries_[chain.tail].next = id;
    }
    chain.tail = id;
    chain.total += amount;
  }
  return chain;
}

NodDpEngine::PendChain NodDpEngine::BacktrackNode(NodeId node, std::size_t u,
                                                  Solution& solution) {
  const Table& table = f_[node];
  RPT_CHECK(table.len > 0);
  u = std::min<std::size_t>(u, table.inv[0]);

  const auto empty_chain = [] { return PendChain{kPendNil, kPendNil, 0}; };
  const auto single_chain = [this](NodeId client, Requests amount) {
    const auto id = static_cast<std::uint32_t>(pend_entries_.size());
    pend_entries_.push_back(PendEntry{client, amount, kPendNil});
    return PendChain{id, id, amount};
  };

  // Imported boundary leaf (sharded solve): the subtree behind this leaf was
  // reconstructed by its shard worker; its replicas and entries travel in the
  // worker's solution fragment (spliced in by the coordinator, not here). The
  // spine only needs the pending list the fragment forwards — replayed
  // verbatim, in chain order, so every upstream replica absorbs exactly the
  // prefix the unsharded backtrack would have handed it.
  if (!imported_.empty() && imported_.contains(node)) {
    RPT_REQUIRE(imported_provider_ != nullptr,
                "NodDpEngine: backtracking imported tables requires a fragment provider");
    RPT_CHECK(CostAt(table, u) < kInf);
    return ChainOf(imported_provider_(node, u));
  }

  // Fragment replay: valid iff the fragment was recorded after the subtree's
  // last recompute (a dirty node this pass has last_dirty == pass_ >=
  // built_pass, so it can never hit) and the clamped budget matches. The
  // reconstruction below is a pure function of (subtree tables, budget), so
  // the replayed bytes are exactly what the recursion would append.
  FragmentCache* frag = frag_.empty() ? nullptr : &frag_[node];
  if (frag != nullptr && frag->built_pass > last_dirty_pass_[node] && frag->budget == u) {
    solution.replicas.insert(solution.replicas.end(), frag->replicas.begin(),
                             frag->replicas.end());
    solution.assignment.insert(solution.assignment.end(), frag->entries.begin(),
                               frag->entries.end());
    return ChainOf(frag->forwarded);
  }
  const std::size_t mark_replicas = solution.replicas.size();
  const std::size_t mark_entries = solution.assignment.size();
  const auto record_fragment = [&](const PendChain& out) {
    // Record only clean subtrees: a node recomputed this pass is likely on a
    // hot path that changes again, and its fragment near the root can span
    // most of the solution — recording it every pass would cost more than
    // the recursion it saves.
    if (frag == nullptr || last_dirty_pass_[node] >= pass_) return;
    // Budget check: replacing this node's old fragment frees its share; a
    // brand-new fragment past the cap is simply not recorded (replay is an
    // optimization, never a correctness dependency).
    frag_entries_total_ -= frag->EntryCount();
    const std::size_t incoming_entries =
        (solution.replicas.size() - mark_replicas) + (solution.assignment.size() - mark_entries);
    if (frag_entries_total_ + incoming_entries > kFragEntryBudget) {
      *frag = FragmentCache{};  // drop the stale share instead of keeping it
      return;
    }
    frag->built_pass = pass_;
    frag->budget = u;
    frag->replicas.assign(solution.replicas.begin() + mark_replicas, solution.replicas.end());
    frag->entries.assign(solution.assignment.begin() + mark_entries, solution.assignment.end());
    frag->forwarded.clear();
    for (std::uint32_t e = out.head; e != kPendNil; e = pend_entries_[e].next) {
      frag->forwarded.emplace_back(pend_entries_[e].client, pend_entries_[e].amount);
    }
    frag_entries_total_ += frag->EntryCount();
  };

  const Cost cost = CostAt(table, u);
  RPT_CHECK(cost < kInf);

  if (view_.IsClient(node)) {
    const auto leaf_chain = [&]() -> PendChain {
      const Requests r = view_.RequestsOf(node);
      if (r == 0) return empty_chain();
      if (cost == 0) return single_chain(node, r);  // no replica, forward all
      // Replica: serve as much as possible locally, forward the remainder.
      const Requests local = std::min(r, capacity_);
      solution.replicas.push_back(node);
      solution.assignment.push_back(ServiceEntry{node, node, local});
      if (r > local) return single_chain(node, r - local);
      return empty_chain();
    }();
    record_fragment(leaf_chain);
    return leaf_chain;
  }

  // Split the budget among children (SplitBudget holds the shared table
  // arithmetic). Budgets live in a small stack buffer (heap only past arity
  // 8) so the recursion allocates nothing on typical trees.
  const auto kids = view_.Children(node);
  std::size_t inline_budget[8];
  std::vector<std::size_t> heap_budget;
  std::size_t* child_budget = inline_budget;
  if (kids.size() > 8) {
    heap_budget.resize(kids.size());
    child_budget = heap_budget.data();
  }
  const bool use_replica = SplitBudget(node, u, child_budget);

  // Concatenate the children's pending chains in child order — O(1) splices,
  // preserving exactly the order the flat-list implementation produced.
  PendChain incoming = empty_chain();
  for (std::size_t k = 0; k < kids.size(); ++k) {
    const PendChain from_child = BacktrackNode(kids[k], child_budget[k], solution);
    if (from_child.head == kPendNil) continue;
    if (incoming.head == kPendNil) {
      incoming.head = from_child.head;
    } else {
      pend_entries_[incoming.tail].next = from_child.head;
    }
    incoming.tail = from_child.tail;
    incoming.total += from_child.total;
  }

  if (!use_replica) {
    record_fragment(incoming);
    return incoming;
  }

  // Replica at node: serve min(T, W) of the incoming requests in chain
  // order, forward the rest (guaranteed <= u by the DP transition). Serving
  // is prefix-greedy, so the forwarded list is the chain's suffix starting
  // at the first partially-served entry.
  solution.replicas.push_back(node);
  Requests to_serve = std::min(incoming.total, capacity_);
  PendChain forwarded{incoming.head, incoming.tail, incoming.total - to_serve};
  while (to_serve > 0) {
    RPT_CHECK(forwarded.head != kPendNil);
    PendEntry& entry = pend_entries_[forwarded.head];
    const Requests take = std::min(entry.amount, to_serve);
    solution.assignment.push_back(ServiceEntry{entry.client, node, take});
    to_serve -= take;
    if (take == entry.amount) {
      forwarded.head = entry.next;
      if (forwarded.head == kPendNil) forwarded.tail = kPendNil;
    } else {
      entry.amount -= take;
    }
  }
  RPT_CHECK(forwarded.total <= u);
  record_fragment(forwarded);
  return forwarded;
}

bool NodDpEngine::SplitBudget(NodeId node, std::size_t u, std::size_t* child_budget) const {
  const Cost cost = CostAt(f_[node], u);
  RPT_CHECK(cost < kInf);
  // G_k from the children's tables; walking back, each earlier prefix is
  // its successor less one child.
  const auto kids = view_.Children(node);
  Table g{1, regions_[node].base};
  for (const NodeId kid : kids) g = Extend(g, f_[kid]);
  const bool use_replica = CostAt(g, u) != cost;  // prefer the replica-free branch
  std::size_t budget = u;
  Cost target = cost;
  if (use_replica) {
    budget = std::min<std::size_t>(g.inv[0], u + std::min(capacity_, g.inv[0]));
    RPT_CHECK(cost >= 1 && CostAt(g, budget) == cost - 1);
    target = cost - 1;
  } else {
    RPT_CHECK(CostAt(g, budget) == cost);
  }

  // Split `budget` among children by walking the prefix tables backwards.
  // The smallest child budget meeting the target keeps ancestors safest. It
  // starts a run of equal child cost, so it is one of the child's inv
  // entries: try them from the last (the smallest budget) up.
  std::size_t v = budget;
  for (std::size_t k = kids.size(); k-- > 0;) {
    const Table& child = f_[kids[k]];
    const std::uint32_t before_len = g.len - child.len + 1;
    const Table before{before_len, g.inv - before_len};
    bool found = false;
    for (std::size_t i = child.len; i-- > 0 && child.inv[i] <= v;) {
      const auto child_cost = static_cast<Cost>(i);
      const std::size_t rest = std::min<std::size_t>(v - child.inv[i], before.inv[0]);
      const Cost rest_cost = CostAt(before, rest);
      if (rest_cost < kInf && rest_cost + child_cost == target) {
        child_budget[k] = child.inv[i];
        target -= child_cost;
        v = rest;
        found = true;
        break;
      }
    }
    RPT_CHECK(found);
    g = before;
  }
  return use_replica;
}

NodDpEngine::InverseTable NodDpEngine::TableOf(NodeId node) const {
  RPT_REQUIRE(computed_, "NodDpEngine: TableOf requires up-to-date tables");
  const Table& table = f_[CheckNode(node)];
  return {table.inv, table.inv + table.len};
}

void NodDpEngine::ImportLeafTable(NodeId leaf, InverseTable table) {
  RPT_REQUIRE(view_.IsLive(CheckNode(leaf)), "NodDpEngine: imported tables belong to live nodes");
  RPT_REQUIRE(view_.IsClient(leaf), "NodDpEngine: imported tables belong to client leaves");
  RPT_REQUIRE(!table.empty() && table[0] == view_.SubtreeRequests(leaf),
              "NodDpEngine: imported table must start at the leaf demand");
  RPT_REQUIRE(IsConvex(table),
              "NodDpEngine: imported table must be strictly decreasing and convex");
  imported_[leaf] = std::move(table);
  computed_ = false;  // any previously stored leaf table is stale until the next pass
}

std::vector<NodDpEngine::ImportBudget> NodDpEngine::AssignImportedBudgets() const {
  RPT_REQUIRE(computed_, "NodDpEngine: AssignImportedBudgets requires up-to-date tables");
  RPT_REQUIRE(Feasible(), "NodDpEngine: AssignImportedBudgets requires a feasible state");
  std::vector<ImportBudget> out;
  if (imported_.empty()) return out;
  out.reserve(imported_.size());
  // Iterative root-down sweep; order of visit is irrelevant (budgets flow
  // strictly downward), the result is sorted for determinism.
  std::vector<std::pair<NodeId, std::size_t>> stack{{view_.Root(), 0}};
  std::vector<std::size_t> child_budget;
  while (!stack.empty()) {
    const auto [node, budget] = stack.back();
    stack.pop_back();
    const Table& table = f_[node];
    RPT_CHECK(table.len > 0);
    const std::size_t u = std::min<std::size_t>(budget, table.inv[0]);
    if (view_.IsClient(node)) {
      if (imported_.contains(node)) out.push_back(ImportBudget{node, u});
      continue;
    }
    const auto kids = view_.Children(node);
    if (kids.empty()) continue;  // childless root of a one-node tree
    child_budget.resize(kids.size());
    SplitBudget(node, u, child_budget.data());
    for (std::size_t k = 0; k < kids.size(); ++k) stack.emplace_back(kids[k], child_budget[k]);
  }
  std::sort(out.begin(), out.end(),
            [](const ImportBudget& a, const ImportBudget& b) { return a.leaf < b.leaf; });
  RPT_CHECK(out.size() == imported_.size());
  return out;
}

NodDpEngine::BudgetedBacktrack NodDpEngine::BacktrackWithBudget(std::size_t budget) {
  RPT_REQUIRE(computed_, "NodDpEngine: BacktrackWithBudget requires up-to-date tables");
  RPT_REQUIRE(CostAt(f_[view_.Root()], budget) < kInf,
              "NodDpEngine: no feasible reconstruction at this budget");
  pend_entries_.clear();
  BudgetedBacktrack out;
  const PendChain chain = BacktrackNode(view_.Root(), budget, out.solution);
  out.forwarded.reserve(16);
  for (std::uint32_t e = chain.head; e != kPendNil; e = pend_entries_[e].next) {
    out.forwarded.emplace_back(pend_entries_[e].client, pend_entries_[e].amount);
  }
  return out;
}

Solution NodDpEngine::Backtrack() {
  RPT_REQUIRE(Feasible(), "NodDpEngine: Backtrack requires a feasible state");
  pend_entries_.clear();
  Solution solution;
  // Consecutive solutions of a low-churn stream have near-identical sizes;
  // pre-sizing to the previous one removes the per-call regrowth churn.
  solution.replicas.reserve(last_replica_count_);
  solution.assignment.reserve(last_assignment_count_);
  const PendChain leftover = BacktrackNode(view_.Root(), 0, solution);
  RPT_CHECK(leftover.head == kPendNil && leftover.total == 0);
  last_replica_count_ = solution.replicas.size();
  last_assignment_count_ = solution.assignment.size();
  solution.Canonicalize();
  return solution;
}

}  // namespace rpt::multiple
