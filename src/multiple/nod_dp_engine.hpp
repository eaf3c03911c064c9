// Reusable core of the Multiple-NoD tree-knapsack DP, factored out of
// SolveMultipleNodDp so the same tables can serve both batch solves and the
// incremental re-solve engine (src/incremental/).
//
// The engine owns the DP tables for one tree: the per-node F tables (F_j(u)
// = min replicas in subtree(j) forwarding at most u requests above j) and
// the per-internal-node prefix tables G_0..G_k used by backtracking. Every
// table is stored in the cost domain, as its inverse staircase: inv[i] is
// the fewest requests forwarded at cost <= i, so inv[0] is the demand the
// table covers (forwarding all of it costs nothing). Because W is uniform,
// every table is convex (its steps inv[i-1] - inv[i] never grow with i),
// which makes the DP linear in table length:
//  * a table has at most one entry per node it covers, plus one, whatever
//    the demand — each entry past the first is one more replica;
//  * merging a child into the prefix chain is a steepest-step-first merge
//    of the two step lists, O(|a| + |b|);
//  * the node step (a replica here absorbs up to W) is one pass over G;
//  * reconstruction reads F_j(u) by binary search.
// Storage: a table is a (len, inv*) view into engine-owned slabs. A node's
// region holds a leaf's F, or an internal node's prefix chain G_0..G_k then
// F (reserved at |G_k| + 1); prefix lengths follow from the children's F
// tables. Each parallel chunk of a level reserves its nodes' regions before
// merging: a region is rewritten in place when the new tables fit, else
// moved to the chunk's new slab, exact in a full pass and with 1/8 slack in
// an incremental one. Past 2 x live + 64 Ki slab entries every live region
// is compacted, so a long-lived engine stays bounded. The same inverse form
// crosses the engine's boundary: TableOf copies an F table out, and
// ImportLeafTable takes one in, as an InverseTable.
// Demand is not engine state: every pass reads RequestsOf/SubtreeRequests
// from the view it runs over. Two forward passes share every kernel:
//
//  * ComputeAll()       — the classic full pass: level-synchronous sweep
//                         deepest-first, parallel chunks within a level on
//                         the process-wide SolverPool(). This is exactly
//                         what SolveMultipleNodDp runs.
//  * RecomputeDirty(S)  — the incremental pass: given the set S of touched
//                         nodes, only the union of their root paths is
//                         re-processed (children before parents, parallel
//                         within a level across independent dirty chains);
//                         every untouched subtree keeps its tables verbatim.
//                         At a dirty internal node the prefix chain is
//                         reused up to the first dirty child, so a change
//                         under the last child re-runs only the tail merges.
//
// Invariant: after either pass, every table equals exactly what a
// from-scratch ComputeAll() over the current (demands, capacity) state
// would produce — recomputed nodes see identical inputs (their children's
// tables), and the DP itself is deterministic at any thread count. This is
// what makes the incremental solver's solutions bit-identical to the batch
// oracle (asserted by tests/test_incremental.cpp).
//
// Mutation: the engine runs over a TopologyView, so the same tables serve an
// immutable CSR Tree and a mutable TreeOverlay. A demand change in the view
// needs no engine call: the owner seeds the next RecomputeDirty() with the
// changed clients. After a batch of overlay topology mutations the owner
// calls ApplyTopology() with the lists of parents whose child sets changed
// and of removed node ids; the engine resizes its per-node state, rebuilds
// the level buckets over live nodes, and marks the changed parents so the
// next incremental pass rebuilds their prefix chains from child 0 (a
// mid-list child removal shifts prefix indices; an append reuses the chain
// as-is).
// The key locality fact: F_j depends only on (subtree(j) demands, W) —
// never on depth, parent, or edge lengths — so a migration invalidates
// only the old and new parent chains while the migrated subtree's tables
// and fragments stay valid verbatim, and a link-capacity change dirties
// nothing at all.
//
// Ownership/lifetime: the engine stores a TopologyView by value; the
// backing Tree/TreeOverlay must outlive it and must not mutate during a
// pass. Demand lives in the view's request column, NOT in the engine: a
// demand write is followed by a RecomputeDirty() seeded with the client, a
// topology change by ApplyTopology(). Not thread-safe: one engine per thread
// of control; the internal parallelism is fork-join and fully contained in
// the passes, whose workers only read the view.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/solution.hpp"
#include "tree/topology_view.hpp"

namespace rpt::multiple {

/// Counters describing the work and footprint of the DP passes run so far.
/// All counts are exact and identical at any thread count: integer sums over
/// relaxed atomics or under the slab lock.
struct NodDpWork {
  /// Cost-domain entries (8 bytes each) written across all F and prefix
  /// tables.
  std::uint64_t table_entries = 0;
  /// Entries written by the child merges of the prefix chains, the
  /// dominant arithmetic of the forward passes.
  std::uint64_t convolve_cells = 0;
  /// Nodes processed (a node re-processed by several passes counts each
  /// time).
  std::uint64_t nodes_processed = 0;
  /// Entries (8 bytes each) the slabs hold now, live or slack; not cumulative.
  std::uint64_t storage_entries = 0;
  /// Times the slabs were compacted.
  std::uint64_t compactions = 0;
};

/// The Multiple-NoD DP state machine. Typical batch use:
///   NodDpEngine engine(tree, capacity);
///   engine.ComputeAll();
///   if (engine.Feasible()) Solution s = engine.Backtrack();
/// Incremental use changes demand in the backing overlay and replaces later
/// ComputeAll() calls with one RecomputeDirty(touched) per update batch.
class NodDpEngine {
 public:
  using Cost = std::uint32_t;
  /// An F table as it leaves or enters the engine: entry i is the fewest
  /// requests the subtree forwards with i replicas, and entry 0 is its
  /// demand. Entries strictly decrease, in steps that never grow.
  using InverseTable = std::vector<Requests>;

  /// Sentinel cost: no placement forwards that little.
  static constexpr Cost kInfCost = std::numeric_limits<Cost>::max() / 2;

  /// Demands are the view's client request column, read on every pass.
  /// `capacity` is the uniform server capacity W (> 0). The backing
  /// tree/overlay must outlive the engine. (TopologyView converts implicitly
  /// from `const Tree&` and `const TreeOverlay&`, so batch call sites pass
  /// the tree directly.)
  NodDpEngine(TopologyView view, Requests capacity);

  NodDpEngine(const NodDpEngine&) = delete;
  NodDpEngine& operator=(const NodDpEngine&) = delete;

  /// Full forward pass over every node. Must run once before Feasible() /
  /// Backtrack(); also the recovery path after SetCapacity (a capacity
  /// change invalidates every table, there is no partial recompute for it).
  void ComputeAll();

  /// Incremental forward pass: re-processes exactly the union of root paths
  /// of `touched` — client leaves whose demand changed in the view, or
  /// (after ApplyTopology) any live node whose subtree membership changed.
  /// Requires a completed ComputeAll(). Touched ids may repeat; the dirty
  /// set is deduplicated internally.
  void RecomputeDirty(std::span<const NodeId> touched);

  /// Synchronizes the engine with a mutated topology. `view` is the view to
  /// bind from now on (typically the same overlay, rebound after cloning);
  /// `children_changed` lists live internal nodes whose child LIST changed
  /// other than by appending (detach/migrate-out parents) — their prefix
  /// chains are force-rebuilt on the next incremental pass; `removed` lists
  /// node ids tombstoned by the batch (their tables and fragments are
  /// dropped). The caller must follow with RecomputeDirty() seeded by the
  /// event roots (or ComputeAll()) before querying results.
  void ApplyTopology(TopologyView view, std::span<const NodeId> children_changed,
                     std::span<const NodeId> removed);

  /// Changes the uniform capacity W (> 0). Every table becomes stale; the
  /// caller must run ComputeAll() before querying results again.
  void SetCapacity(Requests capacity);

  [[nodiscard]] Requests TotalDemand() const noexcept { return view_.TotalRequests(); }

  /// True iff the current state admits a feasible Multiple-NoD placement
  /// (F_root(0) finite). Requires up-to-date tables.
  [[nodiscard]] bool Feasible() const;

  /// The F table of `node` (at most one entry per node of its subtree, plus
  /// one). Exposed for the sharded solve's boundary-table export and for
  /// tests.
  [[nodiscard]] InverseTable TableOf(NodeId node) const;

  /// Reconstructs an optimal placement + routing from the tables; requires
  /// Feasible(). The returned solution is canonicalized and identical to
  /// what SolveMultipleNodDp would return on the equivalent instance.
  ///
  /// Backtrack is incremental too: each clean subtree (not re-processed
  /// since the previous Backtrack) asked for the same forwarded budget
  /// replays its recorded solution fragment instead of recursing — valid
  /// because the reconstruction is a pure function of (subtree tables,
  /// budget), both unchanged. Recursion descends only into dirty chains and
  /// budget-shifted subtrees, so a low-churn re-solve rebuilds the solution
  /// in roughly O(|solution| + dirty work).
  [[nodiscard]] Solution Backtrack();

  // --- Sharded solve (src/shard/) -----------------------------------------
  //
  // The DP composes across a subtree cut: F_j depends only on (subtree(j)
  // demands, W), so a cut subtree solved elsewhere is fully represented at
  // the cut point by its F table. The coordinator builds a *spine* tree in
  // which each cut subtree collapses to one client leaf carrying the
  // subtree's demand, imports the shipped tables below, and runs the normal
  // passes — every spine table comes out byte-identical to the same node's
  // table in the unsharded engine. Reconstruction splits in two: the budget
  // sweep (AssignImportedBudgets) tells each worker how much its subtree may
  // forward, and the final Backtrack() replays each worker's forwarded
  // pending list through the provider hook so upstream replicas absorb
  // requests exactly as the unsharded backtrack would.

  /// Installs the boundary table of the cut subtree behind `leaf` (a client
  /// leaf whose requests equal the subtree's demand). The table must be the
  /// subtree root's F table as TableOf returns it: entry 0 equal to the
  /// leaf's demand, strictly decreasing and convex (no subtree produces
  /// anything else; InvalidArgument otherwise). Forward passes install it
  /// instead of the standard client table; tables become stale until the
  /// next ComputeAll().
  void ImportLeafTable(NodeId leaf, InverseTable table);

  /// Budget assigned to one imported leaf by the downward budget sweep.
  struct ImportBudget {
    NodeId leaf = kInvalidNode;
    std::size_t budget = 0;  ///< requests the cut subtree may forward above its root
  };

  /// The downward half of a sharded reconstruction, without building any
  /// solution: walks budgets from the root (budget 0) through SplitBudget —
  /// the exact table arithmetic Backtrack() uses — and returns each imported
  /// leaf's clamped budget, ascending by leaf id. Requires Feasible().
  /// Because budgets are a pure function of the tables, the budget each
  /// worker solves against is identical to the budget the final Backtrack()
  /// asks of that leaf.
  [[nodiscard]] std::vector<ImportBudget> AssignImportedBudgets() const;

  /// Supplies, for an imported leaf reached at `budget`, the (client, amount)
  /// list the cut subtree's reconstruction forwards above its root — in
  /// chain order, ids already translated by the caller. Backtrack() replays
  /// it as the leaf's pending chain (the fragment's replicas and entries are
  /// spliced into the final solution by the coordinator, not here).
  using ImportedFragmentFn =
      std::function<std::span<const std::pair<NodeId, Requests>>(NodeId leaf, std::size_t budget)>;
  void SetImportedFragmentProvider(ImportedFragmentFn provider) {
    imported_provider_ = std::move(provider);
  }

  /// A worker-side reconstruction at a nonzero root budget.
  struct BudgetedBacktrack {
    Solution solution;  ///< NOT canonicalized: the caller splices it first
    std::vector<std::pair<NodeId, Requests>> forwarded;  ///< chain order, preserved
  };

  /// The worker-side generalization of Backtrack(): reconstructs this tree's
  /// solution when the root may forward up to `budget` requests, returning
  /// the solution slice plus the forwarded (client, amount) list in chain
  /// order. Backtrack() is BacktrackWithBudget(0) plus the nothing-left-over
  /// check and canonicalization.
  [[nodiscard]] BudgetedBacktrack BacktrackWithBudget(std::size_t budget);

  /// Cumulative work counters over the engine's lifetime.
  [[nodiscard]] const NodDpWork& Work() const noexcept { return work_; }

  /// Nodes re-processed by the most recent forward pass (ComputeAll counts
  /// every node).
  [[nodiscard]] std::uint64_t LastPassNodes() const noexcept { return last_pass_nodes_; }

 private:
  // One DP table in the cost domain, viewed in a slab: inv[i], i < len, is
  // the fewest requests forwarded at cost <= i, strictly decreasing and
  // convex. inv[0] is the demand the table spans (the subtree's for F, the
  // children's running sum for a prefix). Below inv[len - 1] no placement
  // exists (cost kInfCost).
  struct Table {
    std::uint32_t len = 0;
    Requests* inv = nullptr;
  };
  // A node's slab storage: `cap` entries at `base`; its tables need `need`.
  struct Region {
    Requests* base = nullptr;
    std::size_t cap = 0;
    std::size_t need = 0;
  };
  struct ChunkCounters {
    std::uint64_t entries = 0;
    std::uint64_t cells = 0;
    std::uint64_t live = 0;  // change of live_entries_ (modular)
  };

  NodeId CheckNode(NodeId id) const {
    RPT_REQUIRE(id < view_.Size(), "NodDpEngine: node id out of range");
    return id;
  }

  /// F(u): the table's cost at forwarded budget u, kInfCost when no
  /// placement forwards that little.
  static Cost CostAt(const Table& table, std::size_t u);
  /// Length and place of the prefix after `p` once child table `c` is merged in.
  static Table Extend(const Table& p, const Table& c) {
    return {p.len + c.len - 1, p.inv + p.len};
  }
  /// Writes out = a (+) b, the min-plus convolution of convex tables; out = Extend(a, b).
  static void MergeSteps(const Table& a, const Table& b, const Table& out);
  /// Reserves the regions of one chunk of a level (see the header comment).
  void PlaceChunk(std::span<const NodeId> nodes, bool incremental, ChunkCounters& counters);
  /// Moves `nodes` into one new slab of `entries`, copying tables if `carry`.
  void MoveRegions(std::span<const NodeId> nodes, std::size_t entries, bool carry);
  /// Past 2 x live + 64 Ki slab entries, repacks every live region exactly.
  void CompactIfSparse();
  /// Recomputes f_[node]; for internal nodes the prefix chain is rebuilt
  /// from child index `first_child` on (0 = full rebuild). All children must
  /// already be up to date.
  void ProcessNode(NodeId node, std::size_t first_child, ChunkCounters& counters);
  /// Sweeps the per-level node buckets deepest-first, parallel within each
  /// level; `levels` holds node ids bucketed by depth.
  void SweepLevels(const std::vector<std::vector<NodeId>>& levels, bool incremental);

  // Pending requests travelling upward during reconstruction, stored as
  // arena-chained (client, amount) entries so concatenation is O(1) and a
  // replica's absorption is a prefix drop — Backtrack allocates nothing in
  // steady state (the arena vector is reused across calls).
  struct PendEntry {
    NodeId client = kInvalidNode;
    Requests amount = 0;
    std::uint32_t next = 0;
  };
  struct PendChain {
    std::uint32_t head = 0;  // kPendNil when empty
    std::uint32_t tail = 0;
    Requests total = 0;
  };
  // Recorded reconstruction of one subtree: the solution slice it appended
  // and the pending list it forwarded, replayable while the subtree stays
  // clean and the budget matches. built_pass == 0 means "never built".
  struct FragmentCache {
    std::uint64_t built_pass = 0;
    std::size_t budget = 0;
    std::vector<NodeId> replicas;
    std::vector<ServiceEntry> entries;
    std::vector<std::pair<NodeId, Requests>> forwarded;

    [[nodiscard]] std::size_t EntryCount() const noexcept {
      return replicas.size() + entries.size() + forwarded.size();
    }
  };
  // Hard cap on the summed EntryCount over all cached fragments (~2M
  // entries, tens of MB): every internal node eventually records its whole
  // subtree's slice, which sums to O(|solution| * depth) — fine for the
  // DP's typical workloads, but capped so a pathological stream cannot
  // grow the cache without bound. Past the cap, recording stops (existing
  // fragments may still be replaced in place and still replay); correctness
  // never depends on a fragment being cached.
  static constexpr std::size_t kFragEntryBudget = std::size_t{1} << 21;
  PendChain BacktrackNode(NodeId node, std::size_t budget, Solution& solution);
  /// Appends one pending entry per (client, amount) pair, in order, and
  /// returns them linked as one chain (a replayed forwarded list).
  PendChain ChainOf(std::span<const std::pair<NodeId, Requests>> pending);

  /// Shared table-arithmetic core of reconstruction at internal `node` with
  /// clamped budget `u`: decides the replica bit and splits the (possibly
  /// relaxed) budget among the children by the backwards prefix-table walk,
  /// filling child_budget[0..arity). Returns whether a replica is placed.
  /// Pure function of the tables — BacktrackNode and AssignImportedBudgets
  /// both call it, so a sharded solve's budget sweep and its final backtrack
  /// can never disagree.
  bool SplitBudget(NodeId node, std::size_t u, std::size_t* child_budget) const;

  /// Rebuilds all_levels_/dirty_levels_ over the view's live nodes.
  void RebuildLevels();

  TopologyView view_;
  Requests capacity_;
  std::vector<Table> f_;         // per-node F tables
  std::vector<Region> regions_;  // per-node storage
  std::vector<std::unique_ptr<Requests[]>> slabs_;  // chunks add theirs under the mutex
  std::mutex slabs_mutex_;  // also guards work_.storage_entries during a pass
  std::size_t live_entries_ = 0;  // summed need of the live nodes
  std::vector<std::vector<NodeId>> all_levels_;    // every live node bucketed by depth
  std::vector<std::vector<NodeId>> dirty_levels_;  // reused dirty buckets
  std::vector<std::uint64_t> last_dirty_pass_;     // forward pass that last re-processed a node
  // Pass stamp: when force_prefix_rebuild_[node] equals the running pass,
  // the incremental sweep rebuilds the node's whole prefix chain instead of
  // reusing it up to the first dirty child (set by ApplyTopology for
  // parents that lost or reordered children — the surviving prefixes index
  // the OLD child list and must not be trusted).
  std::vector<std::uint64_t> force_prefix_rebuild_;
  std::uint64_t pass_ = 0;                         // forward passes run so far
  bool computed_ = false;
  NodDpWork work_;
  std::uint64_t last_pass_nodes_ = 0;
  std::vector<PendEntry> pend_entries_;  // Backtrack arena, reused per call
  // Per-node Backtrack fragments: only incremental passes leave nodes clean
  // to record, so a batch solve never allocates the column.
  std::vector<FragmentCache> frag_;
  // Sharded solve: boundary tables imported at client leaves, and the
  // fragment provider Backtrack() replays their forwarded pendings from.
  // Empty (and cost-free on every path) outside the coordinator.
  std::unordered_map<NodeId, InverseTable> imported_;
  ImportedFragmentFn imported_provider_;
  std::size_t frag_entries_total_ = 0;   // summed EntryCount, vs kFragEntryBudget
  std::size_t last_replica_count_ = 0;   // previous solution sizes, for reserve
  std::size_t last_assignment_count_ = 0;
};

}  // namespace rpt::multiple
