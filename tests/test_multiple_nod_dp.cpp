// Tests for the Multiple-NoD exact DP: hand-checkable optima, feasibility
// edge cases (clients larger than W on short chains), agreement with the
// exhaustive Multiple solver on small random trees, and every node's table
// against a naive request-domain DP.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <vector>

#include "exact/exact.hpp"
#include "gen/random_tree.hpp"
#include "model/validate.hpp"
#include "multiple/multiple_nod_dp.hpp"
#include "support/rng.hpp"
#include "tree/tree_overlay.hpp"

namespace rpt::multiple {
namespace {

TEST(MultipleNodDp, RejectsDistanceConstraints) {
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  b.AddClient(root, 1, 3);
  const Instance inst(b.Build(), 5, /*dmax=*/2);
  EXPECT_THROW((void)SolveMultipleNodDp(inst), InvalidArgument);
}

TEST(MultipleNodDp, SingleServerWhenEverythingFits) {
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  const NodeId n1 = b.AddInternal(root, 1);
  b.AddClient(n1, 1, 4);
  b.AddClient(n1, 1, 5);
  const Instance inst(b.Build(), 9, kNoDistanceLimit);
  const auto result = SolveMultipleNodDp(inst);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(IsFeasible(inst, Policy::kMultiple, result.solution));
  EXPECT_EQ(result.solution.ReplicaCount(), 1u);
}

TEST(MultipleNodDp, SplitsClientAcrossPathServers) {
  // One client with 18 requests on a 3-node path, W = 8: needs all three
  // nodes (8+8+2), splitting its demand — something Single can never do.
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  const NodeId n1 = b.AddInternal(root, 1);
  b.AddClient(n1, 1, 18);
  const Instance inst(b.Build(), 8, kNoDistanceLimit);
  const auto result = SolveMultipleNodDp(inst);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(IsFeasible(inst, Policy::kMultiple, result.solution));
  EXPECT_EQ(result.solution.ReplicaCount(), 3u);
}

TEST(MultipleNodDp, DetectsInfeasibleGiantClient) {
  // 25 requests but only 2 nodes on the root path: 2 * W = 16 < 25.
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  b.AddClient(root, 1, 25);
  const Instance inst(b.Build(), 8, kNoDistanceLimit);
  const auto result = SolveMultipleNodDp(inst);
  EXPECT_FALSE(result.feasible);
  EXPECT_TRUE(result.solution.replicas.empty());
}

TEST(MultipleNodDp, StarNeedsClientReplicas) {
  // Root with 3 clients of 0.6W each: the root alone cannot absorb 1.8W, and
  // client replicas only serve themselves; optimum is 3.
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  b.AddClient(root, 1, 6);
  b.AddClient(root, 1, 6);
  b.AddClient(root, 1, 6);
  const Instance inst(b.Build(), 10, kNoDistanceLimit);
  const auto result = SolveMultipleNodDp(inst);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(IsFeasible(inst, Policy::kMultiple, result.solution));
  EXPECT_EQ(result.solution.ReplicaCount(), 3u);
}

TEST(MultipleNodDp, ZeroRequestsZeroReplicas) {
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  b.AddClient(root, 1, 0);
  const Instance inst(b.Build(), 5, kNoDistanceLimit);
  const auto result = SolveMultipleNodDp(inst);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.solution.ReplicaCount(), 0u);
}

struct DpCase {
  std::uint32_t internal_nodes;
  std::uint32_t clients;
  std::uint32_t max_children;
  Requests capacity;
  Requests max_requests;  // may exceed capacity: splitting must cope
};

// Names the case in gtest output and, through PrintToStringParamName, in
// ctest; without it gtest prints the struct's raw bytes, padding included,
// which vary from build to build.
void PrintTo(const DpCase& c, std::ostream* os) {
  *os << "internal" << c.internal_nodes << "_clients" << c.clients << "_children"
      << c.max_children << "_W" << c.capacity << "_maxreq" << c.max_requests;
}

class MultipleNodDpAgreement : public ::testing::TestWithParam<DpCase> {};

TEST_P(MultipleNodDpAgreement, MatchesExhaustiveOptimum) {
  const auto& param = GetParam();
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    gen::RandomTreeConfig cfg;
    cfg.internal_nodes = param.internal_nodes;
    cfg.clients = param.clients;
    cfg.max_children = param.max_children;
    cfg.min_requests = 1;
    cfg.max_requests = param.max_requests;
    const Instance inst(gen::GenerateRandomTree(cfg, 8000 + seed), param.capacity,
                        kNoDistanceLimit);
    const auto dp = SolveMultipleNodDp(inst);
    const auto opt = exact::SolveExactMultiple(inst);
    ASSERT_EQ(dp.feasible, opt.feasible) << "seed=" << seed;
    if (!dp.feasible) continue;
    const auto report = ValidateSolution(inst, Policy::kMultiple, dp.solution);
    ASSERT_TRUE(report.ok) << "seed=" << seed << ": " << report.Describe();
    EXPECT_EQ(dp.solution.ReplicaCount(), opt.solution.ReplicaCount()) << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MultipleNodDpAgreement,
                         ::testing::Values(DpCase{3, 7, 3, 8, 8},
                                           DpCase{3, 7, 3, 8, 14},   // r_i > W occurs
                                           DpCase{5, 6, 2, 5, 5},
                                           DpCase{2, 8, 5, 10, 10},
                                           DpCase{4, 6, 4, 6, 17}),  // heavy splitting
                         ::testing::PrintToStringParamName());

// ---------------------------------------------------------------------------
// The engine's cost-domain tables against the textbook request-domain DP.
// ---------------------------------------------------------------------------

using CostTable = std::vector<NodDpEngine::Cost>;  // entry u: F(u), u = 0..demand
constexpr NodDpEngine::Cost kInf = NodDpEngine::kInfCost;

// An engine table in the request domain: F(u) is the least i with inv[i] <= u.
CostTable Expand(const NodDpEngine::InverseTable& inv) {
  CostTable out(static_cast<std::size_t>(inv[0]) + 1, kInf);
  auto hi = out.end();
  for (std::size_t i = 0; i < inv.size(); ++i) {
    const auto lo = out.begin() + static_cast<std::ptrdiff_t>(inv[i]);
    std::fill(lo, hi, static_cast<NodDpEngine::Cost>(i));
    hi = lo;
  }
  return out;
}

// Client leaf: forward all r at cost 0, or serve min(r, W) at cost 1.
CostTable NaiveLeaf(Requests r, Requests capacity) {
  CostTable table(static_cast<std::size_t>(r) + 1, kInf);
  for (Requests u = r > capacity ? r - capacity : 0; u <= r; ++u) table[u] = 1;
  table[r] = 0;
  return table;
}

// O(|a| * |b|) min-plus convolution, closed under "forward less".
CostTable NaiveConvolve(const CostTable& a, const CostTable& b) {
  CostTable out(a.size() + b.size() - 1, kInf);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      if (a[i] < kInf && b[j] < kInf) out[i + j] = std::min(out[i + j], a[i] + b[j]);
    }
  }
  for (std::size_t u = 1; u < out.size(); ++u) out[u] = std::min(out[u], out[u - 1]);
  return out;
}

// F(u) = min(G(u), 1 + G(min(total, u + min(W, total)))).
CostTable NaiveNodeStep(const CostTable& g, Requests capacity) {
  const std::size_t total = g.size() - 1;
  const std::size_t w = std::min<std::size_t>(capacity, total);
  CostTable f = g;
  for (std::size_t u = 0; u <= total; ++u) {
    const std::size_t relaxed = std::min(total, u + w);
    if (g[relaxed] < kInf) f[u] = std::min(f[u], g[relaxed] + 1);
  }
  return f;
}

// Compares TableOf on every live node with the naive DP over the overlay's
// current state; returns the number of tables compared.
std::size_t ExpectTablesMatchNaive(const NodDpEngine& engine, const TreeOverlay& overlay,
                                   Requests capacity, const char* stage, std::uint64_t seed) {
  std::vector<CostTable> naive(overlay.Size());
  std::size_t compared = 0;
  for (const NodeId id : overlay.PostOrder()) {
    if (overlay.IsClient(id)) {
      naive[id] = NaiveLeaf(overlay.RequestsOf(id), capacity);
    } else {
      CostTable g{0};
      for (const NodeId child : overlay.Children(id)) g = NaiveConvolve(g, naive[child]);
      naive[id] = NaiveNodeStep(g, capacity);
    }
    EXPECT_EQ(Expand(engine.TableOf(id)), naive[id]) << stage << " seed=" << seed << " node=" << id;
    ++compared;
  }
  return compared;
}

TEST(MultipleNodDpTables, MatchNaiveRequestDomainDp) {
  const Requests capacities[] = {1, 3, 7, 10, 30, 41};
  std::size_t compared = 0;
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    Rng rng(9100 + seed);
    const Requests capacity = capacities[seed % 6];
    gen::RandomTreeConfig cfg;
    cfg.max_children = 2 + static_cast<std::uint32_t>(rng.NextBelow(6));  // arity 2..7
    cfg.internal_nodes = 1 + static_cast<std::uint32_t>(rng.NextBelow(10));
    cfg.clients = std::min(cfg.internal_nodes * (cfg.max_children - 1) + 1,
                           cfg.internal_nodes + static_cast<std::uint32_t>(rng.NextBelow(20)));
    cfg.min_requests = 0;
    cfg.max_requests = 2 * capacity + 5;
    TreeOverlay overlay(gen::GenerateRandomTree(cfg, 500 + seed));
    NodDpEngine engine(overlay, capacity);
    engine.ComputeAll();
    compared += ExpectTablesMatchNaive(engine, overlay, capacity, "ComputeAll", seed);

    // Demand writes, re-solved along their root paths.
    std::vector<NodeId> touched;
    for (int k = 0; k < 4; ++k) {
      const auto clients = overlay.Clients();
      const NodeId client = clients[rng.NextBelow(clients.size())];
      overlay.SetRequests(client, rng.NextBelow(2 * capacity + 6));
      touched.push_back(client);
    }
    engine.RecomputeDirty(touched);
    compared += ExpectTablesMatchNaive(engine, overlay, capacity, "RecomputeDirty", seed);

    // One detach (of a node whose parent keeps another child) and one
    // attach of a two-client pod, as the incremental solver stages them.
    std::vector<NodeId> seeds;
    std::vector<NodeId> children_changed;
    std::vector<NodeId> removed;
    std::vector<NodeId> detachable;
    for (const NodeId id : overlay.PostOrder()) {
      if (id != overlay.Root() && overlay.Children(overlay.Parent(id)).size() >= 2) {
        detachable.push_back(id);
      }
    }
    if (!detachable.empty()) {
      const NodeId victim = detachable[rng.NextBelow(detachable.size())];
      const NodeId parent = overlay.Parent(victim);
      overlay.DetachSubtree(victim, &removed);
      seeds.push_back(parent);
      children_changed.push_back(parent);
    }
    std::vector<NodeId> internals;
    for (const NodeId id : overlay.PostOrder()) {
      if (!overlay.IsClient(id)) internals.push_back(id);
    }
    SubtreeSpec pod;
    pod.nodes.push_back({NodeKind::kInternal, 0, 1, 0});
    pod.nodes.push_back({NodeKind::kClient, 0, 1, rng.NextBelow(2 * capacity + 6)});
    pod.nodes.push_back({NodeKind::kClient, 0, 1, rng.NextBelow(2 * capacity + 6)});
    const NodeId first = overlay.AttachSubtree(internals[rng.NextBelow(internals.size())], pod);
    for (NodeId id = first; id < overlay.Size(); ++id) seeds.push_back(id);
    engine.ApplyTopology(overlay, children_changed, removed);
    engine.RecomputeDirty(seeds);
    compared += ExpectTablesMatchNaive(engine, overlay, capacity, "ApplyTopology", seed);
  }
  EXPECT_GT(compared, 5000u);
}

// One engine driven through a long mixed stream on one overlay: demand
// writes of both signs (regions shrink in place, grow out of place) and
// attaches, detaches and migrations. The tree grows for the first half of
// the stream and shrinks in the second, so the slabs fill with regions left
// behind. A fresh engine on the same overlay holds exactly the live
// entries: it bounds the stream engine's slabs after every batch and checks
// its tables and solution every 50 batches.
TEST(MultipleNodDpTables, StorageStaysBoundedOnLongStreams) {
  constexpr Requests kCapacity = 6;
  constexpr int kBatches = 2000;
  Rng rng(4242);
  gen::RandomTreeConfig cfg;
  cfg.internal_nodes = 200;
  cfg.clients = 600;
  cfg.max_children = 4;
  cfg.min_requests = 0;
  cfg.max_requests = kCapacity;  // every client fits its own replica: always feasible
  TreeOverlay overlay(gen::GenerateRandomTree(cfg, 77));
  NodDpEngine engine(overlay, kCapacity);
  engine.ComputeAll();
  (void)engine.Backtrack();

  const auto live_nodes = [&](bool internal_only) {
    std::vector<NodeId> out;
    for (const NodeId id : overlay.PostOrder()) {
      if (!internal_only || !overlay.IsClient(id)) out.push_back(id);
    }
    return out;
  };
  for (int batch = 1; batch <= kBatches; ++batch) {
    const bool growing = batch <= kBatches / 2;
    std::vector<NodeId> seeds;
    std::vector<NodeId> children_changed;
    std::vector<NodeId> removed;
    const std::uint64_t kind = rng.NextBelow(4);
    if (kind == 0 && growing) {  // attach a pod of two to four clients
      const auto internals = live_nodes(true);
      SubtreeSpec pod;
      pod.nodes.push_back({NodeKind::kInternal, 0, 1, 0});
      for (std::uint64_t k = 0; k < 2 + rng.NextBelow(3); ++k) {
        pod.nodes.push_back({NodeKind::kClient, 0, 1, rng.NextBelow(kCapacity + 1)});
      }
      const NodeId first = overlay.AttachSubtree(internals[rng.NextBelow(internals.size())], pod);
      for (NodeId id = first; id < overlay.Size(); ++id) seeds.push_back(id);
    } else if (kind == 0 || kind == 1) {  // detach or migrate; the parent keeps a child
      std::vector<NodeId> movable;
      for (const NodeId id : live_nodes(false)) {
        if (id != overlay.Root() && overlay.Children(overlay.Parent(id)).size() >= 2 &&
            overlay.SubtreeSize(id) <= 60) {
          movable.push_back(id);
        }
      }
      const NodeId victim = movable[rng.NextBelow(movable.size())];
      const NodeId parent = overlay.Parent(victim);
      if (kind == 0 && overlay.LiveCount() > 400) {
        overlay.DetachSubtree(victim, &removed);
      } else {
        std::vector<NodeId> targets;
        for (const NodeId id : live_nodes(true)) {
          if (!overlay.IsAncestorOrSelf(victim, id)) targets.push_back(id);
        }
        const NodeId target = targets[rng.NextBelow(targets.size())];
        overlay.MigrateSubtree(victim, target, 1);
        seeds.push_back(target);
        seeds.push_back(victim);
      }
      seeds.push_back(parent);
      children_changed.push_back(parent);
    }
    if (!seeds.empty()) engine.ApplyTopology(overlay, children_changed, removed);
    // Demand writes, up or down, in every batch.
    const std::vector<NodeId> clients(overlay.Clients().begin(), overlay.Clients().end());
    for (std::uint64_t k = 0; k < 1 + rng.NextBelow(6); ++k) {
      const NodeId client = clients[rng.NextBelow(clients.size())];
      overlay.SetRequests(client, rng.NextBelow(kCapacity + 1));
      seeds.push_back(client);
    }
    engine.RecomputeDirty(seeds);
    // Backtracking now and then records and replays solution fragments
    // across the stream, as the incremental solver does after every batch.
    const Solution solution = batch % 10 == 0 ? engine.Backtrack() : Solution{};

    NodDpEngine fresh(overlay, kCapacity);
    fresh.ComputeAll();
    ASSERT_LE(engine.Work().storage_entries,
              2 * fresh.Work().storage_entries + (std::uint64_t{1} << 16))
        << "batch " << batch;
    if (batch % 50 != 0) continue;
    for (const NodeId id : overlay.PostOrder()) {
      ASSERT_EQ(engine.TableOf(id), fresh.TableOf(id)) << "batch " << batch << " node " << id;
    }
    const Solution expected = fresh.Backtrack();
    ASSERT_EQ(solution.replicas, expected.replicas) << "batch " << batch;
    ASSERT_EQ(solution.assignment, expected.assignment) << "batch " << batch;
  }
  EXPECT_GE(engine.Work().compactions, 1u);
}

TEST(MultipleNodDpTables, ImportRefusesNonConvexTable) {
  // A demand-4 boundary leaf. No subtree produces a table that repeats an
  // entry, whose steps grow, or whose entry 0 is not the demand (forwarding
  // less than all of it takes a replica).
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  const NodeId leaf = b.AddClient(root, 1, 4);
  b.AddClient(root, 1, 2);
  const Tree tree = b.Build();
  NodDpEngine engine(tree, 3);
  EXPECT_THROW(engine.ImportLeafTable(leaf, {4, 2, 2, 0}), InvalidArgument);
  EXPECT_THROW(engine.ImportLeafTable(leaf, {2, 2, 0}), InvalidArgument);  // skips cost 1
  EXPECT_THROW(engine.ImportLeafTable(leaf, {4, 3, 0}), InvalidArgument);  // steps 1, then 3
  EXPECT_THROW(engine.ImportLeafTable(leaf, {3, 1, 0}), InvalidArgument);  // convex, but 3 != 4
  // The table a subtree of two demand-2 clients under one node does produce
  // (W = 3) installs and solves.
  engine.ImportLeafTable(leaf, {4, 1, 0});
  engine.ComputeAll();
  EXPECT_EQ(engine.TableOf(leaf), (NodDpEngine::InverseTable{4, 1, 0}));
  EXPECT_TRUE(engine.Feasible());
}

}  // namespace
}  // namespace rpt::multiple
