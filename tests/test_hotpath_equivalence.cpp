// Refactor-guard tests for the CSR tree core and the de-allocated solver
// hot paths.
//
// Two layers of protection:
//  1. CSR equivalence — every derived Tree accessor (Children, PostOrder,
//     Depth, DistFromRoot, Euler ancestor tests, subtree aggregates) is
//     re-derived here from nothing but Parent()/DistToParent()/RequestsOf()
//     with naive reference traversals and compared on paper instances,
//     generator shapes, and randomized trees.
//  2. Solver-output goldens — (cost, canonical-solution hash) pairs for
//     single-gen, single-nod, single-push, multiple-bin and multiple-nod-dp
//     on seeded instances, captured from the pre-CSR/pre-scratch-buffer
//     implementation (PR 3 baseline). Any behavioral drift in the flattened
//     hot paths shows up as a hash mismatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "gen/paper_instances.hpp"
#include "gen/random_tree.hpp"
#include "gen/shapes.hpp"
#include "model/instance.hpp"
#include "model/solution.hpp"
#include "model/validate.hpp"
#include "multiple/multiple_nod_dp.hpp"

namespace rpt {
namespace {

// ---------------------------------------------------------------------------
// Naive reference traversals (parent pointers only).
// ---------------------------------------------------------------------------

std::vector<std::vector<NodeId>> NaiveChildren(const Tree& tree) {
  std::vector<std::vector<NodeId>> children(tree.Size());
  for (NodeId id = 1; id < tree.Size(); ++id) children[tree.Parent(id)].push_back(id);
  return children;
}

void NaivePostOrderFrom(const std::vector<std::vector<NodeId>>& children, NodeId node,
                        std::vector<NodeId>& out) {
  for (const NodeId child : children[node]) NaivePostOrderFrom(children, child, out);
  out.push_back(node);
}

std::uint32_t NaiveDepth(const Tree& tree, NodeId node) {
  std::uint32_t depth = 0;
  for (NodeId cur = node; cur != tree.Root(); cur = tree.Parent(cur)) ++depth;
  return depth;
}

Distance NaiveDistFromRoot(const Tree& tree, NodeId node) {
  Distance dist = 0;
  for (NodeId cur = node; cur != tree.Root(); cur = tree.Parent(cur)) {
    dist += tree.DistToParent(cur);
  }
  return dist;
}

bool NaiveIsAncestorOrSelf(const Tree& tree, NodeId ancestor, NodeId node) {
  for (NodeId cur = node;; cur = tree.Parent(cur)) {
    if (cur == ancestor) return true;
    if (cur == tree.Root()) return false;
  }
}

void ExpectTreeMatchesNaiveTraversals(const Tree& tree, const std::string& label) {
  SCOPED_TRACE(label);
  const auto children = NaiveChildren(tree);

  // Children: same ids, same (insertion) order.
  std::uint32_t max_arity = 0;
  for (NodeId id = 0; id < tree.Size(); ++id) {
    const auto span = tree.Children(id);
    ASSERT_EQ(span.size(), children[id].size()) << "node " << id;
    EXPECT_TRUE(std::equal(span.begin(), span.end(), children[id].begin())) << "node " << id;
    max_arity = std::max(max_arity, static_cast<std::uint32_t>(children[id].size()));
  }
  EXPECT_EQ(tree.Arity(), max_arity);

  // Post-order: identical sequence to the recursive child-order DFS.
  std::vector<NodeId> naive_post;
  naive_post.reserve(tree.Size());
  NaivePostOrderFrom(children, tree.Root(), naive_post);
  const auto post = tree.PostOrder();
  ASSERT_EQ(post.size(), naive_post.size());
  EXPECT_TRUE(std::equal(post.begin(), post.end(), naive_post.begin()));

  // Depths, root distances, subtree aggregates, Euler ancestor tests.
  Requests total_requests = 0;
  for (NodeId id = 0; id < tree.Size(); ++id) {
    EXPECT_EQ(tree.Depth(id), NaiveDepth(tree, id)) << "node " << id;
    EXPECT_EQ(tree.DistFromRoot(id), NaiveDistFromRoot(tree, id)) << "node " << id;

    Requests subtree_requests = tree.IsClient(id) ? tree.RequestsOf(id) : 0;
    std::uint32_t subtree_size = 1;
    for (const NodeId child : children[id]) {
      subtree_requests += tree.SubtreeRequests(child);
      subtree_size += tree.SubtreeSize(child);
    }
    EXPECT_EQ(tree.SubtreeRequests(id), subtree_requests) << "node " << id;
    EXPECT_EQ(tree.SubtreeSize(id), subtree_size) << "node " << id;
    if (tree.IsClient(id)) total_requests += tree.RequestsOf(id);
  }
  EXPECT_EQ(tree.TotalRequests(), total_requests);
  EXPECT_EQ(tree.SubtreeRequests(tree.Root()), total_requests);

  // Ancestor queries: exhaustive on small trees, strided otherwise.
  const NodeId stride = tree.Size() > 64 ? static_cast<NodeId>(tree.Size() / 37 + 1) : 1;
  for (NodeId a = 0; a < tree.Size(); a += stride) {
    for (NodeId b = 0; b < tree.Size(); b += stride) {
      EXPECT_EQ(tree.IsAncestorOrSelf(a, b), NaiveIsAncestorOrSelf(tree, a, b))
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(CsrTreeEquivalence, PaperInstances) {
  ExpectTreeMatchesNaiveTraversals(gen::BuildTightnessIm(3, 3).instance.GetTree(), "Im(3,3)");
  ExpectTreeMatchesNaiveTraversals(gen::BuildTightnessIm(2, 4).instance.GetTree(), "Im(2,4)");
  ExpectTreeMatchesNaiveTraversals(gen::BuildTightnessFig4(6).instance.GetTree(), "Fig4(6)");
}

TEST(CsrTreeEquivalence, GeneratorShapes) {
  const std::vector<Requests> reqs{3, 1, 4, 1, 5, 9, 2, 6};
  ExpectTreeMatchesNaiveTraversals(gen::MakeStar(7, reqs, 2), "star");
  ExpectTreeMatchesNaiveTraversals(gen::MakeChain(9, 5, 1), "chain");
  ExpectTreeMatchesNaiveTraversals(gen::MakeCaterpillar(reqs, 1), "caterpillar");
}

TEST(CsrTreeEquivalence, RandomizedTrees) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    gen::RandomTreeConfig cfg;
    cfg.internal_nodes = 40;
    cfg.clients = 120;
    cfg.max_children = 5;
    ExpectTreeMatchesNaiveTraversals(gen::GenerateRandomTree(cfg, seed),
                                     "random seed " + std::to_string(seed));
  }
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    gen::BinaryTreeConfig cfg;
    cfg.clients = 100;
    ExpectTreeMatchesNaiveTraversals(gen::GenerateFullBinaryTree(cfg, seed),
                                     "binary seed " + std::to_string(seed));
  }
}

TEST(CsrTreeEquivalence, SingleNodeTree) {
  TreeBuilder b;
  b.AddRoot();
  ExpectTreeMatchesNaiveTraversals(b.Build(), "single node");
}

// ---------------------------------------------------------------------------
// Solver-output goldens (pre-refactor captures).
// ---------------------------------------------------------------------------

struct Golden {
  const char* algorithm;
  std::uint64_t seed;
  std::size_t cost;
  std::uint64_t hash;  ///< CanonicalSolutionHash of the solution
};

Instance MakeBinaryInstance(std::uint64_t seed) {
  gen::BinaryTreeConfig cfg;
  cfg.clients = 200;
  cfg.min_requests = 1;
  cfg.max_requests = 10;
  cfg.min_edge = 1;
  cfg.max_edge = 4;
  return Instance(gen::GenerateFullBinaryTree(cfg, seed), 40, kNoDistanceLimit);
}

Instance MakeRandomInstance(std::uint64_t seed) {
  gen::RandomTreeConfig cfg;
  cfg.internal_nodes = 50;
  cfg.clients = 150;
  cfg.max_children = 4;
  cfg.min_requests = 1;
  cfg.max_requests = 8;
  return Instance(gen::GenerateRandomTree(cfg, seed), 30, kNoDistanceLimit);
}

void ExpectGoldens(const std::vector<Golden>& goldens,
                   Instance (*make_instance)(std::uint64_t)) {
  for (const Golden& golden : goldens) {
    SCOPED_TRACE(std::string(golden.algorithm) + " seed " + std::to_string(golden.seed));
    const Instance instance = make_instance(golden.seed);
    const core::RunResult run =
        core::Run(core::ParseAlgorithm(golden.algorithm), instance);
    ASSERT_TRUE(run.feasible);
    EXPECT_TRUE(run.validation.ok) << run.validation.Describe();
    EXPECT_EQ(run.solution.ReplicaCount(), golden.cost);
    EXPECT_EQ(CanonicalSolutionHash(run.solution), golden.hash);
  }
}

TEST(SolverGoldens, BinaryInstances) {
  // clients=200, req 1..10, edge 1..4, W=40, NoD; captured pre-refactor.
  const std::vector<Golden> goldens{
      {"single-gen", 1, 43u, 0x44efe01257b773cdull},
      {"single-nod", 1, 43u, 0x3fb8c132cb903c1cull},
      {"single-push", 1, 34u, 0x971b639b6fa39e3eull},
      {"multiple-bin", 1, 28u, 0x606740cf4b3da3dcull},
      {"multiple-nod-dp", 1, 28u, 0x88fafea521348e87ull},
      {"single-gen", 2, 44u, 0x4fd26eb4a2824a57ull},
      {"single-nod", 2, 44u, 0x71771004285ece87ull},
      {"single-push", 2, 35u, 0xf6a588e4bed6fe6bull},
      {"multiple-bin", 2, 29u, 0x0e8d8ef0b9d8c929ull},
      {"multiple-nod-dp", 2, 29u, 0x564fa3c5e9baf9e3ull},
      {"single-gen", 3, 44u, 0x9add3c5ffbdfa620ull},
      {"single-nod", 3, 44u, 0x96d6a43d4fc01ac9ull},
      {"single-push", 3, 32u, 0xec03c74b1a9db06full},
      {"multiple-bin", 3, 28u, 0x64ce716a45f74d2bull},
      {"multiple-nod-dp", 3, 28u, 0xd2c127c7cbdf7274ull},
      {"single-gen", 4, 42u, 0xa56674aaf6314e05ull},
      {"single-nod", 4, 42u, 0xca8bd6679628af23ull},
      {"single-push", 4, 32u, 0x7088b6464e5c038cull},
      {"multiple-bin", 4, 28u, 0xf562a1f72617dab6ull},
      {"multiple-nod-dp", 4, 28u, 0x1fee8f11515b307aull},
  };
  ExpectGoldens(goldens, MakeBinaryInstance);
}

TEST(SolverGoldens, RandomTreeInstances) {
  // internal=50, clients=150, arity<=4, req 1..8, W=30, NoD; captured
  // pre-refactor (multiple-bin omitted: trees are not binary).
  const std::vector<Golden> goldens{
      {"single-gen", 1, 57u, 0xb63dc642faec5d90ull},
      {"single-nod", 1, 36u, 0x6e24911a3dc970c6ull},
      {"single-push", 1, 33u, 0xbd40bb3e953c95a1ull},
      {"multiple-nod-dp", 1, 23u, 0xc72a91bdc967ceb7ull},
      {"single-gen", 2, 63u, 0xfe339d9001779e15ull},
      {"single-nod", 2, 36u, 0x71ba6b25858cdcfbull},
      {"single-push", 2, 36u, 0x8ebe48ec31565f69ull},
      {"multiple-nod-dp", 2, 24u, 0xef88d0e49d463c17ull},
      {"single-gen", 3, 59u, 0x7280b800d05652e7ull},
      {"single-nod", 3, 32u, 0xe9e566522997a8dfull},
      {"single-push", 3, 34u, 0xc23a3447bf5d3410ull},
      {"multiple-nod-dp", 3, 23u, 0x7738d9b812edaec5ull},
      {"single-gen", 4, 60u, 0xfd6631a209a5e67full},
      {"single-nod", 4, 36u, 0x4fa73faf8505bde3ull},
      {"single-push", 4, 39u, 0xbbc7d0a801e5c973ull},
      {"multiple-nod-dp", 4, 25u, 0xcc81f587241f2b16ull},
  };
  ExpectGoldens(goldens, MakeRandomInstance);
}

// ---------------------------------------------------------------------------
// DP table bounds: tables are sized by the nodes below them, never by demand.
// ---------------------------------------------------------------------------

// Analytic bound on stored DP entries: every node's F table holds at most
// (nodes in its subtree + 1) entries, and every internal node additionally
// stores prefix tables G_0..G_k, where G_k holds at most (nodes under
// children 0..k-1) + 1 entries. Each entry past a table's first is one more
// replica, so demand does not appear.
std::uint64_t DpEntryBound(const Tree& tree) {
  std::uint64_t entries = 0;
  for (NodeId id = 0; id < tree.Size(); ++id) {
    entries += static_cast<std::uint64_t>(tree.SubtreeSize(id)) + 1;
    if (tree.IsClient(id)) continue;
    std::uint64_t below = 0;
    entries += 1;  // G_0
    for (const NodeId child : tree.Children(id)) {
      below += tree.SubtreeSize(child);
      entries += below + 1;
    }
  }
  return entries;
}

TEST(MultipleNodDpBounds, TablesStayNodeBounded) {
  const Instance instance = MakeBinaryInstance(7);
  const auto result = multiple::SolveMultipleNodDp(instance);
  ASSERT_TRUE(result.feasible);
  EXPECT_GT(result.stats.table_entries, 0u);
  EXPECT_LE(result.stats.table_entries, DpEntryBound(instance.GetTree()));
  // The step merges write each prefix entry once, far below the
  // request-domain quadratic.
  EXPECT_GT(result.stats.convolve_cells, 0u);
  const std::uint64_t total = instance.GetTree().TotalRequests();
  EXPECT_LT(result.stats.convolve_cells, total * total);
}

TEST(MultipleNodDpBounds, HugeDemandLeadingInfRuns) {
  // One client with demand far above W on a chain: the leaf table starts
  // with a long kInf run (at least r - d*W forwarded no matter what), which
  // costs the cost-domain tables nothing.
  const Requests demand = 50000;
  const Requests capacity = 10;
  const std::uint32_t depth = 6;  // client + 5 internal ancestors
  Instance instance(gen::MakeChain(depth, demand, 1), capacity, kNoDistanceLimit);
  // 6 possible hosts * W = 60 < 50000: infeasible, detected without blowup.
  const auto infeasible = multiple::SolveMultipleNodDp(instance);
  EXPECT_FALSE(infeasible.feasible);

  // A demand exactly coverable by the chain: feasible with every node a
  // replica serving W except the slack absorbed at the leaf.
  const Requests fits = capacity * depth;
  Instance tight(gen::MakeChain(depth, fits, 1), capacity, kNoDistanceLimit);
  const auto result = multiple::SolveMultipleNodDp(tight);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.solution.ReplicaCount(), depth);
  EXPECT_LE(result.stats.table_entries, DpEntryBound(tight.GetTree()));

  // 2^40 requests on a chain whose hosts can absorb exactly that much: a
  // request-domain table of this subtree would need 2^40 + 1 entries.
  const Requests huge = Requests{1} << 40;
  const std::uint32_t hosts = 4;
  Instance giant(gen::MakeChain(hosts, huge, 1), huge / hosts, kNoDistanceLimit);
  const auto solved = multiple::SolveMultipleNodDp(giant);
  ASSERT_TRUE(solved.feasible);
  EXPECT_EQ(solved.solution.ReplicaCount(), hosts);
  const auto report = ValidateSolution(giant, Policy::kMultiple, solved.solution);
  EXPECT_TRUE(report.ok) << report.Describe();
  EXPECT_LE(solved.stats.table_entries, DpEntryBound(giant.GetTree()));
}

}  // namespace
}  // namespace rpt
