// Tests for the sharded forest solve (src/shard/): planner invariants,
// subtree slicing, the rpt-btab v1 wire format, and — the load-bearing
// suite — the ORACLE MATRIX: sharded solves across topology shapes × shard
// counts × solver-pool widths must be byte-identical (cost AND canonical
// solution hash) to the single-process SolveMultipleNodDp. The btab
// corruption corpus follows test_event_wal.cpp's rule: a damaged artifact
// must load loudly-failing, never silently wrong — and since a btab is a
// complete artifact (not a log), even a torn tail is a loud failure.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gen/random_tree.hpp"
#include "gen/shapes.hpp"
#include "model/solution.hpp"
#include "multiple/multiple_nod_dp.hpp"
#include "shard/boundary_table.hpp"
#include "shard/coordinator.hpp"
#include "shard/plan.hpp"
#include "shard/worker.hpp"
#include "support/failpoint.hpp"
#include "support/thread_pool.hpp"

namespace rpt::shard {
namespace {

Tree RandomTree(std::uint64_t seed, std::uint32_t internal, std::uint32_t clients) {
  gen::RandomTreeConfig config;
  config.internal_nodes = internal;
  config.clients = clients;
  config.max_children = 5;
  config.max_requests = 13;
  config.request_skew = 1.5;
  return gen::GenerateRandomTree(config, seed);
}

std::vector<Requests> PatternRequests(std::size_t count) {
  std::vector<Requests> requests(count);
  for (std::size_t i = 0; i < count; ++i) requests[i] = (i * 5) % 13 + 1;
  return requests;
}

/// The equivalence assertion every oracle test routes through.
void ExpectOracleEqual(const Instance& instance, std::uint32_t shards) {
  const auto oracle = multiple::SolveMultipleNodDp(instance);
  ShardOptions options;
  options.shards = shards;
  const ShardedSolveResult sharded = SolveSharded(instance, options);
  ASSERT_EQ(oracle.feasible, sharded.feasible) << "k=" << shards;
  EXPECT_EQ(oracle.solution.ReplicaCount(), sharded.solution.ReplicaCount()) << "k=" << shards;
  EXPECT_EQ(CanonicalSolutionHash(oracle.solution), CanonicalSolutionHash(sharded.solution)) << "k=" << shards;
  EXPECT_TRUE(sharded.failures.empty());
}

// ---------------------------------------------------------------------------
// Planner.
// ---------------------------------------------------------------------------

TEST(ShardPlan, StarHasNothingToCut) {
  const std::vector<Requests> requests{3, 7, 11};
  const Tree star = gen::MakeStar(32, requests);
  const ShardPlan plan = PlanShards(star, PlanOptions{});
  EXPECT_EQ(plan.shard_count, 0u);
  EXPECT_TRUE(plan.cuts.empty());
}

TEST(ShardPlan, CutsAreDisjointInternalNonRootAndDeterministic) {
  const Tree tree = RandomTree(7, 80, 240);
  PlanOptions options;
  options.shards = 4;
  const ShardPlan plan = PlanShards(tree, options);
  ASSERT_EQ(plan.shard_count, 4u);
  ASSERT_FALSE(plan.cuts.empty());
  for (const Cut& cut : plan.cuts) {
    EXPECT_NE(cut.node, tree.Root());
    EXPECT_FALSE(tree.IsClient(cut.node));
    EXPECT_LT(cut.shard, plan.shard_count);
  }
  for (std::size_t a = 0; a < plan.cuts.size(); ++a) {
    for (std::size_t b = a + 1; b < plan.cuts.size(); ++b) {
      EXPECT_FALSE(tree.IsAncestorOrSelf(plan.cuts[a].node, plan.cuts[b].node));
      EXPECT_FALSE(tree.IsAncestorOrSelf(plan.cuts[b].node, plan.cuts[a].node));
    }
  }
  // shard_cuts is exactly the cuts list bucketed by shard, ascending.
  std::size_t bucketed = 0;
  for (std::uint32_t s = 0; s < plan.shard_count; ++s) {
    bucketed += plan.shard_cuts[s].size();
    for (std::size_t i = 1; i < plan.shard_cuts[s].size(); ++i) {
      EXPECT_LT(plan.shard_cuts[s][i - 1], plan.shard_cuts[s][i]);
    }
  }
  EXPECT_EQ(bucketed, plan.cuts.size());

  const ShardPlan again = PlanShards(tree, options);
  ASSERT_EQ(again.cuts.size(), plan.cuts.size());
  for (std::size_t i = 0; i < plan.cuts.size(); ++i) {
    EXPECT_EQ(again.cuts[i].node, plan.cuts[i].node);
    EXPECT_EQ(again.cuts[i].shard, plan.cuts[i].shard);
    EXPECT_EQ(again.cuts[i].weight, plan.cuts[i].weight);
  }
}

// ---------------------------------------------------------------------------
// Subtree slicing.
// ---------------------------------------------------------------------------

TEST(SubtreeSliceTest, PreservesStructureDemandsAndOrder) {
  const Tree tree = RandomTree(11, 40, 120);
  for (const NodeId child : tree.Children(tree.Root())) {
    if (tree.IsClient(child)) continue;
    const SubtreeSlice slice = tree.SliceSubtree(child);
    ASSERT_EQ(slice.tree.Size(), tree.SubtreeSize(child));
    ASSERT_EQ(slice.to_global.size(), slice.tree.Size());
    EXPECT_EQ(slice.to_global[0], child);
    EXPECT_EQ(slice.tree.TotalRequests(), tree.SubtreeRequests(child));
    for (std::size_t local = 1; local < slice.to_global.size(); ++local) {
      // Monotone remap: ascending global ids, parent links preserved.
      EXPECT_LT(slice.to_global[local - 1], slice.to_global[local]);
      const NodeId global = slice.to_global[local];
      EXPECT_EQ(slice.to_global[slice.tree.Parent(static_cast<NodeId>(local))],
                tree.Parent(global));
      EXPECT_EQ(slice.tree.IsClient(static_cast<NodeId>(local)), tree.IsClient(global));
      EXPECT_EQ(slice.tree.RequestsOf(static_cast<NodeId>(local)), tree.RequestsOf(global));
      EXPECT_EQ(slice.tree.DistToParent(static_cast<NodeId>(local)), tree.DistToParent(global));
    }
  }
  EXPECT_THROW((void)tree.SliceSubtree(tree.Clients()[0]), InvalidArgument);
}

// ---------------------------------------------------------------------------
// rpt-btab v1 codec.
// ---------------------------------------------------------------------------

BtabFile SampleBtab() {
  BtabFile file;
  BoundaryTable plain;
  plain.cut = 17;
  plain.demand = 6;
  plain.subtree_nodes = 9;
  plain.table_entries = 41;
  plain.convolve_cells = 120;
  plain.table = {6, 4, 2, 0};
  file.tables.push_back(plain);

  BoundaryTable floored;  // no placement forwards under 2: its last entry is above 0
  floored.cut = 23;
  floored.demand = 6;
  floored.subtree_nodes = 4;
  floored.table_entries = 7;
  floored.convolve_cells = 9;
  floored.table = {5, 3, 2};
  file.tables.push_back(floored);

  SolutionFragment fragment;
  fragment.cut = 17;
  fragment.budget = 3;
  fragment.solution.replicas = {0, 2};
  fragment.solution.assignment = {{3, 0, 5}, {4, 2, 7}};
  fragment.forwarded = {{1, 4}, {5, 2}};
  file.fragments.push_back(fragment);
  return file;
}

TEST(BoundaryTableCodec, RoundTripsTablesAndFragments) {
  const BtabFile file = SampleBtab();
  const BtabFile back = DecodeBtab(EncodeBtab(file));
  ASSERT_EQ(back.tables.size(), file.tables.size());
  for (std::size_t i = 0; i < file.tables.size(); ++i) {
    EXPECT_EQ(back.tables[i].cut, file.tables[i].cut);
    EXPECT_EQ(back.tables[i].demand, file.tables[i].demand);
    EXPECT_EQ(back.tables[i].subtree_nodes, file.tables[i].subtree_nodes);
    EXPECT_EQ(back.tables[i].table_entries, file.tables[i].table_entries);
    EXPECT_EQ(back.tables[i].convolve_cells, file.tables[i].convolve_cells);
    EXPECT_EQ(back.tables[i].table, file.tables[i].table);
  }
  ASSERT_EQ(back.fragments.size(), file.fragments.size());
  EXPECT_EQ(back.fragments[0].cut, file.fragments[0].cut);
  EXPECT_EQ(back.fragments[0].budget, file.fragments[0].budget);
  EXPECT_EQ(back.fragments[0].solution.replicas, file.fragments[0].solution.replicas);
  EXPECT_EQ(back.fragments[0].solution.assignment, file.fragments[0].solution.assignment);
  EXPECT_EQ(back.fragments[0].forwarded, file.fragments[0].forwarded);
}

TEST(BoundaryTableCodec, TruncationAtEveryByteFailsLoudly) {
  const std::string bytes = EncodeBtab(SampleBtab());
  ASSERT_GT(bytes.size(), 0u);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)DecodeBtab(std::string_view(bytes).substr(0, len)), InvalidArgument)
        << "prefix length " << len;
  }
}

TEST(BoundaryTableCodec, EveryBitFlipFailsLoudly) {
  const std::string bytes = EncodeBtab(SampleBtab());
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string damaged = bytes;
      damaged[pos] = static_cast<char>(damaged[pos] ^ (1 << bit));
      EXPECT_THROW((void)DecodeBtab(damaged), InvalidArgument)
          << "byte " << pos << " bit " << bit;
    }
  }
}

// ---------------------------------------------------------------------------
// Oracle equivalence matrix.
// ---------------------------------------------------------------------------

TEST(ShardOracle, MatrixMatchesUnshardedByteForByte) {
  struct Case {
    const char* name;
    Tree tree;
    Requests capacity;
  };
  std::vector<Case> cases;
  cases.push_back({"chain", gen::MakeChain(24, 100), 9});
  cases.push_back({"star", gen::MakeStar(48, PatternRequests(48)), 10});
  cases.push_back({"caterpillar", gen::MakeCaterpillar(PatternRequests(40)), 12});
  cases.push_back({"comb", gen::MakeComb(PatternRequests(24), 3), 8});
  cases.push_back({"random-a", RandomTree(1, 60, 180), 25});
  cases.push_back({"random-b", RandomTree(2, 60, 180), 17});

  for (const Case& test_case : cases) {
    const Instance instance(test_case.tree, test_case.capacity);
    for (const std::uint32_t shards : {1u, 2u, 3u, 8u}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE(std::string(test_case.name) + " k=" + std::to_string(shards) +
                     " threads=" + std::to_string(threads));
        SetSolverThreads(threads);
        ExpectOracleEqual(instance, shards);
      }
    }
  }
  SetSolverThreads(1);
}

TEST(ShardOracle, StarFallsBackToTheLocalSolve) {
  const Instance instance(gen::MakeStar(48, PatternRequests(48)), 10);
  ShardOptions options;
  options.shards = 4;
  const ShardedSolveResult sharded = SolveSharded(instance, options);
  EXPECT_EQ(sharded.stats.shard_count, 0u);
  const auto oracle = multiple::SolveMultipleNodDp(instance);
  EXPECT_EQ(oracle.feasible, sharded.feasible);
  EXPECT_EQ(CanonicalSolutionHash(oracle.solution), CanonicalSolutionHash(sharded.solution));
}

TEST(ShardOracle, InfeasibleInstanceStaysInfeasible) {
  // A depth-4 chain can host at most 5 replicas: demand 1000 >> 5 * W.
  const Instance instance(gen::MakeChain(4, 1000), 10);
  const auto oracle = multiple::SolveMultipleNodDp(instance);
  ASSERT_FALSE(oracle.feasible);
  for (const std::uint32_t shards : {2u, 3u}) {
    ShardOptions options;
    options.shards = shards;
    const ShardedSolveResult sharded = SolveSharded(instance, options);
    EXPECT_FALSE(sharded.feasible);
    EXPECT_TRUE(sharded.solution.replicas.empty());
  }
}

TEST(ShardOracle, BudgetBoundariesAtCapacityMultiples) {
  // Demands pinned to exact multiples of W: every budget split and forwarded
  // total lands on a staircase knee, the off-by-one hot spots of the merge.
  const Requests capacity = 12;
  std::vector<Requests> exact(30);
  for (std::size_t i = 0; i < exact.size(); ++i) {
    exact[i] = (i % 2 == 0) ? capacity : 2 * capacity;
  }
  const Instance caterpillar(gen::MakeCaterpillar(exact), capacity);
  const Instance comb(gen::MakeComb(exact, 2), capacity);
  for (const std::uint32_t shards : {2u, 3u, 8u}) {
    ExpectOracleEqual(caterpillar, shards);
    ExpectOracleEqual(comb, shards);
  }
}

// ---------------------------------------------------------------------------
// Fault injection at the dispatch boundary.
// ---------------------------------------------------------------------------

TEST(ShardFaults, CrashedWorkerIsRedispatchedToTheIdenticalAnswer) {
  const Instance instance(RandomTree(3, 60, 180), 20);
  const auto oracle = multiple::SolveMultipleNodDp(instance);

  // The second per-cut solve dies (one-shot), so one shard's first attempt
  // fails mid-phase and its re-dispatch must recompute the whole shard.
  const fail::ScopedArm arm(kWorkerCrashPoint, fail::Action::kThrow, 2);
  ShardOptions options;
  options.shards = 3;
  options.max_attempts = 2;
  const ShardedSolveResult sharded = SolveSharded(instance, options);

  ASSERT_EQ(sharded.failures.size(), 1u);
  EXPECT_EQ(sharded.failures[0].phase, "solve");
  EXPECT_EQ(sharded.failures[0].attempt, 1u);
  ASSERT_EQ(oracle.feasible, sharded.feasible);
  EXPECT_EQ(oracle.solution.ReplicaCount(), sharded.solution.ReplicaCount());
  EXPECT_EQ(CanonicalSolutionHash(oracle.solution), CanonicalSolutionHash(sharded.solution));
}

TEST(ShardFaults, ExhaustedAttemptsThrowNamingTheShard) {
  const Instance instance(RandomTree(3, 60, 180), 20);
  const fail::ScopedArm arm(kWorkerCrashPoint, fail::Action::kThrow, 1);
  ShardOptions options;
  options.shards = 3;
  options.max_attempts = 1;
  try {
    (void)SolveSharded(instance, options);
    FAIL() << "a dead shard with max_attempts=1 must throw";
  } catch (const InternalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard 0"), std::string::npos) << what;
    EXPECT_NE(what.find("solve"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace rpt::shard
