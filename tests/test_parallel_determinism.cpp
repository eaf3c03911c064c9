// Determinism guards across solver-pool widths. TreeBuilder::Build is
// serial and never touches the solver pool, so a tree built at any
// SetSolverThreads width must equal the width-1 tree column for column. The
// level-synchronous Multiple-NoD DP, the one intra-instance parallel
// kernel, must be byte-identical to its serial form at every width. Runs
// the same inputs at solver widths 1 (serial), 2, and 7 (more workers than
// a small machine has cores, the oversubscribed case worth exercising) and
// compares every observable column / solver output.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "gen/random_tree.hpp"
#include "model/instance.hpp"
#include "model/solution.hpp"
#include "multiple/multiple_nod_dp.hpp"
#include "multiple/nod_dp_engine.hpp"
#include "support/thread_pool.hpp"
#include "tree/tree_overlay.hpp"

namespace rpt {
namespace {

// Restores serial solving on scope exit so test order cannot leak a pool
// width into unrelated tests.
struct SolverThreadsGuard {
  explicit SolverThreadsGuard(std::size_t threads) { SetSolverThreads(threads); }
  ~SolverThreadsGuard() { SetSolverThreads(1); }
};

// Both shapes exceed 32768 nodes, so a Build() path gated on tree size
// would run here too.
Tree BuildBigBinaryTree(std::uint64_t seed) {
  gen::BinaryTreeConfig cfg;
  cfg.clients = 20000;  // 39999 nodes
  cfg.min_requests = 1;
  cfg.max_requests = 10;
  cfg.min_edge = 1;
  cfg.max_edge = 4;
  return gen::GenerateFullBinaryTree(cfg, seed);
}

Tree BuildBigRandomTree(std::uint64_t seed) {
  gen::RandomTreeConfig cfg;
  cfg.internal_nodes = 9000;
  cfg.clients = 27000;  // 36001 nodes
  cfg.max_children = 6;
  cfg.min_requests = 1;
  cfg.max_requests = 8;
  return gen::GenerateRandomTree(cfg, seed);
}

void ExpectTreesIdentical(const Tree& expected, const Tree& actual) {
  ASSERT_EQ(expected.Size(), actual.Size());
  ASSERT_EQ(expected.ClientCount(), actual.ClientCount());
  EXPECT_EQ(expected.Arity(), actual.Arity());
  EXPECT_EQ(expected.TotalRequests(), actual.TotalRequests());

  const auto expected_clients = expected.Clients();
  const auto actual_clients = actual.Clients();
  ASSERT_TRUE(std::equal(expected_clients.begin(), expected_clients.end(),
                         actual_clients.begin(), actual_clients.end()));
  const auto expected_post = expected.PostOrder();
  const auto actual_post = actual.PostOrder();
  ASSERT_TRUE(
      std::equal(expected_post.begin(), expected_post.end(), actual_post.begin(),
                 actual_post.end()));

  for (NodeId id = 0; id < expected.Size(); ++id) {
    ASSERT_EQ(expected.Kind(id), actual.Kind(id)) << "node " << id;
    ASSERT_EQ(expected.Parent(id), actual.Parent(id)) << "node " << id;
    ASSERT_EQ(expected.Depth(id), actual.Depth(id)) << "node " << id;
    ASSERT_EQ(expected.DistFromRoot(id), actual.DistFromRoot(id)) << "node " << id;
    ASSERT_EQ(expected.SubtreeRequests(id), actual.SubtreeRequests(id)) << "node " << id;
    ASSERT_EQ(expected.SubtreeSize(id), actual.SubtreeSize(id)) << "node " << id;
    const auto expected_kids = expected.Children(id);
    const auto actual_kids = actual.Children(id);
    ASSERT_TRUE(std::equal(expected_kids.begin(), expected_kids.end(), actual_kids.begin(),
                           actual_kids.end()))
        << "node " << id;
  }

  // Euler intervals (tin is internal; ancestor queries expose it): strided
  // pair sample across the whole id range.
  const NodeId stride = static_cast<NodeId>(expected.Size() / 61 + 1);
  for (NodeId a = 0; a < expected.Size(); a += stride) {
    for (NodeId b = 0; b < expected.Size(); b += stride) {
      ASSERT_EQ(expected.IsAncestorOrSelf(a, b), actual.IsAncestorOrSelf(a, b))
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(ParallelTreeBuild, ByteIdenticalToSerialAcrossThreadCounts) {
  for (const std::uint64_t seed : {1ull, 2ull}) {
    SetSolverThreads(1);
    const Tree serial_binary = BuildBigBinaryTree(seed);
    const Tree serial_random = BuildBigRandomTree(seed);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{7}}) {
      SolverThreadsGuard guard(threads);
      SCOPED_TRACE("seed " + std::to_string(seed) + " threads " + std::to_string(threads));
      ExpectTreesIdentical(serial_binary, BuildBigBinaryTree(seed));
      ExpectTreesIdentical(serial_random, BuildBigRandomTree(seed));
    }
  }
}

// The DP's level sweep hands the pool only levels wider than its grain (512
// nodes); narrower ones run on the caller. These 20,000-node trees have 9-10
// levels wider than that (up to ~3,500 nodes), so widths 2 and 7 split them
// across workers.
Tree BuildWideDpTree(std::uint64_t seed) {
  gen::RandomTreeConfig cfg;
  cfg.internal_nodes = 4000;
  cfg.clients = 16000;
  cfg.max_children = 5;
  cfg.min_requests = 1;
  cfg.max_requests = 9;
  return gen::GenerateRandomTree(cfg, seed);
}

TEST(ParallelMultipleNodDp, ByteIdenticalToSerialAcrossThreadCounts) {
  for (const std::uint64_t seed : {1ull, 2ull}) {
    SetSolverThreads(1);
    const Instance instance(BuildWideDpTree(seed), /*capacity=*/30, kNoDistanceLimit);
    const auto serial = multiple::SolveMultipleNodDp(instance);
    ASSERT_TRUE(serial.feasible);
    const std::uint64_t serial_hash = CanonicalSolutionHash(serial.solution);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{7}}) {
      SolverThreadsGuard guard(threads);
      SCOPED_TRACE("seed " + std::to_string(seed) + " threads " + std::to_string(threads));
      const auto parallel = multiple::SolveMultipleNodDp(instance);
      ASSERT_TRUE(parallel.feasible);
      EXPECT_EQ(parallel.solution.ReplicaCount(), serial.solution.ReplicaCount());
      EXPECT_EQ(CanonicalSolutionHash(parallel.solution), serial_hash);
      // The work counters are exact integer sums, so they must match too.
      EXPECT_EQ(parallel.stats.table_entries, serial.stats.table_entries);
      EXPECT_EQ(parallel.stats.convolve_cells, serial.stats.convolve_cells);
    }
  }
}

// Every F table and work counter after a pass, to compare across widths.
struct PassResult {
  std::vector<multiple::NodDpEngine::InverseTable> tables;
  multiple::NodDpWork work;
};

PassResult Collect(const multiple::NodDpEngine& engine, std::size_t nodes) {
  PassResult out{{}, engine.Work()};
  for (NodeId id = 0; id < nodes; ++id) out.tables.push_back(engine.TableOf(id));
  return out;
}

void ExpectSamePass(const PassResult& serial, const PassResult& parallel) {
  EXPECT_TRUE(parallel.tables == serial.tables);
  EXPECT_EQ(parallel.work.table_entries, serial.work.table_entries);
  EXPECT_EQ(parallel.work.convolve_cells, serial.work.convolve_cells);
  EXPECT_EQ(parallel.work.nodes_processed, serial.work.nodes_processed);
  EXPECT_EQ(parallel.work.storage_entries, serial.work.storage_entries);
}

TEST(ParallelMultipleNodDp, IncrementalPassMatchesSerialAcrossThreadCounts) {
  // A batch that rewrites every third client's demand dirties 8 levels
  // wider than the sweep's grain, so the prefix-chain restarts and the
  // region moves of the incremental pass run on pool workers.
  const Tree tree = BuildWideDpTree(3);
  const auto pass = [&tree](std::size_t threads) {
    SolverThreadsGuard guard(threads);
    TreeOverlay overlay(tree);
    multiple::NodDpEngine engine(overlay, /*capacity=*/30);
    engine.ComputeAll();
    std::vector<NodeId> touched;
    for (std::size_t k = 0; k < tree.Clients().size(); k += 3) {
      const NodeId client = tree.Clients()[k];
      overlay.SetRequests(client, 1 + (tree.RequestsOf(client) + 4) % 9);
      touched.push_back(client);
    }
    engine.RecomputeDirty(touched);
    return Collect(engine, tree.Size());
  };
  const PassResult serial = pass(1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{7}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExpectSamePass(serial, pass(threads));
  }
}

TEST(ParallelMultipleNodDp, ImportedLeafTablesMatchSerialAcrossThreadCounts) {
  // Every client imports its own table, as a shard worker would ship it, so
  // pool workers copy imported tables into the shared per-level slabs.
  const Tree tree = BuildWideDpTree(4);
  multiple::NodDpEngine reference(tree, /*capacity=*/30);
  reference.ComputeAll();
  const auto pass = [&](std::size_t threads) {
    SolverThreadsGuard guard(threads);
    multiple::NodDpEngine engine(tree, /*capacity=*/30);
    for (const NodeId client : tree.Clients()) {
      engine.ImportLeafTable(client, reference.TableOf(client));
    }
    engine.ComputeAll();
    return Collect(engine, tree.Size());
  };
  const PassResult serial = pass(1);
  EXPECT_TRUE(serial.tables == Collect(reference, tree.Size()).tables);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{7}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ExpectSamePass(serial, pass(threads));
  }
}

TEST(ParallelMultipleNodDp, InfeasibleDetectionMatchesAcrossThreadCounts) {
  // A giant client demand on a short chain is infeasible; the parallel level
  // sweep must agree with the serial verdict (and not blow up on the
  // leading-kInf staircase runs).
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  NodeId cur = root;
  for (int i = 0; i < 4; ++i) cur = b.AddInternal(cur, 1);
  b.AddClient(cur, 1, 50000);
  const Instance instance(b.Build(), /*capacity=*/10, kNoDistanceLimit);
  SetSolverThreads(1);
  const auto serial = multiple::SolveMultipleNodDp(instance);
  EXPECT_FALSE(serial.feasible);
  {
    SolverThreadsGuard guard(7);
    const auto parallel = multiple::SolveMultipleNodDp(instance);
    EXPECT_FALSE(parallel.feasible);
    EXPECT_EQ(parallel.stats.table_entries, serial.stats.table_entries);
    EXPECT_EQ(parallel.stats.convolve_cells, serial.stats.convolve_cells);
  }
}

}  // namespace
}  // namespace rpt
