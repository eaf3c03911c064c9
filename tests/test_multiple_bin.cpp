// Tests for Algorithm 3 (multiple-bin), the paper's optimal polynomial
// algorithm for Multiple-Bin (Theorem 6). The central test is the
// optimality property: on random binary instances the replica count must
// equal the exhaustive optimum, and on NoD instances the Multiple-NoD DP.
#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "exact/exact.hpp"
#include "gen/random_tree.hpp"
#include "model/validate.hpp"
#include "multiple/multiple_bin.hpp"
#include "multiple/multiple_nod_dp.hpp"
#include "multiple/prune.hpp"

namespace rpt::multiple {
namespace {

TEST(MultipleBin, RejectsNonBinaryTrees) {
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  b.AddClient(root, 1, 1);
  b.AddClient(root, 1, 1);
  b.AddClient(root, 1, 1);
  const Instance inst(b.Build(), 5, kNoDistanceLimit);
  EXPECT_THROW((void)SolveMultipleBin(inst), InvalidArgument);
}

TEST(MultipleBin, RejectsOversizedClients) {
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  b.AddClient(root, 1, 9);
  const Instance inst(b.Build(), 5, kNoDistanceLimit);
  EXPECT_THROW((void)SolveMultipleBin(inst), InvalidArgument);
}

TEST(MultipleBin, SingleServerWhenEverythingFits) {
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  const NodeId n1 = b.AddInternal(root, 1);
  b.AddClient(n1, 1, 3);
  b.AddClient(n1, 1, 4);
  const Instance inst(b.Build(), 10, kNoDistanceLimit);
  const auto result = SolveMultipleBin(inst);
  EXPECT_TRUE(IsFeasible(inst, Policy::kMultiple, result.solution));
  EXPECT_EQ(result.solution.ReplicaCount(), 1u);
  EXPECT_EQ(result.solution.replicas[0], 0u);  // served at the root
}

TEST(MultipleBin, SplitsAClientAcrossTwoServers) {
  // Two clients of 6 with W = 8: an optimal Multiple solution uses 2 servers
  // and must split one client (Single would also need 2 here, but the split
  // shows the Multiple mechanics).
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  const NodeId n1 = b.AddInternal(root, 1);
  b.AddClient(n1, 1, 6);
  b.AddClient(n1, 1, 6);
  const Instance inst(b.Build(), 8, kNoDistanceLimit);
  const auto result = SolveMultipleBin(inst);
  EXPECT_TRUE(IsFeasible(inst, Policy::kMultiple, result.solution));
  EXPECT_EQ(result.solution.ReplicaCount(), 2u);
  EXPECT_EQ(result.stats.split_triples, 1u);
  // One client is served by two different servers.
  std::map<NodeId, int> servers_per_client;
  for (const auto& entry : result.solution.assignment) ++servers_per_client[entry.client];
  int split_clients = 0;
  for (const auto& [client, count] : servers_per_client) split_clients += (count > 1);
  EXPECT_EQ(split_clients, 1);
}

TEST(MultipleBin, LeafForcedToSelfServeBeyondDmax) {
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  const NodeId n1 = b.AddInternal(root, 1);
  b.AddClient(n1, 9, 4);  // farther than dmax from every ancestor
  b.AddClient(n1, 1, 3);
  const Instance inst(b.Build(), 10, /*dmax=*/5);
  const auto result = SolveMultipleBin(inst);
  EXPECT_TRUE(IsFeasible(inst, Policy::kMultiple, result.solution));
  EXPECT_EQ(result.stats.leaf_forced_replicas, 1u);
  EXPECT_EQ(result.solution.ReplicaCount(), 2u);
}

TEST(MultipleBin, ExtraServerReassignsOneLevel) {
  // n1 has two W-sized clients; after n1 fills up, the leftover cannot climb
  // the long edge to the root, so extra-server turns the right child into a
  // server.
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  const NodeId n1 = b.AddInternal(root, 5);
  const NodeId ca = b.AddClient(n1, 1, 10);
  const NodeId cb = b.AddClient(n1, 1, 10);
  const Instance inst(b.Build(), 10, /*dmax=*/3);
  const auto result = SolveMultipleBin(inst);
  const auto report = ValidateSolution(inst, Policy::kMultiple, result.solution);
  EXPECT_TRUE(report.ok) << report.Describe();
  EXPECT_EQ(result.solution.ReplicaCount(), 2u);  // optimal: 20 requests / W=10
  EXPECT_EQ(result.stats.extra_replicas, 1u);
  EXPECT_EQ(result.stats.extra_server_calls, 1u);
  // n1 serves the left client, the right client self-serves.
  EXPECT_EQ(result.solution.replicas, (std::vector<NodeId>{n1, cb}));
  (void)ca;
}

TEST(MultipleBin, ExtraServerRecursesDownTheRightSpine) {
  // Deeper variant: the right child is already a full server, so the
  // re-assignment cascades one more level (paper's rightmost-path walk).
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  const NodeId x = b.AddInternal(root, 5);
  b.AddClient(x, 1, 10);               // c_L
  const NodeId y = b.AddInternal(x, 1);
  b.AddClient(y, 1, 10);               // c_1
  const NodeId c2 = b.AddClient(y, 1, 10);
  const Instance inst(b.Build(), 10, /*dmax=*/3);
  const auto result = SolveMultipleBin(inst);
  const auto report = ValidateSolution(inst, Policy::kMultiple, result.solution);
  EXPECT_TRUE(report.ok) << report.Describe();
  EXPECT_EQ(result.solution.ReplicaCount(), 3u);  // optimal: 30/10
  EXPECT_EQ(result.stats.extra_server_calls, 2u);
  EXPECT_EQ(result.stats.extra_replicas, 1u);
  EXPECT_EQ(result.solution.replicas, (std::vector<NodeId>{x, y, c2}));
}

TEST(MultipleBin, MostConstrainedRequestsAreServedFirst) {
  // c_far must be served at n1 (distance dmax); c_near could go higher. With
  // W = 10 and 14 pending, n1 takes the far client's requests in full.
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  const NodeId n1 = b.AddInternal(root, 1);
  const NodeId c_far = b.AddClient(n1, 4, 8);
  b.AddClient(n1, 1, 6);
  const Instance inst(b.Build(), 10, /*dmax=*/4);
  const auto result = SolveMultipleBin(inst);
  EXPECT_TRUE(IsFeasible(inst, Policy::kMultiple, result.solution));
  Requests far_at_n1 = 0;
  for (const auto& entry : result.solution.assignment) {
    if (entry.client == c_far && entry.server == n1) far_at_n1 += entry.amount;
  }
  EXPECT_EQ(far_at_n1, 8u);
}

TEST(MultipleBin, EmptyTreeNoReplicas) {
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  b.AddClient(root, 1, 0);
  const Instance inst(b.Build(), 5, kNoDistanceLimit);
  const auto result = SolveMultipleBin(inst);
  EXPECT_EQ(result.solution.ReplicaCount(), 0u);
}

// --- Optimality certification (Theorem 6) --------------------------------
//
// REPRODUCTION FINDING (documented in EXPERIMENTS.md, E6): Theorem 6's
// optimality claim holds in all our NoD sweeps (0 deviations in 500+
// instances per configuration), but *fails* on a small fraction of
// distance-constrained instances — see Theorem6CounterexampleRegression
// below. The parameterized suites therefore assert strict equality only for
// NoD, and feasibility + one-sided bounds (never below the optimum) for the
// distance-constrained configurations.

struct OptimalityCase {
  std::uint32_t clients;
  Requests capacity;
  Requests max_requests;
  Distance dmax;
  Distance max_edge;
};

// Names the case in gtest output and, through PrintToStringParamName, in
// ctest; without it gtest prints the struct's raw bytes, padding included,
// which vary from build to build.
void PrintTo(const OptimalityCase& c, std::ostream* os) {
  *os << "clients" << c.clients << "_W" << c.capacity << "_maxreq" << c.max_requests;
  if (c.dmax == kNoDistanceLimit) {
    *os << "_nod";
  } else {
    *os << "_dmax" << c.dmax;
  }
  *os << "_edge" << c.max_edge;
}

class MultipleBinOptimalityNod : public ::testing::TestWithParam<OptimalityCase> {};

TEST_P(MultipleBinOptimalityNod, MatchesExhaustiveOptimum) {
  const auto& param = GetParam();
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    gen::BinaryTreeConfig cfg;
    cfg.clients = param.clients;
    cfg.min_requests = 1;
    cfg.max_requests = param.max_requests;
    cfg.min_edge = 1;
    cfg.max_edge = param.max_edge;
    const Instance inst(gen::GenerateFullBinaryTree(cfg, 4000 + seed), param.capacity,
                        kNoDistanceLimit);
    const auto algo = SolveMultipleBin(inst);
    const auto report = ValidateSolution(inst, Policy::kMultiple, algo.solution);
    ASSERT_TRUE(report.ok) << "seed=" << seed << ": " << report.Describe();
    const auto opt = exact::SolveExactMultiple(inst);
    ASSERT_TRUE(opt.feasible) << "seed=" << seed;
    EXPECT_EQ(algo.solution.ReplicaCount(), opt.solution.ReplicaCount()) << "seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MultipleBinOptimalityNod,
                         ::testing::Values(OptimalityCase{6, 8, 8, kNoDistanceLimit, 2},
                                           OptimalityCase{7, 5, 5, kNoDistanceLimit, 3},
                                           OptimalityCase{8, 12, 12, kNoDistanceLimit, 1},
                                           OptimalityCase{5, 20, 20, kNoDistanceLimit, 4}),
                         ::testing::PrintToStringParamName());

class MultipleBinWithDistances : public ::testing::TestWithParam<OptimalityCase> {};

TEST_P(MultipleBinWithDistances, FeasibleAndNeverBelowOptimum) {
  const auto& param = GetParam();
  std::uint64_t deviations = 0;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    gen::BinaryTreeConfig cfg;
    cfg.clients = param.clients;
    cfg.min_requests = 1;
    cfg.max_requests = param.max_requests;
    cfg.min_edge = 1;
    cfg.max_edge = param.max_edge;
    const Instance inst(gen::GenerateFullBinaryTree(cfg, 4000 + seed), param.capacity,
                        param.dmax);
    const auto algo = SolveMultipleBin(inst);
    const auto report = ValidateSolution(inst, Policy::kMultiple, algo.solution);
    ASSERT_TRUE(report.ok) << "seed=" << seed << ": " << report.Describe();
    const auto opt = exact::SolveExactMultiple(inst);
    ASSERT_TRUE(opt.feasible) << "seed=" << seed;
    ASSERT_GE(algo.solution.ReplicaCount(), opt.solution.ReplicaCount()) << "seed=" << seed;
    deviations += algo.solution.ReplicaCount() != opt.solution.ReplicaCount();
    // The pruning repair also never drops below the optimum.
    const auto pruned = PruneReplicas(inst, algo.solution);
    ASSERT_TRUE(IsFeasible(inst, Policy::kMultiple, pruned.solution)) << "seed=" << seed;
    ASSERT_GE(pruned.solution.ReplicaCount(), opt.solution.ReplicaCount()) << "seed=" << seed;
    ASSERT_LE(pruned.solution.ReplicaCount(), algo.solution.ReplicaCount()) << "seed=" << seed;
  }
  // Deviations are rare (about 1-2% of instances in our wider sweeps).
  EXPECT_LE(deviations, 4u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MultipleBinWithDistances,
                         ::testing::Values(OptimalityCase{6, 8, 8, 4, 2},
                                           OptimalityCase{6, 8, 8, 2, 2},
                                           OptimalityCase{7, 5, 5, 6, 3},
                                           OptimalityCase{8, 12, 12, 5, 1},
                                           OptimalityCase{8, 4, 4, 3, 1},
                                           OptimalityCase{5, 20, 20, 8, 4}),
                         ::testing::PrintToStringParamName());

// The minimal counterexample our reproduction found to Theorem 6 as stated
// in RR-7750 (13 nodes, W=8, dmax=4): Algorithm 3 places 6 replicas, but 5
// suffice. The capacity trigger at the node above clients {7,3} pins their
// requests below it even though both clients can reach the root. Pinning
// this behaviour guards against silent changes in either solver.
TEST(MultipleBin, Theorem6CounterexampleRegression) {
  TreeBuilder b;
  const NodeId n0 = b.AddRoot();
  const NodeId n1 = b.AddInternal(n0, 1);
  const NodeId n2 = b.AddInternal(n1, 1);
  b.AddClient(n2, 1, 7);                      // c3
  b.AddClient(n2, 1, 3);                      // c4
  const NodeId n5 = b.AddInternal(n1, 2);
  const NodeId n6 = b.AddInternal(n5, 1);
  const NodeId n7 = b.AddInternal(n6, 1);
  b.AddClient(n7, 1, 7);                      // c8
  b.AddClient(n7, 2, 8);                      // c9
  b.AddClient(n6, 2, 6);                      // c10
  b.AddClient(n5, 2, 6);                      // c11
  b.AddClient(n0, 2, 1);                      // c12
  const Instance inst(b.Build(), /*capacity=*/8, /*dmax=*/4);

  const auto algo = SolveMultipleBin(inst);
  ASSERT_TRUE(IsFeasible(inst, Policy::kMultiple, algo.solution));
  EXPECT_EQ(algo.solution.ReplicaCount(), 6u);  // Algorithm 3 as specified

  const auto opt = exact::SolveExactMultiple(inst);
  ASSERT_TRUE(opt.feasible);
  EXPECT_EQ(opt.solution.ReplicaCount(), 5u);   // the true optimum

  // The flow-based pruning pass repairs this instance to the optimum.
  const auto pruned = PruneReplicas(inst, algo.solution);
  EXPECT_EQ(pruned.solution.ReplicaCount(), 5u);
  EXPECT_EQ(pruned.removed, 1u);
  EXPECT_TRUE(IsFeasible(inst, Policy::kMultiple, pruned.solution));
}

TEST(PruneReplicasTest, NoOpOnAlreadyOptimalSolutions) {
  gen::BinaryTreeConfig cfg;
  cfg.clients = 12;
  cfg.min_requests = 1;
  cfg.max_requests = 8;
  const Instance inst(gen::GenerateFullBinaryTree(cfg, 71), /*capacity=*/8, kNoDistanceLimit);
  const auto algo = SolveMultipleBin(inst);
  const auto pruned = PruneReplicas(inst, algo.solution);
  EXPECT_EQ(pruned.removed, 0u);
  EXPECT_EQ(pruned.solution.ReplicaCount(), algo.solution.ReplicaCount());
}

TEST(PruneReplicasTest, RemovesInjectedRedundantReplicas) {
  gen::BinaryTreeConfig cfg;
  cfg.clients = 10;
  cfg.min_requests = 1;
  cfg.max_requests = 5;
  const Instance inst(gen::GenerateFullBinaryTree(cfg, 72), /*capacity=*/25, kNoDistanceLimit);
  auto base = SolveMultipleBin(inst).solution;
  // Inject every client as an extra (useless) replica.
  for (const NodeId c : inst.GetTree().Clients()) {
    if (std::find(base.replicas.begin(), base.replicas.end(), c) == base.replicas.end()) {
      base.replicas.push_back(c);
    }
  }
  const auto pruned = PruneReplicas(inst, base);
  EXPECT_GE(pruned.removed, inst.GetTree().ClientCount() - 2);
  EXPECT_TRUE(IsFeasible(inst, Policy::kMultiple, pruned.solution));
}

TEST(PruneReplicasTest, RejectsInfeasibleInput) {
  gen::BinaryTreeConfig cfg;
  cfg.clients = 6;
  cfg.min_requests = 2;
  cfg.max_requests = 6;
  const Instance inst(gen::GenerateFullBinaryTree(cfg, 73), /*capacity=*/6, kNoDistanceLimit);
  Solution empty;
  EXPECT_THROW((void)PruneReplicas(inst, empty), InvalidArgument);
}

// Cross-check against the exact Multiple-NoD DP at sizes the brute-force
// solver cannot reach.
TEST(MultipleBin, AgreesWithNodDpOnLargerTrees) {
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    gen::BinaryTreeConfig cfg;
    cfg.clients = 40;
    cfg.min_requests = 1;
    cfg.max_requests = 9;
    const Instance inst(gen::GenerateFullBinaryTree(cfg, 5000 + seed), /*capacity=*/9,
                        kNoDistanceLimit);
    const auto algo = SolveMultipleBin(inst);
    ASSERT_TRUE(IsFeasible(inst, Policy::kMultiple, algo.solution));
    const auto dp = SolveMultipleNodDp(inst);
    ASSERT_TRUE(dp.feasible);
    EXPECT_EQ(algo.solution.ReplicaCount(), dp.solution.ReplicaCount()) << "seed=" << seed;
  }
}

// The replica count can never beat the capacity lower bound, and the
// solution must saturate at least that bound's worth of servers.
TEST(MultipleBin, RespectsCapacityLowerBound) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    gen::BinaryTreeConfig cfg;
    cfg.clients = 20;
    cfg.min_requests = 1;
    cfg.max_requests = 7;
    const Instance inst(gen::GenerateFullBinaryTree(cfg, 6000 + seed), /*capacity=*/7,
                        /*dmax=*/6);
    const auto result = SolveMultipleBin(inst);
    ASSERT_TRUE(IsFeasible(inst, Policy::kMultiple, result.solution));
    EXPECT_GE(result.solution.ReplicaCount(), inst.CapacityLowerBound());
  }
}

}  // namespace
}  // namespace rpt::multiple
