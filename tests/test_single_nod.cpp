// Tests for Algorithm 2 (single-nod), the 2-approximation for Single-NoD.
// Includes the paper's Fig. 4 worst-case trace and ratio certification
// against the exhaustive optimum (Theorem 4).
#include <gtest/gtest.h>

#include <ostream>

#include "exact/exact.hpp"
#include "gen/paper_instances.hpp"
#include "gen/random_tree.hpp"
#include "model/validate.hpp"
#include "single/single_nod.hpp"

namespace rpt::single {
namespace {

TEST(SingleNod, RequiresNoDistanceConstraint) {
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  b.AddClient(root, 1, 3);
  const Instance constrained(b.Build(), 5, /*dmax=*/4);
  EXPECT_THROW((void)SolveSingleNod(constrained), InvalidArgument);
}

TEST(SingleNod, RootServesEverythingWhenItFits) {
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  const NodeId n1 = b.AddInternal(root, 1);
  b.AddClient(n1, 1, 3);
  b.AddClient(n1, 1, 4);
  b.AddClient(root, 1, 2);
  const Instance inst(b.Build(), 10, kNoDistanceLimit);
  const auto result = SolveSingleNod(inst);
  EXPECT_TRUE(IsFeasible(inst, Policy::kSingle, result.solution));
  EXPECT_EQ(result.solution.ReplicaCount(), 1u);
  EXPECT_TRUE(result.stats.root_server);
}

TEST(SingleNod, NoReplicaForZeroRequests) {
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  b.AddClient(root, 1, 0);
  const Instance inst(b.Build(), 5, kNoDistanceLimit);
  const auto result = SolveSingleNod(inst);
  EXPECT_EQ(result.solution.ReplicaCount(), 0u);  // documented deviation from the listing
  EXPECT_TRUE(IsFeasible(inst, Policy::kSingle, result.solution));
}

TEST(SingleNod, OverflowPicksSmallestBundlesForTheNode) {
  // n1 has clients {2, 3, 6} with W = 7: the node absorbs 2+3, the first
  // overflow bundle (6) gets its own server; nothing is left over.
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  const NodeId n1 = b.AddInternal(root, 1);
  const NodeId c2 = b.AddClient(n1, 1, 2);
  (void)c2;
  b.AddClient(n1, 1, 3);
  const NodeId c6 = b.AddClient(n1, 1, 6);
  const Instance inst(b.Build(), 7, kNoDistanceLimit);
  const auto result = SolveSingleNod(inst);
  EXPECT_TRUE(IsFeasible(inst, Policy::kSingle, result.solution));
  EXPECT_EQ(result.solution.ReplicaCount(), 2u);
  EXPECT_EQ(result.stats.overflow_servers, 1u);
  EXPECT_EQ(result.stats.extra_servers, 1u);
  // The companion server sits at the overflowing bundle's root (client 6).
  EXPECT_NE(std::find(result.solution.replicas.begin(), result.solution.replicas.end(), c6),
            result.solution.replicas.end());
}

TEST(SingleNod, LeftoverBundlesReparentUpwards) {
  // Children of n1 sum to 16 with W = 6: n1 takes the small bundles, one
  // companion server is placed, and the rest re-parents to the root's list.
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  const NodeId n1 = b.AddInternal(root, 1);
  b.AddClient(n1, 1, 4);
  b.AddClient(n1, 1, 4);
  b.AddClient(n1, 1, 4);
  b.AddClient(n1, 1, 4);
  const Instance inst(b.Build(), 6, kNoDistanceLimit);
  const auto result = SolveSingleNod(inst);
  EXPECT_TRUE(IsFeasible(inst, Policy::kSingle, result.solution));
  // n1 takes one bundle (4), the companion takes the next; the remaining two
  // bundles re-parent to the root, which repeats the pattern. Four replicas,
  // which is also optimal here (no two bundles share a W=6 server).
  EXPECT_EQ(result.solution.ReplicaCount(), 4u);
  EXPECT_EQ(result.stats.overflow_servers, 2u);
  EXPECT_EQ(result.stats.extra_servers, 2u);
}

TEST(SingleNod, RejectsOversizedClients) {
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  b.AddClient(root, 1, 9);
  const Instance inst(b.Build(), 5, kNoDistanceLimit);
  EXPECT_THROW((void)SolveSingleNod(inst), InvalidArgument);
}

// The paper's exact worst-case claim (§3.4): 2K replicas vs optimal K+1.
TEST(SingleNod, PaperWorstCaseTraceIsExact) {
  for (const std::uint64_t k : {2u, 3u, 5u, 8u, 13u}) {
    const gen::TightnessFig4 fig = gen::BuildTightnessFig4(k);
    const auto result = SolveSingleNod(fig.instance);
    EXPECT_TRUE(IsFeasible(fig.instance, Policy::kSingle, result.solution));
    EXPECT_EQ(result.solution.ReplicaCount(), fig.single_nod_expected) << "k=" << k;
    EXPECT_EQ(result.stats.overflow_servers, k);
    EXPECT_EQ(result.stats.extra_servers, k);
  }
}

// Property: always feasible, never worse than client-local.
struct NodPropertyCase {
  std::uint32_t internal_nodes;
  std::uint32_t clients;
  std::uint32_t max_children;
  Requests capacity;
};

// Names the case in gtest output and, through PrintToStringParamName, in
// ctest; without it gtest prints the struct's raw bytes, padding included,
// which vary from build to build.
void PrintTo(const NodPropertyCase& c, std::ostream* os) {
  *os << "internal" << c.internal_nodes << "_clients" << c.clients << "_children"
      << c.max_children << "_W" << c.capacity;
}

class SingleNodProperty : public ::testing::TestWithParam<NodPropertyCase> {};

TEST_P(SingleNodProperty, AlwaysFeasible) {
  const auto& param = GetParam();
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    gen::RandomTreeConfig cfg;
    cfg.internal_nodes = param.internal_nodes;
    cfg.clients = param.clients;
    cfg.max_children = param.max_children;
    cfg.min_requests = 1;
    cfg.max_requests = param.capacity;
    const Instance inst(gen::GenerateRandomTree(cfg, 7000 + seed), param.capacity,
                        kNoDistanceLimit);
    const auto result = SolveSingleNod(inst);
    const auto report = ValidateSolution(inst, Policy::kSingle, result.solution);
    ASSERT_TRUE(report.ok) << "seed=" << seed << ": " << report.Describe();
    EXPECT_LE(result.solution.ReplicaCount(), inst.GetTree().ClientCount());
    EXPECT_EQ(result.stats.overflow_servers, result.stats.extra_servers);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SingleNodProperty,
                         ::testing::Values(NodPropertyCase{4, 9, 3, 12},
                                           NodPropertyCase{8, 9, 2, 20},
                                           NodPropertyCase{8, 20, 5, 7},
                                           NodPropertyCase{1, 6, 6, 9},
                                           NodPropertyCase{12, 24, 4, 15}),
                         ::testing::PrintToStringParamName());

// Theorem 4 certification: ratio <= 2 against the exhaustive optimum.
class SingleNodRatio : public ::testing::TestWithParam<Requests> {};

TEST_P(SingleNodRatio, WithinFactorTwoOnSmallInstances) {
  const Requests capacity = GetParam();
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    gen::RandomTreeConfig cfg;
    cfg.internal_nodes = 3;
    cfg.clients = 7;
    cfg.max_children = 3;
    cfg.min_requests = 1;
    cfg.max_requests = capacity;
    const Instance inst(gen::GenerateRandomTree(cfg, 2000 + seed), capacity, kNoDistanceLimit);
    const auto algo = SolveSingleNod(inst);
    ASSERT_TRUE(IsFeasible(inst, Policy::kSingle, algo.solution));
    const auto opt = exact::SolveExactSingle(inst);
    ASSERT_TRUE(opt.feasible);
    EXPECT_LE(algo.solution.ReplicaCount(), 2 * opt.solution.ReplicaCount()) << "seed=" << seed;
    EXPECT_GE(algo.solution.ReplicaCount(), opt.solution.ReplicaCount());
  }
}

INSTANTIATE_TEST_SUITE_P(CapacitySweep, SingleNodRatio,
                         ::testing::Values(Requests{4}, Requests{8}, Requests{16}));

}  // namespace
}  // namespace rpt::single
