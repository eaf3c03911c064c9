// Tests for Algorithm 1 (single-gen), the (∆+1)-approximation for Single.
// Includes the paper's own worst-case trace on the Im family and randomized
// property tests: feasibility everywhere, and the Theorem 3 ratio bound
// certified against the exhaustive optimal solver on small instances.
#include <gtest/gtest.h>

#include <ostream>

#include "exact/exact.hpp"
#include "gen/paper_instances.hpp"
#include "gen/random_tree.hpp"
#include "model/validate.hpp"
#include "single/single_gen.hpp"

namespace rpt::single {
namespace {

Instance TinyChain(Requests w, Distance dmax) {
  // root(0) - n1(1,δ=1) - c2(δ=1, r=4), c3(δ=1, r=5)
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  const NodeId n1 = b.AddInternal(root, 1);
  b.AddClient(n1, 1, 4);
  b.AddClient(n1, 1, 5);
  return Instance(b.Build(), w, dmax);
}

TEST(SingleGen, ServesEverythingAtRootWhenItFits) {
  const Instance inst = TinyChain(10, kNoDistanceLimit);
  const auto result = SolveSingleGen(inst);
  EXPECT_TRUE(IsFeasible(inst, Policy::kSingle, result.solution));
  EXPECT_EQ(result.solution.ReplicaCount(), 1u);
  EXPECT_EQ(result.solution.replicas[0], 0u);  // the root
}

TEST(SingleGen, CapacityOverflowPlacesServersAtChildren) {
  const Instance inst = TinyChain(8, kNoDistanceLimit);  // 9 > 8 at n1
  const auto result = SolveSingleGen(inst);
  EXPECT_TRUE(IsFeasible(inst, Policy::kSingle, result.solution));
  EXPECT_EQ(result.solution.ReplicaCount(), 2u);  // both clients become servers
  EXPECT_EQ(result.stats.capacity_replicas, 2u);
  EXPECT_EQ(result.stats.distance_replicas, 0u);
}

TEST(SingleGen, DistanceForcesServerAtChild) {
  // dmax = 1: requests can reach n1 but not the root (distance 2).
  const Instance inst = TinyChain(10, 1);
  const auto result = SolveSingleGen(inst);
  EXPECT_TRUE(IsFeasible(inst, Policy::kSingle, result.solution));
  // n1 is added when its pending requests cannot climb the root edge.
  ASSERT_EQ(result.solution.ReplicaCount(), 1u);
  EXPECT_EQ(result.solution.replicas[0], 1u);
  EXPECT_EQ(result.stats.distance_replicas, 1u);
}

TEST(SingleGen, ZeroDmaxForcesLocalServing) {
  const Instance inst = TinyChain(10, 0);
  const auto result = SolveSingleGen(inst);
  EXPECT_TRUE(IsFeasible(inst, Policy::kSingle, result.solution));
  EXPECT_EQ(result.solution.ReplicaCount(), 2u);  // each client self-serves
}

TEST(SingleGen, EmptyInstanceNeedsNoReplicas) {
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  b.AddClient(root, 1, 0);
  const Instance inst(b.Build(), 5, kNoDistanceLimit);
  const auto result = SolveSingleGen(inst);
  EXPECT_EQ(result.solution.ReplicaCount(), 0u);
  EXPECT_TRUE(IsFeasible(inst, Policy::kSingle, result.solution));
}

TEST(SingleGen, RejectsOversizedClients) {
  const Instance inst = TinyChain(4, kNoDistanceLimit);  // client with 5 > 4
  EXPECT_THROW((void)SolveSingleGen(inst), InvalidArgument);
}

// The paper's exact worst-case claim (§3.3): on Im the algorithm places
// m(∆+1) replicas while m+1 are optimal.
TEST(SingleGen, PaperWorstCaseTraceIsExact) {
  for (const std::uint32_t arity : {2u, 3u, 4u}) {
    for (const std::uint64_t m : {1u, 2u, 3u, 5u}) {
      const gen::TightnessIm im = gen::BuildTightnessIm(m, arity);
      const auto result = SolveSingleGen(im.instance);
      EXPECT_TRUE(IsFeasible(im.instance, Policy::kSingle, result.solution));
      EXPECT_EQ(result.solution.ReplicaCount(), im.single_gen_expected)
          << "m=" << m << " arity=" << arity;
    }
  }
}

// Randomized property: feasible on every instance class, distances or not.
struct SingleGenPropertyCase {
  std::uint32_t internal_nodes;
  std::uint32_t clients;
  std::uint32_t max_children;
  Requests capacity;
  Distance dmax;
};

// Names the case in gtest output and, through PrintToStringParamName, in
// ctest; without it gtest prints the struct's raw bytes, padding included,
// which vary from build to build.
void PrintTo(const SingleGenPropertyCase& c, std::ostream* os) {
  *os << "internal" << c.internal_nodes << "_clients" << c.clients << "_children"
      << c.max_children << "_W" << c.capacity;
  if (c.dmax == kNoDistanceLimit) {
    *os << "_nod";
  } else {
    *os << "_dmax" << c.dmax;
  }
}

class SingleGenProperty : public ::testing::TestWithParam<SingleGenPropertyCase> {};

TEST_P(SingleGenProperty, AlwaysFeasible) {
  const auto& param = GetParam();
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    gen::RandomTreeConfig cfg;
    cfg.internal_nodes = param.internal_nodes;
    cfg.clients = param.clients;
    cfg.max_children = param.max_children;
    cfg.min_requests = 1;
    cfg.max_requests = param.capacity;  // keep r_i <= W
    const Instance inst(gen::GenerateRandomTree(cfg, seed), param.capacity, param.dmax);
    const auto result = SolveSingleGen(inst);
    const auto report = ValidateSolution(inst, Policy::kSingle, result.solution);
    ASSERT_TRUE(report.ok) << "seed=" << seed << ": " << report.Describe();
    // Never worse than one replica per requesting client.
    std::size_t requesting = 0;
    for (const NodeId c : inst.GetTree().Clients()) {
      requesting += inst.GetTree().RequestsOf(c) > 0;
    }
    EXPECT_LE(result.solution.ReplicaCount(), requesting);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SingleGenProperty,
    ::testing::Values(SingleGenPropertyCase{4, 9, 3, 12, kNoDistanceLimit},
                      SingleGenPropertyCase{4, 9, 3, 12, 6},
                      SingleGenPropertyCase{8, 9, 2, 20, 10},
                      SingleGenPropertyCase{8, 20, 5, 7, kNoDistanceLimit},
                      SingleGenPropertyCase{1, 6, 6, 9, 4},
                      SingleGenPropertyCase{12, 24, 4, 30, 3}),
    ::testing::PrintToStringParamName());

// Ratio certification against the exhaustive optimum on small instances:
// Theorem 3 promises |R_algo| <= (∆+1) |R_opt| (and <= ∆ |R_opt| for NoD).
class SingleGenRatio : public ::testing::TestWithParam<Distance> {};

TEST_P(SingleGenRatio, WithinTheoremBoundOnSmallInstances) {
  const Distance dmax = GetParam();
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    gen::RandomTreeConfig cfg;
    cfg.internal_nodes = 3;
    cfg.clients = 7;
    cfg.max_children = 3;
    cfg.min_requests = 1;
    cfg.max_requests = 8;
    cfg.min_edge = 1;
    cfg.max_edge = 3;
    const Instance inst(gen::GenerateRandomTree(cfg, 1000 + seed), /*capacity=*/8, dmax);
    const auto algo = SolveSingleGen(inst);
    ASSERT_TRUE(IsFeasible(inst, Policy::kSingle, algo.solution));
    const auto opt = exact::SolveExactSingle(inst);
    ASSERT_TRUE(opt.feasible);
    const std::uint64_t delta = inst.GetTree().Arity();
    const std::uint64_t factor =
        inst.HasDistanceConstraint() ? delta + 1 : delta;  // Cor. 1 tightens NoD
    EXPECT_LE(algo.solution.ReplicaCount(), factor * opt.solution.ReplicaCount())
        << "seed=" << seed;
    EXPECT_GE(algo.solution.ReplicaCount(), opt.solution.ReplicaCount());
  }
}

INSTANTIATE_TEST_SUITE_P(DmaxSweep, SingleGenRatio,
                         ::testing::Values(kNoDistanceLimit, Distance{2}, Distance{4},
                                           Distance{8}));

}  // namespace
}  // namespace rpt::single
