// Tests for the Multiple-NoD exact DP: hand-checkable optima, feasibility
// edge cases (clients larger than W on short chains), and agreement with the
// exhaustive Multiple solver on small random trees.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <ostream>
#include <vector>

#include "exact/exact.hpp"
#include "gen/random_tree.hpp"
#include "model/validate.hpp"
#include "multiple/multiple_nod_dp.hpp"
#include "support/rng.hpp"

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

// Scalar reference for the vectorized staircase-merge inner loop.
void MergeMinShiftScalar(std::vector<std::uint32_t>& out,
                         const std::vector<std::uint32_t>& rhs, std::uint32_t shift) {
  for (std::size_t j = 0; j < rhs.size(); ++j) {
    out[j] = std::min(out[j], rhs[j] + shift);
  }
}

TEST(MergeMinShift, MatchesScalarReference) {
  Rng rng(4242);
  for (int round = 0; round < 50; ++round) {
    const std::size_t n = 1 + rng.NextBelow(300);
    std::vector<std::uint32_t> out(n);
    std::vector<std::uint32_t> rhs(n);
    for (std::size_t j = 0; j < n; ++j) {
      // Include the UINT32_MAX "unwritten" sentinel the convolution uses.
      out[j] = rng.NextBool(0.2) ? std::numeric_limits<std::uint32_t>::max()
                                 : static_cast<std::uint32_t>(rng.NextBelow(1 << 20));
      rhs[j] = static_cast<std::uint32_t>(rng.NextBelow(1 << 20));
    }
    const auto shift = static_cast<std::uint32_t>(rng.NextBelow(1 << 20));
    std::vector<std::uint32_t> expected = out;
    MergeMinShiftScalar(expected, rhs, shift);
    detail::MergeMinShift(out.data(), rhs.data(), shift, n);
    EXPECT_EQ(out, expected) << "round " << round;
  }
}

TEST(MergeMinShift, ZeroLengthIsANoop) {
  detail::MergeMinShift(nullptr, nullptr, 7, 0);  // must not dereference
}

}  // namespace
}  // namespace rpt::multiple
