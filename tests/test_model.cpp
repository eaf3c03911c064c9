// Unit tests for Instance, Solution and the independent validator. The
// validator is the backstop for every solver in the library, so each failure
// mode gets its own test.
#include <gtest/gtest.h>

#include "model/instance.hpp"
#include "model/solution.hpp"
#include "model/validate.hpp"

namespace rpt {
namespace {

// Root(0) -- n1(1, delta 2) -- c2(delta 3, r=6), c3(delta 1, r=4); and
// c4 (delta 10, r=5) directly under root.
Tree MakeTree() {
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  const NodeId n1 = b.AddInternal(root, 2);
  b.AddClient(n1, 3, 6);
  b.AddClient(n1, 1, 4);
  b.AddClient(root, 10, 5);
  return b.Build();
}

Instance MakeInstance(Requests w, Distance dmax) { return Instance(MakeTree(), w, dmax); }

TEST(Instance, RejectsZeroCapacity) {
  EXPECT_THROW(Instance(MakeTree(), 0), InvalidArgument);
}

TEST(Instance, CanServeRespectsAncestryAndDistance) {
  const Instance inst = MakeInstance(10, 5);
  EXPECT_TRUE(inst.CanServe(2, 2));   // self, distance 0
  EXPECT_TRUE(inst.CanServe(2, 1));   // parent, distance 3
  EXPECT_TRUE(inst.CanServe(2, 0));   // root, distance 5 == dmax
  EXPECT_FALSE(inst.CanServe(4, 0));  // distance 10 > 5
  EXPECT_TRUE(inst.CanServe(4, 4));
  EXPECT_FALSE(inst.CanServe(2, 3));  // sibling is not an ancestor
  EXPECT_FALSE(inst.CanServe(2, 4));
}

TEST(Instance, NoDistanceConstraintServesWholePath) {
  const Instance inst = MakeInstance(10, kNoDistanceLimit);
  EXPECT_FALSE(inst.HasDistanceConstraint());
  EXPECT_TRUE(inst.CanServe(4, 0));
  EXPECT_TRUE(inst.CanServe(2, 0));
}

TEST(Instance, AllRequestsFitLocally) {
  EXPECT_TRUE(MakeInstance(6, kNoDistanceLimit).AllRequestsFitLocally());
  EXPECT_FALSE(MakeInstance(5, kNoDistanceLimit).AllRequestsFitLocally());
}

TEST(Instance, CapacityLowerBound) {
  EXPECT_EQ(MakeInstance(6, kNoDistanceLimit).CapacityLowerBound(), 3u);   // 15/6
  EXPECT_EQ(MakeInstance(15, kNoDistanceLimit).CapacityLowerBound(), 1u);
  EXPECT_EQ(MakeInstance(7, kNoDistanceLimit).CapacityLowerBound(), 3u);
}

TEST(Instance, SummaryMentionsKeyFields) {
  const std::string s = MakeInstance(6, 5).Summary();
  EXPECT_NE(s.find("W=6"), std::string::npos);
  EXPECT_NE(s.find("dmax=5"), std::string::npos);
  const std::string nod = MakeInstance(6, kNoDistanceLimit).Summary();
  EXPECT_NE(nod.find("dmax=inf"), std::string::npos);
}

Solution GoodSolution() {
  // Replicas at n1 and at client 4; n1 serves clients 2 and 3, c4 self-serves.
  Solution s;
  s.replicas = {1, 4};
  s.assignment = {{2, 1, 6}, {3, 1, 4}, {4, 4, 5}};
  return s;
}

TEST(Validate, AcceptsGoodSolution) {
  const Instance inst = MakeInstance(10, kNoDistanceLimit);
  const auto report = ValidateSolution(inst, Policy::kSingle, GoodSolution());
  EXPECT_TRUE(report.ok) << report.Describe();
  EXPECT_EQ(report.Describe(), "ok");
}

TEST(Validate, DetectsOverload) {
  const Instance inst = MakeInstance(9, kNoDistanceLimit);  // n1 load is 10 > 9
  const auto report = ValidateSolution(inst, Policy::kSingle, GoodSolution());
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.Describe().find("overloaded"), std::string::npos);
}

TEST(Validate, DetectsDistanceViolation) {
  const Instance inst = MakeInstance(10, 2);  // client 2 at distance 3 from n1
  const auto report = ValidateSolution(inst, Policy::kSingle, GoodSolution());
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.Describe().find("distance"), std::string::npos);
}

TEST(Validate, DetectsIncompleteService) {
  const Instance inst = MakeInstance(10, kNoDistanceLimit);
  Solution s = GoodSolution();
  s.assignment[1].amount = 3;  // client 3 short by one request
  const auto report = ValidateSolution(inst, Policy::kSingle, s);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.Describe().find("served"), std::string::npos);
}

TEST(Validate, DetectsNonReplicaServer) {
  const Instance inst = MakeInstance(10, kNoDistanceLimit);
  Solution s = GoodSolution();
  s.replicas = {1};  // 4 serves itself without being a replica
  const auto report = ValidateSolution(inst, Policy::kSingle, s);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.Describe().find("non-replica"), std::string::npos);
}

TEST(Validate, DetectsOffPathServer) {
  const Instance inst = MakeInstance(10, kNoDistanceLimit);
  Solution s;
  s.replicas = {1, 4};
  s.assignment = {{2, 1, 6}, {3, 1, 4}, {4, 1, 5}};  // n1 is not an ancestor of 4? it isn't
  const auto report = ValidateSolution(inst, Policy::kSingle, s);
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.Describe().find("root path"), std::string::npos);
}

TEST(Validate, DetectsSinglePolicySplit) {
  const Instance inst = MakeInstance(10, kNoDistanceLimit);
  Solution s;
  s.replicas = {0, 1};
  s.assignment = {{2, 1, 3}, {2, 0, 3}, {3, 1, 4}, {4, 0, 5}};
  EXPECT_FALSE(ValidateSolution(inst, Policy::kSingle, s).ok);
  EXPECT_TRUE(ValidateSolution(inst, Policy::kMultiple, s).ok);  // fine under Multiple
}

TEST(Validate, SinglePolicySplitCountsEveryServer) {
  // Client 2 is split over itself, n1 and the root, with the n1 share in two
  // entries; client 3 keeps to one server.
  const Instance inst = MakeInstance(10, kNoDistanceLimit);
  Solution s;
  s.replicas = {0, 1, 2};
  s.assignment = {{2, 1, 1}, {2, 2, 2}, {3, 1, 4}, {2, 0, 2}, {2, 1, 1}, {4, 0, 5}};
  const auto report = ValidateSolution(inst, Policy::kSingle, s);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.Describe(), "Single policy: client 2 uses 3 servers; ");
  EXPECT_TRUE(ValidateSolution(inst, Policy::kMultiple, s).ok);
}

TEST(Validate, DetectsDuplicateReplicaAndBadIds) {
  const Instance inst = MakeInstance(10, kNoDistanceLimit);
  Solution s = GoodSolution();
  s.replicas.push_back(1);
  EXPECT_NE(ValidateSolution(inst, Policy::kSingle, s).Describe().find("duplicate"),
            std::string::npos);
  s = GoodSolution();
  s.replicas.push_back(77);
  EXPECT_NE(ValidateSolution(inst, Policy::kSingle, s).Describe().find("out of range"),
            std::string::npos);
}

TEST(Validate, DetectsZeroAmountAndNonClientSource) {
  const Instance inst = MakeInstance(10, kNoDistanceLimit);
  Solution s = GoodSolution();
  s.assignment.push_back({2, 1, 0});
  EXPECT_NE(ValidateSolution(inst, Policy::kSingle, s).Describe().find("zero-amount"),
            std::string::npos);
  s = GoodSolution();
  s.assignment.push_back({1, 0, 1});  // internal node "issuing" requests
  EXPECT_NE(ValidateSolution(inst, Policy::kSingle, s).Describe().find("non-client"),
            std::string::npos);
}

TEST(Validate, IdleReplicaOnlyFlaggedWhenAsked) {
  const Instance inst = MakeInstance(10, kNoDistanceLimit);
  Solution s = GoodSolution();
  s.replicas.push_back(0);  // root placed but unused
  EXPECT_TRUE(ValidateSolution(inst, Policy::kSingle, s).ok);
  EXPECT_FALSE(ValidateSolution(inst, Policy::kSingle, s, /*forbid_idle_replicas=*/true).ok);
}

TEST(Validate, ZeroRequestClientNeedsNoEntry) {
  TreeBuilder b;
  const NodeId root = b.AddRoot();
  b.AddClient(root, 1, 0);
  const Instance inst(b.Build(), 5);
  Solution s;  // nothing at all
  EXPECT_TRUE(ValidateSolution(inst, Policy::kSingle, s).ok);
}

TEST(Solution, CanonicalizeMergesAndSorts) {
  Solution s;
  s.replicas = {4, 1, 4};
  s.assignment = {{2, 1, 3}, {2, 1, 3}, {4, 4, 5}};
  s.Canonicalize();
  EXPECT_EQ(s.replicas, (std::vector<NodeId>{1, 4}));
  ASSERT_EQ(s.assignment.size(), 2u);
  EXPECT_EQ(s.assignment[0], (ServiceEntry{2, 1, 6}));
  EXPECT_EQ(s.assignment[1], (ServiceEntry{4, 4, 5}));
}

TEST(Solution, RoutedRequestsSumsAmounts) {
  EXPECT_EQ(GoodSolution().RoutedRequests(), 15u);
  EXPECT_EQ(Solution{}.RoutedRequests(), 0u);
}

TEST(Solution, SummarizeLoads) {
  const Tree tree = MakeTree();
  const LoadSummary summary = SummarizeLoads(tree, 10, GoodSolution());
  EXPECT_EQ(summary.max_load, 10u);
  EXPECT_EQ(summary.total_load, 15u);
  EXPECT_DOUBLE_EQ(summary.mean_load, 7.5);
  EXPECT_DOUBLE_EQ(summary.utilization, 0.75);
}

}  // namespace
}  // namespace rpt
