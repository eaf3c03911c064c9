// Unit tests for Instance, Solution and the independent validator. The
// validator is the backstop for every solver in the library, so each failure
// mode gets its own test.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "gen/random_tree.hpp"
#include "model/instance.hpp"
#include "model/solution.hpp"
#include "model/validate.hpp"
#include "multiple/multiple_bin.hpp"
#include "multiple/nod_dp_engine.hpp"
#include "single/single_nod.hpp"
#include "support/rng.hpp"

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

// Canonicalize as a comparison sort, the oracle: replicas sorted without
// repeats, the assignment sorted by (client, server) with equal keys summed
// and zero sums dropped.
Solution SortCanonical(Solution s) {
  std::sort(s.replicas.begin(), s.replicas.end());
  s.replicas.erase(std::unique(s.replicas.begin(), s.replicas.end()), s.replicas.end());
  std::sort(s.assignment.begin(), s.assignment.end(),
            [](const ServiceEntry& a, const ServiceEntry& b) {
              if (a.client != b.client) return a.client < b.client;
              return a.server < b.server;
            });
  std::size_t out = 0;
  for (std::size_t i = 0; i < s.assignment.size();) {
    const NodeId client = s.assignment[i].client;
    const NodeId server = s.assignment[i].server;
    Requests amount = 0;
    for (; i < s.assignment.size() && s.assignment[i].client == client &&
           s.assignment[i].server == server;
         ++i) {
      amount += s.assignment[i].amount;
    }
    if (amount > 0) s.assignment[out++] = ServiceEntry{client, server, amount};
  }
  s.assignment.resize(out);
  return s;
}

// Canonicalize must give the oracle's replicas and assignment, entry for entry.
void ExpectCanonicalizeMatchesSort(Solution s, const std::string& label) {
  const Solution want = SortCanonical(s);
  s.Canonicalize();
  EXPECT_TRUE(s.replicas == want.replicas) << label;
  EXPECT_TRUE(s.assignment == want.assignment) << label;
}

template <typename T>
void Shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) std::swap(items[i - 1], items[rng.NextBelow(i)]);
}

// Splits some entries in two, adds zero-amount entries and repeats replicas.
Solution WithDuplicates(Solution s, Rng& rng) {
  const std::size_t entries = s.assignment.size();
  for (std::size_t i = 0; i < entries; ++i) {
    ServiceEntry& entry = s.assignment[i];
    const std::uint64_t roll = rng.NextBelow(4);
    if (roll == 0 && entry.amount > 1) {
      const Requests part = rng.NextInRange(1, entry.amount - 1);
      entry.amount -= part;
      s.assignment.push_back(ServiceEntry{entry.client, entry.server, part});
    } else if (roll == 1) {
      s.assignment.push_back(ServiceEntry{entry.client, entry.server, 0});
    } else if (roll == 2) {
      s.assignment.push_back(ServiceEntry{entry.server, entry.client, 0});
    }
  }
  const std::size_t replicas = s.replicas.size();
  for (std::size_t i = 0; i < replicas; i += 2) s.replicas.push_back(s.replicas[i]);
  return s;
}

TEST(Solution, CanonicalizeMatchesSortOnShuffledSolverOutput) {
  constexpr Requests kCapacity = 12;
  Rng rng(36);
  int solutions = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    gen::RandomTreeConfig random;
    random.internal_nodes = 40 + 20 * static_cast<std::uint32_t>(seed);
    random.max_children = seed % 2 == 0 ? 2 : 5;
    random.clients = random.internal_nodes + (random.max_children == 2 ? 1 : 60);
    random.max_requests = kCapacity;
    gen::BinaryTreeConfig binary;
    binary.clients = 64u << (seed % 4);
    binary.max_requests = kCapacity;
    for (const bool is_binary : {false, true}) {
      const Instance instance(is_binary ? gen::GenerateFullBinaryTree(binary, seed)
                                        : gen::GenerateRandomTree(random, seed),
                              kCapacity);
      std::vector<std::pair<std::string, Solution>> outputs;
      multiple::NodDpEngine engine(instance.GetTree(), kCapacity);
      engine.ComputeAll();
      ASSERT_TRUE(engine.Feasible());
      outputs.emplace_back("dp-raw", engine.BacktrackWithBudget(0).solution);
      outputs.emplace_back("dp", engine.Backtrack());
      outputs.emplace_back("single-nod", single::SolveSingleNod(instance).solution);
      if (is_binary || random.max_children == 2) {
        outputs.emplace_back("multiple-bin", multiple::SolveMultipleBin(instance).solution);
      }
      for (auto& [name, solution] : outputs) {
        const std::string label = name + (is_binary ? " binary" : " random") + " seed " +
                                  std::to_string(seed);
        ExpectCanonicalizeMatchesSort(solution, label + " as solved");
        Shuffle(solution.replicas, rng);
        Shuffle(solution.assignment, rng);
        ExpectCanonicalizeMatchesSort(solution, label + " shuffled");
        Solution noisy = WithDuplicates(solution, rng);
        Shuffle(noisy.replicas, rng);
        Shuffle(noisy.assignment, rng);
        ExpectCanonicalizeMatchesSort(noisy, label + " with duplicates");
        ++solutions;
      }
    }
  }
  EXPECT_EQ(solutions, 8 * 2 * 3 + 8 + 4);
}

TEST(Solution, CanonicalizeMatchesSortOnDenseDuplicates) {
  // Few distinct ids, so nearly every (client, server) key repeats, and a
  // quarter of the amounts are zero; some keys sum to zero as a whole.
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    const std::uint64_t ids = 1 + rng.NextBelow(40);
    Solution s;
    for (std::uint64_t i = rng.NextBelow(400); i > 0; --i) {
      s.replicas.push_back(static_cast<NodeId>(rng.NextBelow(ids)));
      s.assignment.push_back(ServiceEntry{static_cast<NodeId>(rng.NextBelow(ids)),
                                          static_cast<NodeId>(rng.NextBelow(ids)),
                                          rng.NextBelow(4) == 0 ? 0 : rng.NextInRange(1, 9)});
    }
    ExpectCanonicalizeMatchesSort(s, "round " + std::to_string(round));
  }
}

TEST(Solution, CanonicalizeOrdersOneClientSplitOverManyServers) {
  // One bucket of 5,000 entries: the per-bucket order must not go quadratic.
  Rng rng(5000);
  Solution s;
  for (NodeId server = 0; server < 5000; ++server) {
    s.replicas.push_back(10'000 - server);
    s.assignment.push_back(ServiceEntry{7, 10'000 - server, 1 + server % 3});
  }
  s.assignment.push_back(ServiceEntry{7, 9'000, 2});  // one repeated key
  Shuffle(s.replicas, rng);
  Shuffle(s.assignment, rng);
  ExpectCanonicalizeMatchesSort(s, "one client");
  s.Canonicalize();
  ASSERT_EQ(s.assignment.size(), 5000u);
  EXPECT_EQ(s.assignment.front(), (ServiceEntry{7, 5'001, 2}));
  EXPECT_EQ(s.assignment[3'999], (ServiceEntry{7, 9'000, 2 + 2}));
  EXPECT_EQ(s.assignment[4'000], (ServiceEntry{7, 9'001, 1}));
}

TEST(Solution, CanonicalizeIdsNearTheTopOfTheRange) {
  // A scratch sized by the largest id would take gigabytes here; a bounded
  // one stays at the fixed table.
  constexpr NodeId kTop = kInvalidNode - 1;
  Solution s;
  s.replicas = {kTop, 3, kTop - 1, kTop, 0};
  s.assignment = {{kTop, kTop, 2},     {kTop - 1, kTop, 1}, {5, kTop - 1, 4},
                  {kTop, kTop - 1, 0}, {kTop, kTop, 3},     {kTop - 70'000, 5, 6}};
  ExpectCanonicalizeMatchesSort(s, "ids near 2^32 - 2");
  s.Canonicalize();
  EXPECT_EQ(s.replicas, (std::vector<NodeId>{0, 3, kTop - 1, kTop}));
  EXPECT_EQ(s.assignment, (std::vector<ServiceEntry>{{5, kTop - 1, 4},
                                                     {kTop - 70'000, 5, 6},
                                                     {kTop - 1, kTop, 1},
                                                     {kTop, kTop, 5}}));
}

TEST(Solution, CanonicalizeKeepsEmptyAndCanonicalInputs) {
  Solution empty;
  empty.Canonicalize();
  EXPECT_TRUE(empty.replicas.empty());
  EXPECT_TRUE(empty.assignment.empty());

  // The DP's own output is canonical, and comes back unchanged.
  gen::BinaryTreeConfig config;
  config.clients = 256;
  const Instance instance(gen::GenerateFullBinaryTree(config, 3), 10);
  multiple::NodDpEngine engine(instance.GetTree(), 10);
  engine.ComputeAll();
  const Solution canonical = engine.Backtrack();
  ASSERT_FALSE(canonical.assignment.empty());
  Solution again = canonical;
  again.Canonicalize();
  EXPECT_TRUE(again.replicas == canonical.replicas);
  EXPECT_TRUE(again.assignment == canonical.assignment);
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

TEST(Solution, SummarizeLoadsCountsEveryServerOnce) {
  // An idle replica (node 0) and a server that is not a replica (node 1)
  // both count; node 4 appears twice and counts once.
  Solution s = GoodSolution();
  s.replicas = {0, 4, 4};
  s.assignment.push_back({4, 4, 1});
  const LoadSummary summary = SummarizeLoads(MakeTree(), 10, s);
  EXPECT_EQ(summary.max_load, 10u);
  EXPECT_EQ(summary.total_load, 16u);
  EXPECT_DOUBLE_EQ(summary.mean_load, 16.0 / 3.0);
  EXPECT_DOUBLE_EQ(summary.utilization, 16.0 / 30.0);
  EXPECT_EQ(SummarizeLoads(MakeTree(), 10, Solution{}).total_load, 0u);
}

TEST(Solution, SummarizeLoadsRejectsOutOfRangeIds) {
  const Tree tree = MakeTree();
  Solution bad_replica = GoodSolution();
  bad_replica.replicas.push_back(5);
  EXPECT_THROW((void)SummarizeLoads(tree, 10, bad_replica), InvalidArgument);
  Solution bad_server = GoodSolution();
  bad_server.assignment.push_back({2, kInvalidNode, 1});
  EXPECT_THROW((void)SummarizeLoads(tree, 10, bad_server), InvalidArgument);
}

}  // namespace
}  // namespace rpt
