// Mutation tests for the validator: take a certified-valid solution, apply a
// random corrupting mutation, and require the validator to flag it. This
// guards the guard — every optimality/ratio claim in this repository leans
// on the validator being unable to miss a violation.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

#include "core/solver.hpp"
#include "gen/random_tree.hpp"
#include "model/validate.hpp"
#include "support/rng.hpp"

namespace rpt {
namespace {

struct FuzzCase {
  Policy policy;
  core::Algorithm algorithm;
};

// Names the case in gtest output and, through PrintToStringParamName, in
// ctest; without it gtest prints the struct's raw bytes, padding included,
// which vary from build to build.
void PrintTo(const FuzzCase& c, std::ostream* os) {
  std::string algorithm(core::AlgorithmName(c.algorithm));
  std::replace(algorithm.begin(), algorithm.end(), '-', '_');
  *os << PolicyName(c.policy) << '_' << algorithm;
}

class ValidatorFuzz : public ::testing::TestWithParam<FuzzCase> {};

// Applies one of several corruption kinds; returns false when the mutation
// was not applicable to this solution (caller retries with another draw).
bool Corrupt(Rng& rng, const Instance& inst, Solution& s) {
  if (s.assignment.empty()) return false;
  const std::size_t pick = static_cast<std::size_t>(rng.NextBelow(s.assignment.size()));
  ServiceEntry& entry = s.assignment[pick];
  switch (rng.NextBelow(6)) {
    case 0:  // short-serve a client
      s.assignment.erase(s.assignment.begin() + static_cast<std::ptrdiff_t>(pick));
      return true;
    case 1:  // overload: inflate one entry past W
      entry.amount += inst.Capacity() + 1;
      return true;
    case 2: {  // route to a non-replica node
      for (NodeId node = 0; node < inst.GetTree().Size(); ++node) {
        if (std::find(s.replicas.begin(), s.replicas.end(), node) == s.replicas.end()) {
          entry.server = node;
          return true;
        }
      }
      return false;
    }
    case 3: {  // route to a non-ancestor (a different leaf)
      for (const NodeId client : inst.GetTree().Clients()) {
        if (client != entry.client) {
          entry.server = client;
          return true;
        }
      }
      return false;
    }
    case 4:  // drop a replica that is still serving requests
      s.replicas.erase(std::remove(s.replicas.begin(), s.replicas.end(), entry.server),
                       s.replicas.end());
      return true;
    default:  // duplicate a replica entry
      if (s.replicas.empty()) return false;
      s.replicas.push_back(s.replicas[rng.NextBelow(s.replicas.size())]);
      return true;
  }
}

TEST_P(ValidatorFuzz, DetectsEveryCorruption) {
  const auto& param = GetParam();
  Rng rng(0xF00D);
  std::size_t mutations_checked = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    gen::BinaryTreeConfig cfg;
    cfg.clients = 12;
    cfg.min_requests = 1;
    cfg.max_requests = 8;
    const Instance inst(gen::GenerateFullBinaryTree(cfg, 90000 + seed), /*capacity=*/10,
                        /*dmax=*/9);
    const Solution valid = core::Run(param.algorithm, inst).solution;
    ASSERT_TRUE(ValidateSolution(inst, param.policy, valid).ok);
    for (int round = 0; round < 20; ++round) {
      Solution corrupted = valid;
      if (!Corrupt(rng, inst, corrupted)) continue;
      ++mutations_checked;
      EXPECT_FALSE(ValidateSolution(inst, param.policy, corrupted).ok)
          << "undetected corruption, seed=" << seed << " round=" << round;
    }
  }
  EXPECT_GT(mutations_checked, 100u);  // the fuzz actually exercised mutations
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ValidatorFuzz,
    ::testing::Values(FuzzCase{Policy::kSingle, core::Algorithm::kSingleGen},
                      FuzzCase{Policy::kMultiple, core::Algorithm::kMultipleBin},
                      FuzzCase{Policy::kMultiple, core::Algorithm::kMultipleGreedy}),
    ::testing::PrintToStringParamName());

// Single-policy splitting corruption: split one client's entry across two
// servers — legal under Multiple, illegal under Single.
TEST(ValidatorFuzzExtra, SingleSplitDetected) {
  gen::BinaryTreeConfig cfg;
  cfg.clients = 8;
  cfg.min_requests = 2;
  cfg.max_requests = 8;
  const Instance inst(gen::GenerateFullBinaryTree(cfg, 90100), /*capacity=*/10,
                      kNoDistanceLimit);
  Solution s = core::Run(core::Algorithm::kSingleGen, inst).solution;
  ASSERT_TRUE(ValidateSolution(inst, Policy::kSingle, s).ok);
  // Find an entry with amount >= 2 and a client whose own node is free.
  for (ServiceEntry& entry : s.assignment) {
    if (entry.amount < 2 || entry.server == entry.client) continue;
    const Requests moved = entry.amount / 2;
    entry.amount -= moved;
    s.replicas.push_back(entry.client);
    s.assignment.push_back(ServiceEntry{entry.client, entry.client, moved});
    EXPECT_FALSE(ValidateSolution(inst, Policy::kSingle, s).ok);
    EXPECT_TRUE(ValidateSolution(inst, Policy::kMultiple, s).ok);
    return;
  }
  FAIL() << "no splittable entry found";
}

}  // namespace
}  // namespace rpt
