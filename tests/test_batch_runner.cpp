// Tests for the runner::BatchRunner batch experiment engine: deterministic
// seeding and aggregation (thread-count independent), empty batches,
// exception isolation, solver-pool loops inside cells, paired comparison
// sweeps, custom metric hooks, and the JSON/CSV escaping of group, solver,
// and metric names.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/solver.hpp"
#include "gen/random_tree.hpp"
#include "runner/batch_runner.hpp"
#include "support/common.hpp"
#include "support/thread_pool.hpp"

namespace rpt::runner {
namespace {

std::function<Instance(std::uint64_t)> SmallBinaryWorkload(std::uint32_t clients) {
  return [clients](std::uint64_t seed) {
    gen::BinaryTreeConfig cfg;
    cfg.clients = clients;
    cfg.min_requests = 1;
    cfg.max_requests = 10;
    return Instance(gen::GenerateFullBinaryTree(cfg, seed), /*capacity=*/15, kNoDistanceLimit);
  };
}

BatchRunner MakeGridRunner(std::size_t threads) {
  BatchRunner runner(BatchOptions{threads});
  for (const core::Algorithm algorithm :
       {core::Algorithm::kSingleGen, core::Algorithm::kMultipleBin,
        core::Algorithm::kMultipleGreedy}) {
    for (const std::uint32_t clients : {8u, 24u, 48u}) {
      runner.AddSweep(std::string(core::AlgorithmName(algorithm)) + "/N=" +
                          std::to_string(clients),
                      SmallBinaryWorkload(clients), SolveWith(algorithm),
                      /*base_seed=*/99, /*seed_count=*/4);
    }
  }
  return runner;
}

TEST(DeriveSeed, DeterministicAndWellSpread) {
  EXPECT_EQ(DeriveSeed(7, 0), DeriveSeed(7, 0));
  std::set<std::uint64_t> seeds;
  for (std::uint64_t base : {0ull, 1ull, 77ull}) {
    for (std::uint64_t index = 0; index < 100; ++index) {
      seeds.insert(DeriveSeed(base, index));
    }
  }
  EXPECT_EQ(seeds.size(), 300u);  // no collisions across bases or indices
}

TEST(BatchRunner, SameSeedsSameReportRegardlessOfThreadCount) {
  BatchRunner baseline = MakeGridRunner(1);
  const BatchReport baseline_report = baseline.Run();
  ASSERT_GT(baseline_report.TotalCells(), 0u);
  EXPECT_EQ(baseline_report.TotalErrors(), 0u);

  for (const std::size_t threads : {2u, 5u, 16u}) {
    BatchRunner runner = MakeGridRunner(threads);
    const BatchReport report = runner.Run();
    // The deterministic JSON (costs, feasibility, errors — no timing) must
    // be bit-identical to the single-threaded run.
    EXPECT_EQ(report.ToJson(), baseline_report.ToJson()) << "threads=" << threads;
    // Per-cell outcomes line up in submission order too.
    ASSERT_EQ(runner.Results().size(), baseline.Results().size());
    for (std::size_t i = 0; i < runner.Results().size(); ++i) {
      EXPECT_EQ(runner.Results()[i].cost, baseline.Results()[i].cost);
      EXPECT_EQ(runner.Results()[i].seed, baseline.Results()[i].seed);
      EXPECT_EQ(runner.Results()[i].feasible, baseline.Results()[i].feasible);
    }
  }
}

TEST(BatchRunner, HardwareConcurrencyDefaultMatchesSingleThread) {
  BatchRunner baseline = MakeGridRunner(1);
  BatchRunner hw = MakeGridRunner(0);  // 0 = hardware concurrency
  EXPECT_EQ(hw.Run().ToJson(), baseline.Run().ToJson());
}

TEST(BatchRunner, SolverPoolLoopsInsideCellsRunInline) {
  // Cells run on the runner's pool workers, which already keep the cores
  // busy. A fork-join loop that a solver starts inside a cell must run
  // once, inline on the cell's own thread, even when the solver pool is
  // wider than one.
  struct SolverThreadsGuard {
    SolverThreadsGuard() { SetSolverThreads(4); }
    ~SolverThreadsGuard() { SetSolverThreads(1); }
  } guard;
  ASSERT_NE(SolverPool(), nullptr);

  struct Observation {
    std::atomic<std::size_t> calls{0};
    std::atomic<std::size_t> covered{0};
    std::atomic<bool> off_cell_thread{false};
    std::atomic<bool> on_caller_thread{false};
  };
  constexpr std::size_t kCells = 12;
  constexpr std::size_t kCount = std::size_t{1} << 16;
  std::vector<Observation> seen(kCells);
  const auto caller = std::this_thread::get_id();
  BatchRunner runner(BatchOptions{3});
  for (std::size_t i = 0; i < kCells; ++i) {
    runner.Add(Cell{"nested", SmallBinaryWorkload(8),
                    [&seen, caller, i](const Instance& instance) {
                      Observation& obs = seen[i];
                      const auto cell_thread = std::this_thread::get_id();
                      obs.on_caller_thread = cell_thread == caller;
                      ParallelForChunked(SolverPool(), kCount, /*grain=*/1,
                                         [&](std::size_t begin, std::size_t end) {
                                           ++obs.calls;
                                           obs.covered += end - begin;
                                           if (std::this_thread::get_id() != cell_thread) {
                                             obs.off_cell_thread = true;
                                           }
                                         });
                      return core::Run(core::Algorithm::kSingleGen, instance);
                    },
                    DeriveSeed(3, i),
                    {}});
  }
  const BatchReport report = runner.Run();
  EXPECT_EQ(report.TotalErrors(), 0u);
  for (std::size_t i = 0; i < kCells; ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    EXPECT_FALSE(seen[i].on_caller_thread.load());  // the cell ran on a pool worker
    EXPECT_EQ(seen[i].calls.load(), 1u);
    EXPECT_EQ(seen[i].covered.load(), kCount);
    EXPECT_FALSE(seen[i].off_cell_thread.load());
  }
}

TEST(BatchRunner, EmptyCellSetYieldsEmptyReport) {
  BatchRunner runner(BatchOptions{4});
  const BatchReport report = runner.Run();
  EXPECT_EQ(report.TotalCells(), 0u);
  EXPECT_EQ(report.TotalErrors(), 0u);
  EXPECT_TRUE(report.Groups().empty());
  EXPECT_TRUE(runner.Results().empty());
  EXPECT_EQ(report.ToJson(), "{\"cells\":0,\"errors\":0,\"groups\":[]}\n");
}

TEST(BatchRunner, ThrowingCellDoesNotPoisonTheBatch) {
  for (const std::size_t threads : {1u, 4u}) {
    BatchRunner runner(BatchOptions{threads});
    for (std::uint64_t i = 0; i < 8; ++i) {
      runner.Add(Cell{
          "mixed", SmallBinaryWorkload(8),
          [i](const Instance& instance) {
            if (i % 2 == 1) throw std::runtime_error("cell blew up");
            return core::Run(core::Algorithm::kSingleGen, instance);
          },
          DeriveSeed(5, i),
          {}});
    }
    // A generator failure is isolated the same way as a solver failure.
    runner.Add(Cell{"mixed",
                    [](std::uint64_t) -> Instance { throw std::runtime_error("bad gen"); },
                    SolveWith(core::Algorithm::kSingleGen), 0, {}});
    const BatchReport report = runner.Run();
    ASSERT_EQ(report.Groups().size(), 1u);
    const GroupReport& group = report.Groups().front();
    EXPECT_EQ(group.cells, 9u);
    EXPECT_EQ(group.errors, 5u);    // 4 odd cells + the generator failure
    EXPECT_EQ(group.feasible, 4u);  // even cells all completed
    EXPECT_EQ(group.cost.Count(), 4u);
    EXPECT_EQ(runner.Results()[1].error, "cell blew up");
    EXPECT_FALSE(runner.Results()[1].ok);
    EXPECT_EQ(runner.Results()[8].error, "bad gen");
    EXPECT_TRUE(runner.Results()[0].ok);
    EXPECT_TRUE(runner.Results()[0].validation_ok);
  }
}

TEST(BatchRunner, NotApplicableAlgorithmIsIsolatedAsError) {
  BatchRunner runner(BatchOptions{2});
  // single-nod rejects distance-constrained instances; the batch records
  // the InvalidArgument instead of dying.
  runner.Add(Cell{"nod",
                  [](std::uint64_t seed) {
                    gen::BinaryTreeConfig cfg;
                    cfg.clients = 8;
                    return Instance(gen::GenerateFullBinaryTree(cfg, seed), 15, Distance{3});
                  },
                  SolveWith(core::Algorithm::kSingleNod), 1, {}});
  runner.AddSweep("gen", SmallBinaryWorkload(8), SolveWith(core::Algorithm::kSingleGen), 1, 2);
  const BatchReport report = runner.Run();
  EXPECT_EQ(report.TotalErrors(), 1u);
  ASSERT_NE(report.FindGroup("nod"), nullptr);
  EXPECT_EQ(report.FindGroup("nod")->errors, 1u);
  EXPECT_NE(runner.Results()[0].error.find("not applicable"), std::string::npos);
  EXPECT_EQ(report.FindGroup("gen")->feasible, 2u);
}

TEST(BatchRunner, GroupsKeepSubmissionOrder) {
  BatchRunner runner(BatchOptions{3});
  runner.AddSweep("zeta", SmallBinaryWorkload(8), SolveWith(core::Algorithm::kSingleGen), 1, 2);
  runner.AddSweep("alpha", SmallBinaryWorkload(8), SolveWith(core::Algorithm::kSingleGen), 1, 2);
  const BatchReport report = runner.Run();
  ASSERT_EQ(report.Groups().size(), 2u);
  EXPECT_EQ(report.Groups()[0].group, "zeta");
  EXPECT_EQ(report.Groups()[1].group, "alpha");
}

// A deterministic fake solver with a fixed replica count, for exercising the
// pairing arithmetic without depending on real algorithm outputs.
std::function<core::RunResult(const Instance&)> FakeSolver(std::size_t cost) {
  return [cost](const Instance&) {
    core::RunResult result;
    result.feasible = true;
    for (std::size_t i = 0; i < cost; ++i) {
      result.solution.replicas.push_back(static_cast<NodeId>(i));
    }
    return result;
  };
}

TEST(ComparisonSweep, PairsSolversPerSeed) {
  BatchRunner runner(BatchOptions{3});
  runner.AddComparisonSweep("cmp", SmallBinaryWorkload(8),
                            {{"base", FakeSolver(2)},
                             {"double", FakeSolver(4)},
                             {"tie", FakeSolver(2)},
                             {"cheaper", FakeSolver(1)}},
                            /*base_seed=*/7, /*seed_count=*/5);
  EXPECT_EQ(runner.CellCount(), 20u);
  const BatchReport report = runner.Run();

  // Every solver aggregates under its own subgroup.
  ASSERT_NE(report.FindGroup("cmp/base"), nullptr);
  EXPECT_EQ(report.FindGroup("cmp/base")->cells, 5u);
  EXPECT_EQ(report.FindGroup("cmp/double")->cost.Mean(), 4.0);

  const ComparisonReport* comparison = report.FindComparison("cmp");
  ASSERT_NE(comparison, nullptr);
  ASSERT_EQ(comparison->ratios.size(), 3u);  // every solver vs "base"
  ASSERT_EQ(comparison->solver_groups.size(), 4u);
  EXPECT_EQ(comparison->solver_groups[0], "cmp/base");

  const RatioStat* doubled = comparison->FindRatio("double");
  ASSERT_NE(doubled, nullptr);
  EXPECT_EQ(doubled->denominator, "base");
  EXPECT_EQ(doubled->pairs, 5u);
  EXPECT_EQ(doubled->ties, 0u);
  EXPECT_EQ(doubled->wins, 0u);
  EXPECT_DOUBLE_EQ(doubled->ratio.Mean(), 2.0);
  EXPECT_DOUBLE_EQ(doubled->diff.Mean(), 2.0);

  const RatioStat* tie = comparison->FindRatio("tie");
  ASSERT_NE(tie, nullptr);
  EXPECT_EQ(tie->ties, 5u);
  EXPECT_EQ(tie->wins, 0u);
  EXPECT_DOUBLE_EQ(tie->ratio.Mean(), 1.0);

  const RatioStat* cheaper = comparison->FindRatio("cheaper");
  ASSERT_NE(cheaper, nullptr);
  EXPECT_EQ(cheaper->wins, 5u);
  EXPECT_DOUBLE_EQ(cheaper->diff.Mean(), -1.0);
  EXPECT_EQ(comparison->FindRatio("base"), nullptr);  // baseline has no self-ratio
}

TEST(ComparisonSweep, IdenticalInstancePerSeed) {
  // Real solvers on the identical instance: multiple-bin can never use more
  // replicas than single-gen on the same tree, for every single pair.
  BatchRunner runner(BatchOptions{4});
  runner.AddComparisonSweep("policies", SmallBinaryWorkload(24),
                            {{"multiple-bin", SolveWith(core::Algorithm::kMultipleBin)},
                             {"single-gen", SolveWith(core::Algorithm::kSingleGen)}},
                            /*base_seed=*/11, /*seed_count=*/8);
  const BatchReport report = runner.Run();
  EXPECT_TRUE(report.AllOk());
  const RatioStat* ratio = report.FindComparison("policies")->FindRatio("single-gen");
  ASSERT_NE(ratio, nullptr);
  EXPECT_EQ(ratio->pairs, 8u);
  EXPECT_EQ(ratio->wins, 0u);  // Single never beats Multiple on the same instance
  EXPECT_GE(ratio->ratio.Min(), 1.0);
}

TEST(ComparisonSweep, ThreadCountInvariantReport) {
  auto build = [](std::size_t threads) {
    BatchRunner runner(BatchOptions{threads});
    runner.AddComparisonSweep(
        "grid", SmallBinaryWorkload(16),
        {{"bin", SolveWith(core::Algorithm::kMultipleBin)},
         {"gen", SolveWith(core::Algorithm::kSingleGen)},
         {"greedy", SolveWith(core::Algorithm::kMultipleGreedy)}},
        /*base_seed=*/3, /*seed_count=*/6,
        {{"lower_bound", [](const Instance& instance, const core::RunResult&) {
            return static_cast<double>(instance.CapacityLowerBound());
          }}});
    return runner;
  };
  BatchRunner baseline = build(1);
  const std::string baseline_json = baseline.Run().ToJson();
  for (const std::size_t threads : {2u, 5u, 16u}) {
    BatchRunner runner = build(threads);
    EXPECT_EQ(runner.Run().ToJson(), baseline_json) << "threads=" << threads;
  }
}

TEST(ComparisonSweep, BrokenSolverYieldsNoPairs) {
  BatchRunner runner(BatchOptions{2});
  runner.AddComparisonSweep(
      "broken", SmallBinaryWorkload(8),
      {{"ok", FakeSolver(2)},
       {"throws", [](const Instance&) -> core::RunResult {
          throw std::runtime_error("solver exploded");
        }}},
      /*base_seed=*/1, /*seed_count=*/3);
  const BatchReport report = runner.Run();
  EXPECT_FALSE(report.AllOk());
  EXPECT_EQ(report.FindGroup("broken/throws")->errors, 3u);
  EXPECT_EQ(report.FindGroup("broken/ok")->errors, 0u);
  const RatioStat* ratio = report.FindComparison("broken")->FindRatio("throws");
  ASSERT_NE(ratio, nullptr);
  EXPECT_EQ(ratio->pairs, 0u);
  EXPECT_EQ(ratio->ratio.Count(), 0u);
}

TEST(ComparisonSweep, RejectsMisuse) {
  BatchRunner runner(BatchOptions{1});
  EXPECT_THROW(
      runner.AddComparisonSweep("g", SmallBinaryWorkload(8), {}, 0, 1),
      InvalidArgument);
  EXPECT_THROW(runner.AddComparisonSweep(
                   "g", SmallBinaryWorkload(8),
                   {{"dup", FakeSolver(1)}, {"dup", FakeSolver(2)}}, 0, 1),
               InvalidArgument);
  EXPECT_THROW(runner.AddComparisonSweep("g", SmallBinaryWorkload(8), {{"", FakeSolver(1)}},
                                         0, 1),
               InvalidArgument);
}

TEST(Metrics, AggregateIntoNamedColumns) {
  BatchRunner runner(BatchOptions{2});
  runner.AddSweep("sized", SmallBinaryWorkload(8), FakeSolver(3), /*base_seed=*/5,
                  /*seed_count=*/4,
                  {{"tree_size",
                    [](const Instance& instance, const core::RunResult&) {
                      return static_cast<double>(instance.GetTree().Size());
                    }},
                   {"always_nan", [](const Instance&, const core::RunResult&) {
                      return std::numeric_limits<double>::quiet_NaN();
                    }}});
  const BatchReport report = runner.Run();
  const GroupReport* group = report.FindGroup("sized");
  ASSERT_NE(group, nullptr);
  const StatAccumulator* size = group->FindMetric("tree_size");
  ASSERT_NE(size, nullptr);
  EXPECT_EQ(size->Count(), 4u);
  EXPECT_GT(size->Mean(), 8.0);  // 8 clients plus internal nodes
  // A hook returning NaN everywhere never creates a column.
  EXPECT_EQ(group->FindMetric("always_nan"), nullptr);
  EXPECT_EQ(group->FindMetric("missing"), nullptr);
  // Per-cell values are recorded in submission order, NaN included.
  ASSERT_EQ(runner.Results()[0].metric_values.size(), 2u);
  EXPECT_TRUE(std::isnan(runner.Results()[0].metric_values[1]));
}

TEST(Metrics, ThrowingHookIsIsolatedAsCellError) {
  BatchRunner runner(BatchOptions{2});
  runner.AddSweep("half", SmallBinaryWorkload(8), FakeSolver(1), /*base_seed=*/5,
                  /*seed_count=*/4,
                  {{"picky", [](const Instance&, const core::RunResult& run) -> double {
                      if (run.solution.ReplicaCount() == 1) {
                        throw std::runtime_error("metric rejected the cell");
                      }
                      return 1.0;
                    }}});
  runner.AddSweep("fine", SmallBinaryWorkload(8), FakeSolver(1), /*base_seed=*/5,
                  /*seed_count=*/2);
  const BatchReport report = runner.Run();
  EXPECT_EQ(report.FindGroup("half")->errors, 4u);
  EXPECT_EQ(runner.Results()[0].error, "metric rejected the cell");
  EXPECT_EQ(report.FindGroup("fine")->errors, 0u);
  EXPECT_FALSE(report.AllOk());
}

TEST(Metrics, RejectsUnnamedOrEmptyHooks) {
  BatchRunner runner(BatchOptions{1});
  EXPECT_THROW(
      runner.Add(Cell{"g", SmallBinaryWorkload(8), FakeSolver(1), 0,
                      {{"", [](const Instance&, const core::RunResult&) { return 0.0; }}}}),
      InvalidArgument);
  EXPECT_THROW(runner.Add(Cell{"g", SmallBinaryWorkload(8), FakeSolver(1), 0,
                               {{"named", nullptr}}}),
               InvalidArgument);
}

TEST(ReportEscaping, JsonEscapesGroupSolverAndMetricNames) {
  BatchRunner runner(BatchOptions{1});
  runner.AddComparisonSweep("W=10,dmax=6", SmallBinaryWorkload(8),
                            {{"base", FakeSolver(1)}, {"quote\"back\\slash", FakeSolver(2)}},
                            /*base_seed=*/1, /*seed_count=*/1,
                            {{"tab\there", [](const Instance&, const core::RunResult&) {
                                return 1.0;
                              }}});
  const std::string json = runner.Run().ToJson();
  // Group names with commas survive verbatim inside the JSON string...
  EXPECT_NE(json.find("\"group\":\"W=10,dmax=6/base\""), std::string::npos);
  // ...while quotes, backslashes, and control characters are escaped.
  EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
  EXPECT_NE(json.find("tab\\there"), std::string::npos);
  EXPECT_EQ(json.find("tab\there"), std::string::npos);
}

TEST(ReportEscaping, CsvQuotesGroupNamesWithCommasAndQuotes) {
  BatchRunner runner(BatchOptions{1});
  runner.Add(Cell{"W=10,dmax=6", SmallBinaryWorkload(8), FakeSolver(1), 0, {}});
  runner.Add(Cell{"say \"hi\"", SmallBinaryWorkload(8), FakeSolver(1), 0, {}});
  const BatchReport report = runner.Run();
  std::ostringstream os;
  report.WriteCsv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("\"W=10,dmax=6\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
  // Round-trip: the first data row still has the base column count after
  // CSV-aware splitting (the quoted comma does not add a field).
  std::istringstream in(csv);
  std::string header_line;
  std::string row;
  std::getline(in, header_line);
  std::getline(in, row);
  std::size_t fields = 0;
  bool quoted = false;
  for (const char c : row) {
    if (c == '"') quoted = !quoted;
    fields += (c == ',' && !quoted);
  }
  ++fields;
  std::size_t header_fields = std::count(header_line.begin(), header_line.end(), ',') + 1;
  EXPECT_EQ(fields, header_fields);
}

TEST(ReportEscaping, MetricColumnsJoinTheCsvHeader) {
  BatchRunner runner(BatchOptions{1});
  runner.AddSweep("a", SmallBinaryWorkload(8), FakeSolver(1), 0, 1,
                  {{"extra", [](const Instance&, const core::RunResult&) { return 2.0; }}});
  runner.AddSweep("b", SmallBinaryWorkload(8), FakeSolver(1), 0, 1);
  const BatchReport report = runner.Run();
  std::ostringstream os;
  report.WriteCsv(os, /*include_timing=*/false);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("extra_mean,extra_min,extra_max"), std::string::npos);
  // Group "b" lacks the metric: its row ends with empty fields.
  std::istringstream in(csv);
  std::string line;
  std::getline(in, line);  // header
  std::getline(in, line);  // group a
  EXPECT_NE(line.find("2.0000,2.0000,2.0000"), std::string::npos);
  std::getline(in, line);  // group b
  EXPECT_NE(line.find(",,"), std::string::npos);
}

TEST(BatchRunner, RejectsMisuse) {
  BatchRunner runner(BatchOptions{1});
  EXPECT_THROW(runner.Add(Cell{"g", nullptr, SolveWith(core::Algorithm::kSingleGen), 0, {}}),
               InvalidArgument);
  EXPECT_THROW(runner.Add(Cell{"g", SmallBinaryWorkload(8), nullptr, 0, {}}), InvalidArgument);
  (void)runner.Run();
  EXPECT_THROW((void)runner.Run(), InvalidArgument);  // Run() is once
  EXPECT_THROW(
      runner.Add(Cell{"g", SmallBinaryWorkload(8), SolveWith(core::Algorithm::kSingleGen), 0, {}}),
      InvalidArgument);
}

}  // namespace
}  // namespace rpt::runner
