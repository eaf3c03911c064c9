// bench_hotpath — per-kernel wall-time tracking for the hot solver paths.
//
// This is the perf trajectory anchor: it times each solver kernel (plus the
// tree-build substrate and the Dinic routing oracle) on large generated
// instances of the bench_scaling class and writes the aggregate report —
// *including* timing statistics — to the path given via --json (CI uploads
// it as the BENCH_hotpath.json artifact via scripts/bench_perf.sh). Unlike
// the other batch binaries, the JSON here deliberately contains wall-clock
// numbers, so it is NOT byte-identical across runs; the deterministic part
// (costs, feasibility, metric columns) still is — write it separately with
// --det-json for the CI thread-count-invariance diff.
//
// Intra-instance parallelism: cells run one at a time (a single batch
// worker), and --threads sets the *solver pool* width instead — the
// level-synchronous Multiple-NoD DP, the one parallel kernel, spreads one
// instance across that many threads; every other kernel is serial and
// should not move with the width. --thread-sweep "1,2,4,8" repeats the
// whole kernel grid per width and emits per-kernel speedup columns (vs the
// first width) into the JSON's "thread_sweep" section.
//
// Kernels (the N=1048576 "million-node" tier is the same workload at
// --big-clients):
//   tree-build         TreeBuilder::Build on a rebuilt copy of the instance
//                      tree (--build-reps builds per cell; timing/metric
//                      only, so no feasibility/cost columns)
//   single-gen         Algorithm 1 on a full binary tree, NoD
//   single-nod         Algorithm 2 on a full binary tree
//   single-push        push-toward-root improvement loop
//   multiple-bin       Algorithm 3 on a full binary tree
//   multiple-nod-dp    exact Multiple-NoD tree knapsack DP (the dp_table_mib
//                      metric is the table footprint the DP holds)
//   flow-oracle        Dinic feasibility routing with a replica at every
//                      internal node
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "flow/assignment.hpp"
#include "gen/random_tree.hpp"
#include "multiple/multiple_nod_dp.hpp"
#include "runner/batch_runner.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace {

using namespace rpt;

// Same instance class as bench_scaling's BinaryWorkload: requests 1..10,
// W=40, so every solver precondition (r_i <= W) holds.
std::function<Instance(std::uint64_t)> BinaryWorkload(std::uint32_t clients) {
  return [clients](std::uint64_t seed) {
    gen::BinaryTreeConfig cfg;
    cfg.clients = clients;
    cfg.min_requests = 1;
    cfg.max_requests = 10;
    cfg.min_edge = 1;
    cfg.max_edge = 2;
    return Instance(gen::GenerateFullBinaryTree(cfg, seed), /*capacity=*/40, kNoDistanceLimit);
  };
}

// Rebuilds the instance's tree through a fresh TreeBuilder `reps` times —
// a pure measurement of the arena construction + derived-data pass.
core::RunResult SolveTreeBuild(const Instance& instance, std::uint64_t reps) {
  const Tree& tree = instance.GetTree();
  core::RunResult result;
  std::size_t checksum = 0;
  Timer timer;
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    TreeBuilder builder;
    builder.Reserve(tree.Size());
    for (NodeId id = 0; id < tree.Size(); ++id) {
      if (id == tree.Root()) {
        builder.AddRoot();
      } else if (tree.IsClient(id)) {
        builder.AddClient(tree.Parent(id), tree.DistToParent(id), tree.RequestsOf(id));
      } else {
        builder.AddInternal(tree.Parent(id), tree.DistToParent(id));
      }
    }
    const Tree rebuilt = builder.Build();
    checksum += rebuilt.SubtreeRequests(rebuilt.Root());
  }
  result.elapsed_ms = timer.ElapsedMs();
  RPT_CHECK(checksum == reps * static_cast<std::size_t>(tree.TotalRequests()));
  result.feasible = false;  // timing-only kernel; the group is metric_only
  return result;
}

// The Dinic-based Multiple feasibility oracle run on the placement
// consisting of every internal node (as in bench_scaling).
core::RunResult SolveFlowOracle(const Instance& instance) {
  core::RunResult result;
  Timer timer;
  std::vector<NodeId> replicas;
  for (NodeId id = 0; id < instance.GetTree().Size(); ++id) {
    if (!instance.GetTree().IsClient(id)) replicas.push_back(id);
  }
  auto routing = flow::RouteMultiple(instance, replicas);
  result.elapsed_ms = timer.ElapsedMs();
  result.feasible = routing.has_value();
  if (routing) {
    result.solution.replicas = std::move(replicas);
    result.solution.assignment = std::move(*routing);
    result.validation = ValidateSolution(instance, Policy::kMultiple, result.solution);
  }
  return result;
}

// Table footprint of the Multiple-NoD DP, in MiB: the entries the DP holds
// across every F and prefix table (8-byte request counts), read from a
// second solve of the instance after the timed one.
double DpTableMiB(const Instance& instance, const core::RunResult&) {
  const auto result = multiple::SolveMultipleNodDp(instance);
  return static_cast<double>(result.stats.table_entries * sizeof(Requests)) / (1024.0 * 1024.0);
}

std::string GroupName(const std::string& kernel, std::uint32_t clients) {
  return kernel + "/N=" + std::to_string(clients);
}

struct Kernel {
  std::string name;
  std::uint32_t clients;
  std::function<core::RunResult(const Instance&)> solve;
  std::vector<runner::Metric> metrics;
  bool metric_only = false;
};

std::vector<std::size_t> ParseThreadList(const std::string& list) {
  std::vector<std::size_t> threads;
  std::stringstream ss(list);
  std::string token;
  while (std::getline(ss, token, ',')) {
    RPT_REQUIRE(!token.empty() && token.find_first_not_of("0123456789") == std::string::npos,
                "bench_hotpath: --thread-sweep must be a comma list of counts, got: " + list);
    threads.push_back(static_cast<std::size_t>(std::stoull(token)));
    RPT_REQUIRE(threads.back() >= 1, "bench_hotpath: --thread-sweep counts must be >= 1");
  }
  RPT_REQUIRE(!threads.empty(), "bench_hotpath: --thread-sweep list is empty");
  return threads;
}

// One full kernel grid at the given solver-pool width. Cells run on a
// single batch worker so per-cell wall time measures one instance
// saturating `solver_threads` threads, not cells competing for cores.
runner::BatchReport RunGrid(const std::vector<Kernel>& kernels, std::size_t solver_threads,
                            std::uint64_t base_seed, std::size_t seeds) {
  SetSolverThreads(solver_threads);
  runner::BatchRunner batch(runner::BatchOptions{/*threads=*/1});
  for (const Kernel& kernel : kernels) {
    batch.AddSweep(GroupName(kernel.name, kernel.clients), BinaryWorkload(kernel.clients),
                   kernel.solve, base_seed, seeds, kernel.metrics, kernel.metric_only);
  }
  return batch.Run();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rpt;
  Cli cli("bench_hotpath",
          "per-kernel wall-time baseline for the hot solver paths (perf trajectory)");
  AddBatchFlags(cli, /*default_seeds=*/3);
  cli.AddInt("clients", 65536, "client count for the near-linear kernels");
  cli.AddInt("big-clients", 1048576,
             "client count for the million-node tier (tree-build/single-nod/multiple-bin; "
             "0 disables the tier)");
  cli.AddInt("dp-clients", 8192, "client count for the multiple-nod-dp kernel");
  cli.AddInt("push-clients", 8192, "client count for the single-push kernel");
  cli.AddInt("flow-clients", 8192, "client count for the flow-oracle kernel");
  cli.AddInt("build-reps", 10, "tree rebuilds per tree-build cell");
  cli.AddInt("big-build-reps", 3, "tree rebuilds per million-node tree-build cell");
  cli.AddInt("base-seed", 1205, "base seed; per-cell seeds derive deterministically");
  cli.AddString("thread-sweep", "",
                "comma list of solver thread counts (e.g. 1,2,4,8); runs the grid per "
                "count and reports per-kernel speedups vs the first");
  cli.AddString("json", "", "write the report incl. timing stats here (BENCH_hotpath.json)");
  cli.AddString("det-json", "",
                "write the deterministic report (no timing) here; byte-identical across "
                "runs and --threads values");
  cli.AddString("csv", "", "optional CSV output path (incl. timing)");
  if (!cli.Parse(argc, argv)) return 0;
  const BatchFlags flags = GetBatchFlags(cli);
  const auto clients = static_cast<std::uint32_t>(cli.GetUint("clients", 1u << 26));
  const auto big_clients = static_cast<std::uint32_t>(cli.GetUint("big-clients", 1u << 26));
  const auto dp_clients = static_cast<std::uint32_t>(cli.GetUint("dp-clients", 1u << 18));
  const auto push_clients = static_cast<std::uint32_t>(cli.GetUint("push-clients", 1u << 18));
  const auto flow_clients = static_cast<std::uint32_t>(cli.GetUint("flow-clients", 1u << 18));
  const auto build_reps = cli.GetUint("build-reps", 1u << 20);
  const auto big_build_reps = cli.GetUint("big-build-reps", 1u << 20);
  const auto base_seed = cli.GetUint("base-seed");
  RPT_REQUIRE(clients >= 2 && dp_clients >= 2 && push_clients >= 2 && flow_clients >= 2,
              "bench_hotpath: client counts must be >= 2");
  RPT_REQUIRE(build_reps >= 1 && big_build_reps >= 1,
              "bench_hotpath: --build-reps/--big-build-reps must be >= 1");
  RPT_REQUIRE(big_clients == 0 || big_clients >= 2,
              "bench_hotpath: --big-clients must be 0 or >= 2");

  std::vector<Kernel> kernels;
  kernels.push_back({"tree-build", clients,
                     [build_reps](const Instance& instance) {
                       return SolveTreeBuild(instance, build_reps);
                     },
                     {},
                     /*metric_only=*/true});
  kernels.push_back(
      {"single-gen", clients, runner::SolveWith(core::Algorithm::kSingleGen), {}});
  kernels.push_back(
      {"single-nod", clients, runner::SolveWith(core::Algorithm::kSingleNod), {}});
  kernels.push_back(
      {"single-push", push_clients, runner::SolveWith(core::Algorithm::kSinglePushRoot), {}});
  kernels.push_back(
      {"multiple-bin", clients, runner::SolveWith(core::Algorithm::kMultipleBin), {}});
  kernels.push_back({"multiple-nod-dp", dp_clients,
                     runner::SolveWith(core::Algorithm::kMultipleNodDp),
                     {{"dp_table_mib", DpTableMiB}}});
  kernels.push_back({"flow-oracle", flow_clients, SolveFlowOracle, {}});
  if (big_clients != 0) {
    // Million-node tier: the tree build plus two full solvers proving
    // million-node instances run end-to-end. The DP stays at
    // --dp-clients, the one size its group is recorded at.
    kernels.push_back({"tree-build", big_clients,
                       [big_build_reps](const Instance& instance) {
                         return SolveTreeBuild(instance, big_build_reps);
                       },
                       {},
                       /*metric_only=*/true});
    kernels.push_back(
        {"single-nod", big_clients, runner::SolveWith(core::Algorithm::kSingleNod), {}});
    kernels.push_back(
        {"multiple-bin", big_clients, runner::SolveWith(core::Algorithm::kMultipleBin), {}});
  }

  const std::string sweep_list = cli.GetString("thread-sweep");
  std::vector<std::size_t> thread_counts;
  if (sweep_list.empty()) {
    thread_counts.push_back(flags.threads);  // 0 = hardware concurrency
  } else {
    thread_counts = ParseThreadList(sweep_list);
  }

  std::cout << "hot-path kernel sweep: " << kernels.size() << " kernels x " << flags.seeds
            << " seeds, solver threads ";
  if (sweep_list.empty()) {
    std::cout << (flags.threads == 0 ? std::string("hw") : std::to_string(flags.threads));
  } else {
    std::cout << sweep_list;
  }
  std::cout << " (cells run sequentially; --threads feeds the intra-solver pool)\n\n";

  std::vector<runner::BatchReport> reports;
  reports.reserve(thread_counts.size());
  if (thread_counts.size() > 1) {
    // Untimed warm-up grid (one seed): pre-faults allocator/page state so the
    // first timed width is not penalized for being the cold run.
    (void)RunGrid(kernels, thread_counts.front(), base_seed, /*seeds=*/1);
  }
  for (const std::size_t t : thread_counts) {
    reports.push_back(RunGrid(kernels, t, base_seed, flags.seeds));
  }
  const runner::BatchReport& report = reports.front();
  report.PrintAscii(std::cout);

  Table table({"kernel", "N", "cells", "mean ms", "min ms", "max ms"});
  for (const Kernel& kernel : kernels) {
    const runner::GroupReport* group = report.FindGroup(GroupName(kernel.name, kernel.clients));
    RPT_CHECK(group != nullptr);
    table.NewRow()
        .Add(kernel.name)
        .Add(std::uint64_t{kernel.clients})
        .Add(group->cells)
        .Add(group->elapsed_ms.Mean(), 2)
        .Add(group->elapsed_ms.Min(), 2)
        .Add(group->elapsed_ms.Max(), 2);
  }
  std::cout << "\nper-kernel wall time (" << thread_counts.front()
            << (thread_counts.front() == 0 ? " = hw" : "") << " solver threads):\n\n";
  table.PrintAscii(std::cout);

  // Thread sweep: per-kernel mean wall time per width and speedup vs the
  // first width, as an ASCII table and a "thread_sweep" JSON section.
  std::string extra_json;
  if (thread_counts.size() > 1) {
    std::vector<std::string> headers{"kernel"};
    for (const std::size_t t : thread_counts) {
      headers.push_back("ms @" + std::to_string(t) + "t");
      headers.push_back("x @" + std::to_string(t) + "t");
    }
    Table sweep_table(std::move(headers));
    std::ostringstream js;
    js << "\"thread_sweep\":{\"threads\":[";
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      js << (i == 0 ? "" : ",") << thread_counts[i];
    }
    js << "],\"kernels\":[";
    bool first_kernel = true;
    for (const Kernel& kernel : kernels) {
      const std::string group_name = GroupName(kernel.name, kernel.clients);
      Table& row = sweep_table.NewRow().Add(group_name);
      std::vector<double> means;
      for (const runner::BatchReport& r : reports) {
        const runner::GroupReport* group = r.FindGroup(group_name);
        RPT_CHECK(group != nullptr);
        means.push_back(group->elapsed_ms.Mean());
      }
      js << (first_kernel ? "" : ",") << "{\"group\":\"" << group_name << "\",\"mean_ms\":[";
      first_kernel = false;
      for (std::size_t i = 0; i < means.size(); ++i) {
        js << (i == 0 ? "" : ",") << FormatCompactDouble(means[i]);
      }
      js << "],\"speedup\":[";
      for (std::size_t i = 0; i < means.size(); ++i) {
        const double speedup = means[i] > 0.0 ? means.front() / means[i] : 0.0;
        js << (i == 0 ? "" : ",") << FormatCompactDouble(speedup);
        row.Add(means[i], 2).Add(speedup, 2);
      }
      js << "]}";
    }
    js << "]}";
    extra_json = js.str();
    std::cout << "\nthread scaling (speedup vs " << thread_counts.front() << " threads):\n\n";
    sweep_table.PrintAscii(std::cout);
  }

  if (const std::string json = cli.GetString("json"); !json.empty()) {
    report.WriteJsonFile(json, /*include_timing=*/true, extra_json);
    std::cout << "wrote timing report to " << json << "\n";
  }
  if (const std::string det_json = cli.GetString("det-json"); !det_json.empty()) {
    report.WriteJsonFile(det_json, /*include_timing=*/false);
    std::cout << "wrote deterministic report to " << det_json << "\n";
  }
  if (const std::string csv = cli.GetString("csv"); !csv.empty()) {
    std::ofstream os(csv);
    RPT_REQUIRE(os.good(), "cannot open CSV output: " + csv);
    report.WriteCsv(os, /*include_timing=*/true);
    std::cout << "wrote timing CSV to " << csv << "\n";
  }
  for (const runner::BatchReport& r : reports) {
    if (!r.AllOk()) return 1;
  }
  return 0;
}
