// Experiment E7 — empirical complexity of every solver, matching the paper's
// analytical bounds: single-gen O(∆·|T|) (Theorem 3), single-nod
// O((∆log∆+|C|)·|T|) (Theorem 4), multiple-bin O(|T|^2) (Theorem 6).
//
// Driven by the runner::BatchRunner batch engine (replacing the earlier
// google-benchmark harness): the sweep is a grid of
// (algorithm × tree size × seed) cells executed across --threads
// workers. Cost/feasibility aggregates are deterministic and
// thread-count independent — `--json` output is bit-identical for
// --threads=1 and --threads=$(nproc) — while wall-time statistics go to
// stdout and the optional --csv.
//
// Expected shape: single-gen and single-nod fit ~O(N) (their pending lists
// stay capacity-bounded on these workloads); multiple-bin stays well under
// its worst-case O(N^2) on random trees and realizes the quadratic bound
// only in the engineered caterpillar regime; Dinic on the routing oracle is
// included as substrate context.
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "flow/assignment.hpp"
#include "gen/random_tree.hpp"
#include "gen/shapes.hpp"
#include "runner/batch_runner.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace {

using namespace rpt;

// Deterministic instance factory for the binary-tree workload: requests are
// 1..10 with W=40, giving realistic pending list sizes.
std::function<Instance(std::uint64_t)> BinaryWorkload(std::uint32_t clients, Distance dmax) {
  return [clients, dmax](std::uint64_t seed) {
    gen::BinaryTreeConfig cfg;
    cfg.clients = clients;
    cfg.min_requests = 1;
    cfg.max_requests = 10;
    cfg.min_edge = 1;
    cfg.max_edge = 2;
    return Instance(gen::GenerateFullBinaryTree(cfg, seed), /*capacity=*/40, dmax);
  };
}

// The regime that realizes the paper's O(N^2) bound for multiple-bin: a
// caterpillar of depth ~N with W large enough that no capacity trigger
// fires, so every client's pending triple is merged through all N levels.
std::function<Instance(std::uint64_t)> CaterpillarWorkload(std::uint32_t clients) {
  return [clients](std::uint64_t) {
    const std::vector<Requests> requests(clients, 1);
    return Instance(gen::MakeCaterpillar(requests), /*capacity=*/Requests{clients},
                    kNoDistanceLimit);
  };
}

// Substrate "solver": the Dinic-based Multiple feasibility oracle run on the
// placement consisting of every internal node.
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

std::string GroupName(const std::string& label, std::uint32_t clients) {
  return label + "/N=" + std::to_string(clients);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rpt;
  Cli cli("bench_scaling", "E7: empirical solver complexity via the batch engine");
  AddBatchFlags(cli, /*default_seeds=*/3);
  cli.AddInt("min-clients", 256, "smallest client count in the sweep");
  cli.AddInt("max-clients", 16384, "largest client count in the sweep");
  cli.AddInt("multiplier", 4, "geometric step between client counts");
  cli.AddInt("base-seed", 77, "base seed; per-cell seeds derive deterministically");
  runner::AddJsonFlag(cli);
  cli.AddString("csv", "", "write per-group aggregates incl. timing here");
  if (!cli.Parse(argc, argv)) return 0;
  const BatchFlags flags = GetBatchFlags(cli);
  // Validate the raw int64 flag values before narrowing so negative or
  // oversized inputs cannot wrap into the uint32 domain.
  const std::int64_t min_clients_flag = cli.GetInt("min-clients");
  const std::int64_t max_clients_flag = cli.GetInt("max-clients");
  const std::int64_t multiplier_flag = cli.GetInt("multiplier");
  RPT_REQUIRE(multiplier_flag >= 2 && multiplier_flag <= 1024,
              "--multiplier must be in [2, 1024]");
  RPT_REQUIRE(min_clients_flag >= 2 && min_clients_flag <= max_clients_flag &&
                  max_clients_flag <= (std::int64_t{1} << 26),
              "need 2 <= --min-clients <= --max-clients <= 2^26");
  const auto min_clients = static_cast<std::uint32_t>(min_clients_flag);
  const auto max_clients = static_cast<std::uint32_t>(max_clients_flag);
  const auto multiplier = static_cast<std::uint64_t>(multiplier_flag);
  const auto base_seed = cli.GetUint("base-seed");

  std::vector<std::uint32_t> sizes;
  // 64-bit induction with the bounds above keeps n *= multiplier from ever
  // overflowing (2^26 * 1024 < 2^64).
  for (std::uint64_t n = min_clients; n <= max_clients; n *= multiplier) {
    sizes.push_back(static_cast<std::uint32_t>(n));
  }

  struct Sweep {
    std::string label;
    std::function<core::RunResult(const Instance&)> solve;
    Distance dmax;
    std::uint32_t size_cap;  // largest client count this sweep runs at
  };
  const std::uint32_t kQuadraticCap = 4096;  // keep O(N^2) regimes tractable
  std::vector<Sweep> sweeps;
  sweeps.push_back({"single-gen", runner::SolveWith(core::Algorithm::kSingleGen),
                    kNoDistanceLimit, max_clients});
  sweeps.push_back({"single-gen/dmax=8", runner::SolveWith(core::Algorithm::kSingleGen),
                    Distance{8}, max_clients});
  sweeps.push_back({"single-nod", runner::SolveWith(core::Algorithm::kSingleNod),
                    kNoDistanceLimit, max_clients});
  sweeps.push_back({"greedy-best-fit", runner::SolveWith(core::Algorithm::kGreedyBestFit),
                    kNoDistanceLimit, std::min(max_clients, kQuadraticCap * 4)});
  sweeps.push_back({"multiple-bin", runner::SolveWith(core::Algorithm::kMultipleBin),
                    kNoDistanceLimit, max_clients});
  sweeps.push_back({"multiple-bin/dmax=8", runner::SolveWith(core::Algorithm::kMultipleBin),
                    Distance{8}, max_clients});
  sweeps.push_back({"multiple-greedy", runner::SolveWith(core::Algorithm::kMultipleGreedy),
                    kNoDistanceLimit, std::min(max_clients, kQuadraticCap * 4)});

  runner::BatchRunner batch(runner::BatchOptions{flags.threads});
  for (const Sweep& sweep : sweeps) {
    for (const std::uint32_t n : sizes) {
      if (n > sweep.size_cap) continue;
      batch.AddSweep(GroupName(sweep.label, n), BinaryWorkload(n, sweep.dmax), sweep.solve,
                     base_seed, flags.seeds);
    }
  }
  // Engineered regimes ride the same batch.
  for (const std::uint32_t n : sizes) {
    if (n > kQuadraticCap) continue;
    batch.AddSweep(GroupName("multiple-bin-worstcase", n), CaterpillarWorkload(n),
                   runner::SolveWith(core::Algorithm::kMultipleBin), base_seed, 1);
    batch.AddSweep(GroupName("flow-routing-oracle", n),
                   BinaryWorkload(n, kNoDistanceLimit), SolveFlowOracle, base_seed,
                   flags.seeds);
  }

  std::cout << "E7 scaling sweep: " << batch.CellCount() << " cells on "
            << (flags.threads == 0 ? std::string("hw") : std::to_string(flags.threads))
            << " threads\n\n";
  const runner::BatchReport report = batch.Run();
  report.PrintAscii(std::cout);

  // Fit log-log runtime curves per sweep: slope ~ empirical complexity
  // exponent in N.
  std::vector<std::string> fit_labels;
  for (const Sweep& sweep : sweeps) fit_labels.push_back(sweep.label);
  fit_labels.emplace_back("multiple-bin-worstcase");
  fit_labels.emplace_back("flow-routing-oracle");
  Table fits({"sweep", "fitted exponent", "r^2", "points"});
  for (const std::string& label : fit_labels) {
    std::vector<double> xs;
    std::vector<double> ys;
    for (const std::uint32_t n : sizes) {
      const runner::GroupReport* group = report.FindGroup(GroupName(label, n));
      if (group == nullptr || group->elapsed_ms.Count() == 0) continue;
      const double mean_ms = group->elapsed_ms.Mean();
      if (mean_ms <= 0.0) continue;
      xs.push_back(std::log2(static_cast<double>(n)));
      ys.push_back(std::log2(mean_ms));
    }
    if (xs.size() < 2) continue;
    const LinearFit fit = FitLine(xs, ys);
    fits.NewRow().Add(label).Add(fit.slope, 2).Add(fit.r_squared, 3).Add(
        std::uint64_t{xs.size()});
  }
  std::cout << "\nlog-log complexity fits (slope ≈ exponent of N):\n\n";
  fits.PrintAscii(std::cout);

  runner::WriteJsonIfRequested(cli, report, std::cout);
  if (const std::string csv = cli.GetString("csv"); !csv.empty()) {
    std::ofstream os(csv);
    RPT_REQUIRE(os.good(), "cannot open CSV output: " + csv);
    report.WriteCsv(os, /*include_timing=*/true);
    std::cout << "wrote timing CSV to " << csv << "\n";
  }
  return report.AllOk() ? 0 : 1;
}
