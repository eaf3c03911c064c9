// shard-solve: SolveSharded on a 5*10^5-node random tree (arity <= 6,
// requests 1-12, W = 30), subprocess dispatch, k = 4 workers at solver-pool
// width 1. The DP's full forward pass, Tree::SliceSubtree, the rpt-btab
// codec and the coordinator's serial spine merge do nearly all the work
// here and none in serve-mixed. The oracle (SolveMultipleNodDp on the same
// instance) runs once per run, after the timed window.
//
// The traced pass times the calls the coordinator is built from, from this
// file: PlanShards, SliceSubtree, SolveCut/ExportTable, EncodeBtab/DecodeBtab,
// the spine merge through NodDpEngine's import entry points, and
// ExtractFragment. An in-process SolveSharded gives the total those spans
// are subtracted from.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "gen/random_tree.hpp"
#include "model/instance.hpp"
#include "multiple/multiple_nod_dp.hpp"
#include "multiple/nod_dp_engine.hpp"
#include "shard/boundary_table.hpp"
#include "shard/coordinator.hpp"
#include "shard/plan.hpp"
#include "shard/worker.hpp"
#include "support/thread_pool.hpp"

namespace rptbench {
namespace {

using rpt::NodeId;
namespace shard = rpt::shard;

constexpr rpt::Requests kCapacity = 30;
constexpr std::uint32_t kShards = 4;

struct SolveRecord {
  bool feasible = false;
  std::size_t replicas = 0;
  std::uint64_t hash = 0;
};

double MsSince(std::uint64_t t0) { return static_cast<double>(NowNs() - t0) * 1e-6; }

/// Replays the sharded solve's phases through the public calls the
/// coordinator is built from, recording one span per call.
void TracePhases(const rpt::Instance& instance, SpanBuffer& spans, Report& report) {
  const rpt::Tree& tree = instance.GetTree();
  shard::PlanOptions plan_options;
  plan_options.shards = kShards;
  shard::ShardPlan plan;
  {
    ScopedSpan span(spans, "shard.plan", 0);
    plan = shard::PlanShards(tree, plan_options);
  }
  std::unordered_map<NodeId, rpt::SubtreeSlice> slices;
  for (const shard::Cut& cut : plan.cuts) {
    ScopedSpan span(spans, "tree.slice", cut.node);
    slices.emplace(cut.node, tree.SliceSubtree(cut.node));
  }

  // Phase 1: each shard solves its cuts and ships one btab of tables.
  std::vector<double> shard_solve_ms(plan.shard_count, 0.0);
  std::unordered_map<NodeId, shard::CutSolve> hot;
  std::vector<shard::BtabFile> received(plan.shard_count);
  for (std::uint32_t s = 0; s < plan.shard_count; ++s) {
    shard::BtabFile out;
    for (const NodeId cut : plan.shard_cuts[s]) {
      const std::uint64_t t0 = NowNs();
      {
        ScopedSpan span(spans, "shard.worker.solve", cut);
        hot[cut] = shard::SolveCut(cut, slices.at(cut), instance.Capacity());
      }
      {
        ScopedSpan span(spans, "shard.worker.export", cut);
        out.tables.push_back(shard::ExportTable(hot[cut]));
      }
      shard_solve_ms[s] += MsSince(t0);
    }
    std::string bytes;
    {
      ScopedSpan span(spans, "shard.btab.encode", s);
      bytes = shard::EncodeBtab(out);
    }
    ScopedSpan span(spans, "shard.btab.decode", s);
    received[s] = shard::DecodeBtab(bytes);
  }

  // Merge: the spine (every node not strictly below a cut, ascending ids),
  // with each cut as a client leaf carrying its imported table.
  std::unordered_map<NodeId, std::uint64_t> budget_by_cut;
  {
    ScopedSpan merge(spans, "shard.spine_merge", 0);
    const std::size_t n = tree.Size();
    std::vector<char> in_spine(n, 1);
    std::vector<char> is_cut(n, 0);
    for (const shard::Cut& cut : plan.cuts) {
      is_cut[cut.node] = 1;
      for (const NodeId global : slices.at(cut.node).to_global) {
        if (global != cut.node) in_spine[global] = 0;
      }
    }
    rpt::TreeBuilder builder;
    std::vector<NodeId> spine_to_global;
    std::vector<NodeId> global_to_spine(n, rpt::kInvalidNode);
    for (NodeId id = 0; id < n; ++id) {
      if (!in_spine[id]) continue;
      NodeId local = 0;
      if (id == tree.Root()) {
        local = builder.AddRoot();
      } else if (is_cut[id]) {
        local = builder.AddClient(global_to_spine[tree.Parent(id)], tree.DistToParent(id),
                                  tree.SubtreeRequests(id));
      } else if (tree.IsClient(id)) {
        local = builder.AddClient(global_to_spine[tree.Parent(id)], tree.DistToParent(id),
                                  tree.RequestsOf(id));
      } else {
        local = builder.AddInternal(global_to_spine[tree.Parent(id)], tree.DistToParent(id));
      }
      global_to_spine[id] = local;
      spine_to_global.push_back(id);
    }
    const rpt::Tree spine = builder.Build();
    rpt::multiple::NodDpEngine engine(spine, instance.Capacity());
    for (shard::BtabFile& file : received) {
      for (shard::BoundaryTable& table : file.tables) {
        engine.ImportLeafTable(global_to_spine[table.cut], std::move(table.table));
      }
    }
    engine.ComputeAll();
    RPT_REQUIRE(engine.Feasible(), "rptbench: shard-solve instance must be feasible");
    for (const auto& budget : engine.AssignImportedBudgets()) {
      budget_by_cut.emplace(spine_to_global[budget.leaf], budget.budget);
    }
  }

  // Phase 2: each shard extracts its fragments at the assigned budgets.
  for (std::uint32_t s = 0; s < plan.shard_count; ++s) {
    shard::BtabFile out;
    for (const NodeId cut : plan.shard_cuts[s]) {
      ScopedSpan span(spans, "shard.worker.extract", cut);
      out.fragments.push_back(shard::ExtractFragment(hot.at(cut), budget_by_cut.at(cut)));
    }
    std::string bytes;
    {
      ScopedSpan span(spans, "shard.btab.encode", s);
      bytes = shard::EncodeBtab(out);
    }
    ScopedSpan span(spans, "shard.btab.decode", s);
    (void)shard::DecodeBtab(bytes);
  }

  const double max_ms = *std::max_element(shard_solve_ms.begin(), shard_solve_ms.end());
  const double sum_ms = Sum(shard_solve_ms);
  report.layer["shard.worker.solve_ms_max"] = {max_ms, "ms"};
  report.layer["shard.worker.solve_ms_sum"] = {sum_ms, "ms"};
  report.layer["shard.imbalance"] = {
      max_ms / (sum_ms / static_cast<double>(plan.shard_count)), "ratio"};
  report.env["shard_cuts"] = std::to_string(plan.cuts.size());
  report.env["shard_count"] = std::to_string(plan.shard_count);
}

}  // namespace

void RunShardSolve(const RunOptions& options, Report& report) {
  rpt::SetSolverThreads(1);
  rpt::gen::RandomTreeConfig config;
  const bool tiny = options.scale == Scale::kTiny;
  config.internal_nodes = tiny ? 6000 : 150000;
  config.clients = tiny ? 14000 : 350000;
  config.max_children = 6;
  config.min_requests = 1;
  config.max_requests = 12;
  const TreeColumns columns =
      ColumnsOf(rpt::gen::GenerateRandomTree(config, kTopologySeed), options.seed,
                config.min_requests, config.max_requests);

  report.env["nodes"] = std::to_string(columns.parent.size());
  report.env["clients"] = std::to_string(config.clients);
  report.env["capacity"] = std::to_string(kCapacity);
  report.env["shards"] = std::to_string(kShards);
  report.env["dispatch"] = "subprocess";
  report.env["worker_pool_width"] = "1";
  report.env["solver_pool_width"] = std::to_string(rpt::SolverThreads());

  // Set-up: building the Instance from the columns, median of kSetups.
  std::vector<double> setup_s;
  std::optional<rpt::Instance> instance;
  for (int i = 0; i <= kSetups; ++i) {
    instance.reset();
    const std::uint64_t t0 = NowNs();
    instance.emplace(BuildTree(columns), kCapacity);
    if (i > 0) setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }

  shard::ShardOptions shard_options;
  shard_options.shards = kShards;
  shard_options.max_attempts = 2;
  shard_options.dispatch = shard::ShardOptions::Dispatch::kSubprocess;
  shard_options.work_dir = options.work_dir + "/shard";
  shard_options.worker_argv0 = options.argv0;
  shard_options.worker_threads = 1;

  std::vector<SolveRecord> records;
  std::vector<double> solve_ms;
  double worker_rss_kb = 0.0;
  std::uint64_t redispatches = 0;
  shard::ShardStats stats;

  // One untimed solve first, so the page cache holds the worker binary and
  // the allocator is warm before the window opens.
  (void)shard::SolveSharded(*instance, shard_options);
  const double untraced_seconds = options.trace ? options.seconds / 2 : options.seconds;
  const std::uint64_t deadline = NowNs() + static_cast<std::uint64_t>(untraced_seconds * 1e9);
  do {
    ++report.attempted;
    const std::uint64_t t0 = NowNs();
    try {
      shard::ShardedSolveResult result = shard::SolveSharded(*instance, shard_options);
      solve_ms.push_back(MsSince(t0));
      if (options.corrupt == "shard-oracle" && records.empty() &&
          !result.solution.replicas.empty()) {
        ++result.solution.replicas.front();
      }
      records.push_back({result.feasible, result.solution.ReplicaCount(),
                         HashSolution(result.solution)});
      worker_rss_kb = std::max(worker_rss_kb, static_cast<double>(result.stats.max_worker_rss_kb));
      redispatches += result.failures.size();
      stats = result.stats;
    } catch (const std::exception& e) {
      ++report.failed;
      report.Gate("shard-solve-completes", false, e.what());
    }
  } while (NowNs() < deadline);
  // The coordinator's high-water mark, read before the oracle's own DP runs
  // in this process.
  const double coordinator_rss_mib = PeakRssMib();

  std::uint64_t t0 = NowNs();
  const rpt::multiple::MultipleNodDpResult oracle = rpt::multiple::SolveMultipleNodDp(*instance);
  const double unsharded_ms = MsSince(t0);
  const std::uint64_t oracle_hash = HashSolution(oracle.solution);
  for (const SolveRecord& record : records) {
    const bool same = record.feasible == oracle.feasible &&
                      record.replicas == oracle.solution.ReplicaCount() &&
                      record.hash == oracle_hash;
    if (!same) ++report.failed;
    report.Gate("shard-oracle", same,
                "sharded cost " + std::to_string(record.replicas) + " vs oracle " +
                    std::to_string(oracle.solution.ReplicaCount()));
  }

  report.e2e["setup_s"] = {Median(setup_s), "s"};
  report.e2e["op_p50_ms"] = {Median(solve_ms), "ms"};
  report.e2e["peak_rss_mib"] = {std::max(coordinator_rss_mib, worker_rss_kb / 1024.0), "MiB"};
  report.detail["solve_s"] = {Median(solve_ms) / 1000.0, "s"};
  report.detail["unsharded_s"] = {unsharded_ms / 1000.0, "s"};
  report.detail["error_ratio"] = {
      static_cast<double>(report.failed) / static_cast<double>(report.attempted), "ratio"};
  report.detail["replicas"] = {static_cast<double>(oracle.solution.ReplicaCount()), "count"};
  report.samples["setup_s"] = setup_s.size();
  report.samples["solves"] = solve_ms.size();

  if (options.trace) {
    SpanBuffer spans("shard");
    // The traced end-to-end solve, for the tracing overhead.
    double traced_ms = 0.0;
    {
      ScopedSpan span(spans, "shard.solve", 0);
      t0 = NowNs();
      (void)shard::SolveSharded(*instance, shard_options);
      traced_ms = MsSince(t0);
    }
    shard::ShardOptions in_process = shard_options;
    in_process.dispatch = shard::ShardOptions::Dispatch::kInProcess;
    double in_process_ms = 0.0;
    {
      ScopedSpan span(spans, "shard.solve_in_process", 0);
      t0 = NowNs();
      (void)shard::SolveSharded(*instance, in_process);
      in_process_ms = MsSince(t0);
    }
    TracePhases(*instance, spans, report);
    const std::vector<const SpanBuffer*> buffers = {&spans};
    const auto total = [&buffers](const char* name) { return Sum(SpanMs(buffers, name)); };
    report.layer["shard.plan_ms"] = {total("shard.plan"), "ms"};
    report.layer["tree.slice_ms"] = {total("tree.slice"), "ms"};
    report.layer["shard.btab.encode_ms"] = {total("shard.btab.encode"), "ms"};
    report.layer["shard.btab.decode_ms"] = {total("shard.btab.decode"), "ms"};
    report.layer["shard.worker.extract_ms"] = {total("shard.worker.extract"), "ms"};
    const double worker_side = total("shard.plan") + total("tree.slice") +
                               total("shard.worker.solve") + total("shard.worker.export") +
                               total("shard.btab.encode") + total("shard.btab.decode") +
                               total("shard.worker.extract");
    report.layer["shard.coordinator_ms"] = {in_process_ms - worker_side, "ms"};
    report.layer["shard.spine_merge_ms"] = {total("shard.spine_merge"), "ms"};
    report.layer["shard.dispatch_ms"] = {Median(solve_ms) - in_process_ms, "ms"};
    report.layer["shard.boundary_bytes"] = {static_cast<double>(stats.boundary_bytes), "bytes"};
    report.layer["shard.worker_rss_mib"] = {worker_rss_kb / 1024.0, "MiB"};
    report.layer["multiple.worker_table_entries"] = {
        static_cast<double>(stats.worker_table_entries), "count"};
    report.layer["multiple.spine_table_entries"] = {
        static_cast<double>(stats.spine_table_entries), "count"};
    report.layer["multiple.convolve_cells"] = {static_cast<double>(stats.worker_convolve_cells),
                                               "count"};
    report.layer["shard.redispatches"] = {static_cast<double>(redispatches), "count"};
    report.layer["multiple.unsharded_ms"] = {unsharded_ms, "ms"};
    report.layer["trace.overhead_ms"] = {traced_ms - Median(solve_ms), "ms"};
    report.layer["trace.overhead_pct"] = {
        100.0 * (traced_ms - Median(solve_ms)) / Median(solve_ms), "%"};
    report.layer["trace.spans"] = {
        static_cast<double>(WriteSpans(options.work_dir + "/spans-shard-solve.tsv", buffers)),
        "count"};
  }
  std::filesystem::remove_all(shard_options.work_dir);
}

}  // namespace rptbench
