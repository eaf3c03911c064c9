#include "shard/coordinator.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "multiple/multiple_nod_dp.hpp"
#include "multiple/nod_dp_engine.hpp"
#include "shard/boundary_table.hpp"
#include "shard/worker.hpp"
#include "tree/serialize.hpp"

namespace rpt::shard {

namespace {

/// One forked worker awaiting collection.
struct SpawnedWorker {
  std::uint32_t shard = 0;
  pid_t pid = -1;
  std::string out_path;
};

pid_t SpawnWorker(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  RPT_REQUIRE(pid >= 0, "rpt-shard: fork failed");
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    std::perror("rpt-shard: execv");
    ::_exit(127);
  }
  return pid;
}

}  // namespace

ShardedSolveResult SolveSharded(const Instance& instance, const ShardOptions& options) {
  RPT_REQUIRE(!instance.HasDistanceConstraint(),
              "rpt-shard: sharded solve supports NoD instances only");
  RPT_REQUIRE(options.max_attempts >= 1, "rpt-shard: max_attempts must be >= 1");
  const bool subprocess = options.dispatch == ShardOptions::Dispatch::kSubprocess;
  if (subprocess) {
    RPT_REQUIRE(!options.work_dir.empty() && !options.worker_argv0.empty(),
                "rpt-shard: subprocess dispatch needs work_dir and worker_argv0");
  }
  const Tree& tree = instance.GetTree();
  const Requests capacity = instance.Capacity();

  ShardedSolveResult result;
  PlanOptions plan_options;
  plan_options.shards = options.shards;
  plan_options.max_imbalance = options.max_imbalance;
  plan_options.max_cuts = options.max_cuts;
  const ShardPlan plan = PlanShards(tree, plan_options);
  result.stats.shard_count = plan.shard_count;
  result.stats.cut_count = static_cast<std::uint32_t>(plan.cuts.size());

  if (plan.shard_count == 0) {
    // Nothing cuttable (e.g. a star: the root's children are all clients).
    // Documented fallback: the plain local solve, stats.shard_count == 0.
    auto local = multiple::SolveMultipleNodDp(instance);
    result.feasible = local.feasible;
    result.solution = std::move(local.solution);
    result.stats.spine_table_entries = local.stats.table_entries;
    return result;
  }

  // Slice every cut subtree once. The coordinator keeps the slices for the id
  // maps (fragment local ids -> megatree ids); subprocess workers get their
  // own copies through rpt-tree files.
  std::unordered_map<NodeId, SubtreeSlice> slices;
  slices.reserve(plan.cuts.size());
  std::unordered_map<NodeId, std::uint32_t> shard_of_cut;
  shard_of_cut.reserve(plan.cuts.size());
  for (const Cut& cut : plan.cuts) {
    slices.emplace(cut.node, tree.SliceSubtree(cut.node));
    shard_of_cut.emplace(cut.node, cut.shard);
  }

  // Subprocess mode: materialize the file exchange up front — one slice file
  // per cut, one manifest per shard. Budgets files follow after the merge.
  std::vector<std::string> manifest_paths(plan.shard_count);
  if (subprocess) {
    std::filesystem::create_directories(options.work_dir);
    for (std::uint32_t s = 0; s < plan.shard_count; ++s) {
      std::string manifest = "rpt-shard-manifest v1\n";
      manifest += "capacity " + std::to_string(capacity) + "\n";
      for (const NodeId cut : plan.shard_cuts[s]) {
        const std::string slice_path =
            options.work_dir + "/cut-" + std::to_string(cut) + ".tree";
        std::ofstream os(slice_path, std::ios::trunc);
        RPT_REQUIRE(os.good(), "rpt-shard: cannot write slice: " + slice_path);
        WriteTree(os, slices.at(cut).tree);
        os.flush();
        RPT_REQUIRE(os.good(), "rpt-shard: slice write failed: " + slice_path);
        manifest += "cut " + std::to_string(cut) + " " + slice_path + "\n";
      }
      manifest_paths[s] = options.work_dir + "/shard-" + std::to_string(s) + ".manifest";
      std::ofstream os(manifest_paths[s], std::ios::trunc);
      RPT_REQUIRE(os.good(), "rpt-shard: cannot write manifest: " + manifest_paths[s]);
      os << manifest;
      os.flush();
      RPT_REQUIRE(os.good(), "rpt-shard: manifest write failed: " + manifest_paths[s]);
    }
  }

  const auto record_failure = [&result](std::uint32_t shard, std::uint32_t attempt,
                                        const char* phase, const std::string& error) {
    result.failures.push_back(
        ShardFailure{shard, attempt, phase, error});
  };

  // In-process dispatch: run `body` (which produces this shard's btab BYTES
  // and decodes them back — the wire format stays the seam) with the same
  // retry contract a subprocess gets. This catch is the emulated process
  // boundary: ANY escape — including fail::InjectedFault, which nothing in
  // the library proper catches — collapses to "the worker died, no boundary
  // table arrived", is recorded loudly, and triggers a re-dispatch.
  const auto in_process_phase = [&](std::uint32_t shard, const char* phase,
                                    const auto& body) -> BtabFile {
    for (std::uint32_t attempt = 1;; ++attempt) {
      try {
        return body();
      } catch (const std::exception& e) {
        record_failure(shard, attempt, phase, e.what());
        if (attempt >= options.max_attempts) {
          throw InternalError("rpt-shard: shard " + std::to_string(shard) + " failed the " +
                              phase + " phase after " + std::to_string(attempt) +
                              " attempt(s); last error: " + std::string(e.what()));
        }
      }
    }
  };

  const auto round_trip = [&result](const BtabFile& produced) -> BtabFile {
    const std::string bytes = EncodeBtab(produced);
    result.stats.boundary_bytes += bytes.size();
    return DecodeBtab(bytes);
  };

  // Subprocess dispatch: fan out one worker per pending shard, wait4 them all
  // (collecting peak RSS), re-dispatch failures round by round. A non-zero
  // exit, a death by signal, a missing output file, and a corrupt btab are
  // all the same event: a dead shard.
  const auto run_subprocess_phase =
      [&](const char* phase,
          const std::vector<std::string>& budget_paths) -> std::vector<BtabFile> {
    std::vector<BtabFile> per_shard(plan.shard_count);
    std::vector<std::uint32_t> pending(plan.shard_count);
    std::iota(pending.begin(), pending.end(), 0u);
    for (std::uint32_t attempt = 1; !pending.empty(); ++attempt) {
      std::vector<SpawnedWorker> running;
      running.reserve(pending.size());
      for (const std::uint32_t shard : pending) {
        std::string out_path = options.work_dir + "/shard-" + std::to_string(shard) + "-" +
                               phase + "-a" + std::to_string(attempt) + ".btab";
        std::vector<std::string> args = {options.worker_argv0,
                                         kWorkerFlag,
                                         "--phase=" + std::string(phase),
                                         "--manifest=" + manifest_paths[shard],
                                         "--out=" + out_path,
                                         "--threads=" + std::to_string(options.worker_threads)};
        if (!budget_paths.empty()) args.push_back("--budgets=" + budget_paths[shard]);
        if (options.crash_at_cut > 0 && shard == options.crash_shard && attempt == 1 &&
            std::string_view(phase) == "solve") {
          args.push_back("--crash-at-cut=" + std::to_string(options.crash_at_cut));
        }
        running.push_back(SpawnedWorker{shard, SpawnWorker(args), std::move(out_path)});
      }
      std::vector<std::uint32_t> failed;
      for (const SpawnedWorker& worker : running) {
        int status = 0;
        struct rusage usage{};
        pid_t waited = -1;
        do {
          waited = ::wait4(worker.pid, &status, 0, &usage);
        } while (waited < 0 && errno == EINTR);
        RPT_CHECK(waited == worker.pid);
        result.stats.max_worker_rss_kb = std::max(
            result.stats.max_worker_rss_kb, static_cast<std::uint64_t>(usage.ru_maxrss));
        std::string error;
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
          try {
            per_shard[worker.shard] = ReadBtabFile(worker.out_path);
            result.stats.boundary_bytes += std::filesystem::file_size(worker.out_path);
          } catch (const std::exception& e) {
            error = e.what();
          }
        } else if (WIFEXITED(status)) {
          error = "worker exited with status " + std::to_string(WEXITSTATUS(status));
        } else if (WIFSIGNALED(status)) {
          error = "worker killed by signal " + std::to_string(WTERMSIG(status));
        } else {
          error = "worker ended abnormally";
        }
        if (!error.empty()) {
          record_failure(worker.shard, attempt, phase, error);
          failed.push_back(worker.shard);
        }
      }
      if (!failed.empty() && attempt >= options.max_attempts) {
        std::string names;
        for (const std::uint32_t shard : failed) {
          if (!names.empty()) names += ", ";
          names += std::to_string(shard);
        }
        throw InternalError("rpt-shard: shard(s) " + names + " failed the " +
                            std::string(phase) + " phase after " + std::to_string(attempt) +
                            " attempt(s)");
      }
      pending = std::move(failed);
    }
    return per_shard;
  };

  // ---- Phase 1: per-shard solve, boundary tables come back. -----------------
  // In-process mode keeps the solved engines hot for the extract phase;
  // committed into `hot` only when the whole shard succeeded, so a retried
  // shard starts clean.
  std::unordered_map<NodeId, CutSolve> hot;
  std::vector<BtabFile> solve_results;
  if (subprocess) {
    solve_results = run_subprocess_phase("solve", {});
  } else {
    solve_results.reserve(plan.shard_count);
    for (std::uint32_t s = 0; s < plan.shard_count; ++s) {
      solve_results.push_back(in_process_phase(s, "solve", [&]() -> BtabFile {
        std::vector<CutSolve> solves;
        solves.reserve(plan.shard_cuts[s].size());
        BtabFile out;
        for (const NodeId cut : plan.shard_cuts[s]) {
          CutSolve solve = SolveCut(cut, slices.at(cut), capacity);
          out.tables.push_back(ExportTable(solve));
          solves.push_back(std::move(solve));
        }
        for (CutSolve& solve : solves) {
          const NodeId cut = solve.cut;
          hot[cut] = std::move(solve);
        }
        return round_trip(out);
      }));
    }
  }

  // ---- Merge: build the spine and import the boundary tables. ---------------
  // The spine keeps every node NOT strictly below a cut, in ascending global
  // id order (so the local<->global remap is monotone and every CSR invariant
  // survives); each cut reappears as a client leaf demanding its subtree
  // total. By the DP's subtree locality every spine table — interior and
  // root — is byte-identical to the unsharded engine's table at that node.
  const std::size_t n = tree.Size();
  std::vector<char> in_spine(n, 1);
  std::vector<char> is_cut(n, 0);
  for (const Cut& cut : plan.cuts) {
    is_cut[cut.node] = 1;
    for (const NodeId global : slices.at(cut.node).to_global) {
      if (global != cut.node) in_spine[global] = 0;
    }
  }
  std::size_t spine_count = 0;
  for (std::size_t id = 0; id < n; ++id) spine_count += static_cast<std::size_t>(in_spine[id]);
  TreeBuilder builder;
  builder.Reserve(spine_count);
  std::vector<NodeId> spine_to_global;
  spine_to_global.reserve(spine_count);
  std::vector<NodeId> global_to_spine(n, kInvalidNode);
  for (NodeId id = 0; id < n; ++id) {
    if (!in_spine[id]) continue;
    NodeId local = kInvalidNode;
    if (id == tree.Root()) {
      local = builder.AddRoot();
    } else {
      // The parent of a spine node is itself a spine node and, by ascending
      // id order (parent id < child id), already added.
      const NodeId parent_local = global_to_spine[tree.Parent(id)];
      RPT_CHECK(parent_local != kInvalidNode);
      if (is_cut[id]) {
        local = builder.AddClient(parent_local, tree.DistToParent(id), tree.SubtreeRequests(id));
      } else if (tree.IsClient(id)) {
        local = builder.AddClient(parent_local, tree.DistToParent(id), tree.RequestsOf(id));
      } else {
        local = builder.AddInternal(parent_local, tree.DistToParent(id));
      }
    }
    global_to_spine[id] = local;
    spine_to_global.push_back(id);
  }
  const Tree spine = builder.Build();
  result.stats.spine_nodes = static_cast<std::uint32_t>(spine.Size());

  multiple::NodDpEngine engine(spine, capacity);
  std::vector<char> imported(n, 0);
  for (std::uint32_t s = 0; s < plan.shard_count; ++s) {
    BtabFile& file = solve_results[s];
    RPT_REQUIRE(file.fragments.empty(), "rpt-shard: solve phase must ship tables only");
    RPT_REQUIRE(file.tables.size() == plan.shard_cuts[s].size(),
                "rpt-shard: shard " + std::to_string(s) + " shipped " +
                    std::to_string(file.tables.size()) + " tables, expected " +
                    std::to_string(plan.shard_cuts[s].size()));
    for (BoundaryTable& table : file.tables) {
      RPT_REQUIRE(table.cut < n && is_cut[table.cut] != 0,
                  "rpt-shard: boundary table names an unknown cut");
      RPT_REQUIRE(shard_of_cut.at(table.cut) == s,
                  "rpt-shard: boundary table arrived from the wrong shard");
      RPT_REQUIRE(imported[table.cut] == 0, "rpt-shard: duplicate boundary table");
      RPT_REQUIRE(table.demand == tree.SubtreeRequests(table.cut),
                  "rpt-shard: boundary table demand does not match the cut subtree");
      imported[table.cut] = 1;
      result.stats.worker_table_entries += table.table_entries;
      result.stats.worker_convolve_cells += table.convolve_cells;
      engine.ImportLeafTable(global_to_spine[table.cut], std::move(table.table));
    }
  }
  engine.ComputeAll();
  result.stats.spine_table_entries = engine.Work().table_entries;
  if (!engine.Feasible()) {
    // Same verdict the unsharded solve would reach: F_root(0) is determined
    // by the spine tables, which are byte-identical to the unsharded ones.
    return result;
  }

  // ---- Budgets: the root-down split, one clamped budget per cut. ------------
  const auto budgets = engine.AssignImportedBudgets();
  RPT_CHECK(budgets.size() == plan.cuts.size());
  std::unordered_map<NodeId, std::uint64_t> budget_by_cut;
  budget_by_cut.reserve(budgets.size());
  for (const auto& budget : budgets) {
    budget_by_cut.emplace(spine_to_global[budget.leaf], budget.budget);
  }

  // ---- Phase 2: per-shard extract, solution fragments come back. ------------
  std::vector<BtabFile> extract_results;
  if (subprocess) {
    std::vector<std::string> budget_paths(plan.shard_count);
    for (std::uint32_t s = 0; s < plan.shard_count; ++s) {
      budget_paths[s] = options.work_dir + "/shard-" + std::to_string(s) + ".budgets";
      std::ofstream os(budget_paths[s], std::ios::trunc);
      RPT_REQUIRE(os.good(), "rpt-shard: cannot write budgets: " + budget_paths[s]);
      os << "rpt-shard-budgets v1\n";
      for (const NodeId cut : plan.shard_cuts[s]) {
        os << "budget " << cut << " " << budget_by_cut.at(cut) << "\n";
      }
      os.flush();
      RPT_REQUIRE(os.good(), "rpt-shard: budgets write failed: " + budget_paths[s]);
    }
    extract_results = run_subprocess_phase("extract", budget_paths);
  } else {
    extract_results.reserve(plan.shard_count);
    for (std::uint32_t s = 0; s < plan.shard_count; ++s) {
      extract_results.push_back(in_process_phase(s, "extract", [&]() -> BtabFile {
        BtabFile out;
        for (const NodeId cut : plan.shard_cuts[s]) {
          out.fragments.push_back(
              ExtractFragment(hot.at(cut), budget_by_cut.at(cut)));
        }
        return round_trip(out);
      }));
    }
  }

  std::vector<SolutionFragment> fragments;
  fragments.reserve(plan.cuts.size());
  std::vector<char> extracted(n, 0);
  for (std::uint32_t s = 0; s < plan.shard_count; ++s) {
    BtabFile& file = extract_results[s];
    RPT_REQUIRE(file.tables.empty(), "rpt-shard: extract phase must ship fragments only");
    RPT_REQUIRE(file.fragments.size() == plan.shard_cuts[s].size(),
                "rpt-shard: shard " + std::to_string(s) + " shipped " +
                    std::to_string(file.fragments.size()) + " fragments, expected " +
                    std::to_string(plan.shard_cuts[s].size()));
    for (SolutionFragment& fragment : file.fragments) {
      RPT_REQUIRE(fragment.cut < n && is_cut[fragment.cut] != 0,
                  "rpt-shard: fragment names an unknown cut");
      RPT_REQUIRE(shard_of_cut.at(fragment.cut) == s,
                  "rpt-shard: fragment arrived from the wrong shard");
      RPT_REQUIRE(extracted[fragment.cut] == 0, "rpt-shard: duplicate fragment");
      RPT_REQUIRE(fragment.budget == budget_by_cut.at(fragment.cut),
                  "rpt-shard: fragment extracted at the wrong budget");
      extracted[fragment.cut] = 1;
      fragments.push_back(std::move(fragment));
    }
  }

  // ---- Splice: spine backtrack with fragment pendings, then remap. ----------
  // The provider hands each imported leaf its fragment's forwarded list in
  // chain order. Fragment client ids are megatree ids OFFSET by the spine
  // size so they can never collide with spine-local ids inside the spine
  // backtrack; the remap below splits on the offset.
  const auto spine_size = static_cast<NodeId>(spine.Size());
  std::unordered_map<NodeId, std::vector<std::pair<NodeId, Requests>>> forwarded_by_leaf;
  forwarded_by_leaf.reserve(fragments.size());
  for (const SolutionFragment& fragment : fragments) {
    const std::vector<NodeId>& to_global = slices.at(fragment.cut).to_global;
    auto& list = forwarded_by_leaf[global_to_spine[fragment.cut]];
    list.reserve(fragment.forwarded.size());
    for (const auto& [local_client, amount] : fragment.forwarded) {
      RPT_REQUIRE(local_client < to_global.size(),
                  "rpt-shard: fragment forwards an unknown client");
      const std::uint64_t offset_id =
          static_cast<std::uint64_t>(to_global[local_client]) + spine_size;
      RPT_CHECK(offset_id < kInvalidNode);
      list.emplace_back(static_cast<NodeId>(offset_id), amount);
    }
  }
  engine.SetImportedFragmentProvider(
      [&](NodeId leaf, std::size_t budget) -> std::span<const std::pair<NodeId, Requests>> {
        const auto it = forwarded_by_leaf.find(leaf);
        RPT_CHECK(it != forwarded_by_leaf.end());
        // The sweep and the backtrack share SplitBudget, so the budget seen
        // here must be exactly the one each worker extracted at.
        RPT_CHECK(budget == budget_by_cut.at(spine_to_global[leaf]));
        return it->second;
      });
  const Solution spine_solution = engine.Backtrack();

  Solution combined;
  combined.replicas.reserve(spine_solution.replicas.size());
  combined.assignment.reserve(spine_solution.assignment.size());
  for (const NodeId replica : spine_solution.replicas) {
    combined.replicas.push_back(spine_to_global[replica]);
  }
  for (const ServiceEntry& entry : spine_solution.assignment) {
    RPT_CHECK(entry.server < spine_size);
    ServiceEntry mapped = entry;
    mapped.server = spine_to_global[entry.server];
    mapped.client = entry.client < spine_size
                        ? spine_to_global[entry.client]
                        : static_cast<NodeId>(entry.client - spine_size);
    combined.assignment.push_back(mapped);
  }
  for (const SolutionFragment& fragment : fragments) {
    const Solution mapped = MapNodeIds(fragment.solution, slices.at(fragment.cut).to_global);
    combined.replicas.insert(combined.replicas.end(), mapped.replicas.begin(),
                             mapped.replicas.end());
    combined.assignment.insert(combined.assignment.end(), mapped.assignment.begin(),
                               mapped.assignment.end());
  }
  // The splice's inputs are spent: free them before Canonicalize allocates
  // its scratch, so the solve peaks no higher than the splice did.
  std::exchange(slices, {});
  std::exchange(hot, {});
  std::exchange(solve_results, {});
  std::exchange(extract_results, {});
  std::exchange(fragments, {});
  std::exchange(forwarded_by_leaf, {});
  combined.Canonicalize();
  result.solution = std::move(combined);
  result.feasible = true;
  return result;
}

}  // namespace rpt::shard
