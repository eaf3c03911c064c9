// rpt-shard — the sharded Multiple-NoD solve, demonstrated end to end.
//
// Plans subtree cuts over a generated megatree, fans the cut forests out to
// shard workers (in-process calls or real re-exec'd subprocesses), collects
// rpt-btab v1 boundary tables, merges them on the root spine, assigns
// budgets back down, splices the returned fragments, and — with --verify —
// proves the result byte-identical (cost AND canonical solution hash) to
// the plain single-process SolveMultipleNodDp.
//
// The same binary IS the worker: the coordinator re-execs argv[0] with
// --rpt-shard-worker, so `rpt_shard --mode=subprocess` is a real
// multi-process solve whose per-worker peak RSS (printed from wait4) covers
// one shard's forest, not the megatree.
//
//   ./examples/rpt_shard                          # in-process, 4 shards
//   ./examples/rpt_shard --shards=8 --verify      # prove oracle equality
//   ./examples/rpt_shard --mode=subprocess --work-dir=/tmp/shard-demo
//   ./examples/rpt_shard --mode=subprocess --crash-at-cut=1 --max-attempts=2
//       # kill shard 0's worker mid-solve (exit 137), watch the re-dispatch
//   ./examples/rpt_shard --det-json=out.json      # deterministic fingerprint:
//       # identical bytes at any --shards / --threads / --mode
#include <cstdio>
#include <string>

#include "gen/random_tree.hpp"
#include "model/solution.hpp"
#include "multiple/multiple_nod_dp.hpp"
#include "shard/coordinator.hpp"
#include "shard/worker.hpp"
#include "support/cli.hpp"
#include "support/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace rpt;
  if (argc >= 2 && std::string(argv[1]) == shard::kWorkerFlag) {
    return shard::ShardWorkerMain(argc, argv);
  }

  Cli cli("rpt_shard", "sharded Multiple-NoD solve demo (plan / solve / merge / splice)");
  cli.AddInt("internal", 2000, "internal node count of the generated megatree");
  cli.AddInt("clients", 6000, "client count of the generated megatree");
  cli.AddInt("capacity", 40, "server capacity W");
  cli.AddInt("seed", 42, "generator seed");
  cli.AddInt("shards", 4, "shard count k handed to the planner");
  cli.AddInt("imbalance-pct", 25, "planner max imbalance in percent");
  cli.AddInt("max-attempts", 1, "dispatch attempts per shard before giving up");
  cli.AddInt("threads", 1, "solver-pool width (coordinator and workers)");
  cli.AddString("mode", "inprocess", "dispatch mode: inprocess | subprocess");
  cli.AddString("work-dir", "/tmp/rpt-shard-demo", "subprocess file-exchange directory");
  cli.AddInt("crash-at-cut", 0,
             "subprocess fault injection: kill shard --crash-shard's worker (exit 137) "
             "before its Nth cut solve, first attempt only");
  cli.AddInt("crash-shard", 0, "shard whose worker --crash-at-cut kills");
  cli.AddBool("verify", false, "also run the unsharded solve and require byte-equality");
  cli.AddString("det-json", "", "write the deterministic solve fingerprint here");
  if (!cli.Parse(argc, argv)) return 0;

  const auto threads = static_cast<std::size_t>(cli.GetUint("threads", 1024));
  SetSolverThreads(threads);

  gen::RandomTreeConfig config;
  config.internal_nodes = static_cast<std::uint32_t>(cli.GetUint("internal", 1u << 24));
  config.clients = static_cast<std::uint32_t>(cli.GetUint("clients", 1u << 26));
  config.max_children = 6;
  config.max_requests = 12;
  const std::uint64_t seed = cli.GetUint("seed");
  const Instance instance(gen::GenerateRandomTree(config, seed),
                          static_cast<Requests>(cli.GetUint("capacity")), kNoDistanceLimit);

  shard::ShardOptions options;
  options.shards = static_cast<std::uint32_t>(cli.GetUint("shards", 4096));
  options.max_imbalance = static_cast<double>(cli.GetUint("imbalance-pct", 10000)) / 100.0;
  options.max_attempts = static_cast<std::uint32_t>(cli.GetUint("max-attempts", 64));
  options.worker_threads = static_cast<std::uint32_t>(threads);
  const std::string mode = cli.GetString("mode");
  if (mode == "subprocess") {
    options.dispatch = shard::ShardOptions::Dispatch::kSubprocess;
    options.work_dir = cli.GetString("work-dir");
    options.worker_argv0 = argv[0];
    options.crash_at_cut = cli.GetUint("crash-at-cut");
    options.crash_shard = static_cast<std::uint32_t>(cli.GetUint("crash-shard", 4096));
  } else {
    RPT_REQUIRE(mode == "inprocess", "rpt_shard: --mode must be inprocess or subprocess");
    RPT_REQUIRE(cli.GetUint("crash-at-cut") == 0,
                "rpt_shard: --crash-at-cut needs --mode=subprocess");
  }

  std::printf("rpt-shard: %s, k=%u, mode=%s\n", instance.Summary().c_str(), options.shards,
              mode.c_str());
  const shard::ShardedSolveResult sharded = shard::SolveSharded(instance, options);
  const std::uint64_t hash = CanonicalSolutionHash(sharded.solution);
  std::printf("plan: %u shard(s), %u cut(s), spine %u nodes\n", sharded.stats.shard_count,
              sharded.stats.cut_count, sharded.stats.spine_nodes);
  std::printf("wire: %llu boundary bytes; tables %llu worker + %llu spine entries\n",
              static_cast<unsigned long long>(sharded.stats.boundary_bytes),
              static_cast<unsigned long long>(sharded.stats.worker_table_entries),
              static_cast<unsigned long long>(sharded.stats.spine_table_entries));
  for (const shard::ShardFailure& failure : sharded.failures) {
    std::printf("recovered: shard %u attempt %u (%s phase) died: %s\n", failure.shard,
                failure.attempt, failure.phase.c_str(), failure.error.c_str());
  }
  if (sharded.stats.max_worker_rss_kb > 0) {
    std::printf("workers: peak RSS %llu KiB (per process, wait4)\n",
                static_cast<unsigned long long>(sharded.stats.max_worker_rss_kb));
  }
  if (sharded.feasible) {
    std::printf("solve: feasible, %zu replicas, canonical hash %llu\n",
                sharded.solution.ReplicaCount(), static_cast<unsigned long long>(hash));
  } else {
    std::printf("solve: infeasible\n");
  }

  if (const std::string det_json = cli.GetString("det-json"); !det_json.empty()) {
    // Only solve-invariants: identical bytes at any shard count, thread
    // count, or dispatch mode (scripts/bench_smoke.sh diffs exactly this).
    std::FILE* out = std::fopen(det_json.c_str(), "w");
    RPT_REQUIRE(out != nullptr, "rpt_shard: cannot open --det-json path");
    std::fprintf(out,
                 "{\"internal\":%u,\"clients\":%u,\"capacity\":%llu,\"seed\":%llu,"
                 "\"feasible\":%s,\"cost\":%zu,\"hash\":%llu}\n",
                 config.internal_nodes, config.clients,
                 static_cast<unsigned long long>(instance.Capacity()),
                 static_cast<unsigned long long>(seed), sharded.feasible ? "true" : "false",
                 sharded.solution.ReplicaCount(), static_cast<unsigned long long>(hash));
    std::fclose(out);
    std::printf("wrote deterministic fingerprint to %s\n", det_json.c_str());
  }

  if (cli.GetBool("verify")) {
    const auto oracle = multiple::SolveMultipleNodDp(instance);
    const bool ok = oracle.feasible == sharded.feasible &&
                    oracle.solution.ReplicaCount() == sharded.solution.ReplicaCount() &&
                    CanonicalSolutionHash(oracle.solution) == hash;
    std::printf("verify: unsharded cost %zu hash %llu -> %s\n",
                oracle.solution.ReplicaCount(),
                static_cast<unsigned long long>(CanonicalSolutionHash(oracle.solution)),
                ok ? "IDENTICAL" : "MISMATCH");
    if (!ok) return 1;
  }
  return 0;
}
