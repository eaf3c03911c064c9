// bench_serve — the always-on serving tier: snapshot publish cost, query
// sweep cost, and concurrent QPS under live snapshot swaps.
//
// Measurements:
//  * serve-publish / serve-publish-wal / serve-publish-repl (BatchRunner
//    groups) — the same ApplyAndPublish churn three ways: in-memory, with a
//    WAL underneath (durable, sync off), and through a ReplPrimary with one
//    live acking follower (synchronous replication). Reading the three
//    rows down a column decomposes publish cost into solve+swap, +logging,
//    +shipping. The deterministic columns (publishes, final snapshot hash
//    — identical across all three by contract) land in --det-json.
//  * serve-query (BatchRunner group) — a serial sweep of the full query mix
//    (which-replica / residual / attach-cost over every node) against a
//    published snapshot; the answer checksum is the deterministic anchor.
//  * serve_qps (extra JSON section, --json only) — the concurrent phase:
//    --threads query threads hammer the harness while the publisher applies
//    churn batches and swaps snapshots under them. Reports sustained QPS,
//    p50/p99 query latency, and the failed-query count, which must be ZERO:
//    a query that ever observes no snapshot (version 0) or throws during a
//    swap is a correctness failure, and the bench exits nonzero.
//  * serve_repl (extra JSON section, --json only) — the same concurrent
//    phase with the publisher shipping every batch over a live replication
//    link (fire-and-forget acks), plus a measured failover: the primary is
//    stopped and the time until the follower's heartbeat window expires and
//    its promotion is durable is reported as failover_ms.
//
// Determinism: the BatchRunner groups and every det-json byte are identical
// at any --threads value (cells run on one batch worker, the solver pool is
// pinned to one thread); only the serve_qps section and wall times vary.
// scripts/bench_smoke.sh byte-diffs the det-json across thread counts.
//
//   ./bench_serve --clients=4096 --ticks=64 --qps-ticks=64 --threads=4
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen/random_tree.hpp"
#include "incremental/trace_gen.hpp"
#include "model/validate.hpp"
#include "runner/batch_runner.hpp"
#include "serve/repl_link.hpp"
#include "serve/serve_harness.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace {

using namespace rpt;

// The fixed query mix: every node is probed with the kind that makes sense
// for it, plus an attach-cost probe with a small demand. Deterministic in
// the tree alone.
std::vector<serve::QueryRequest> MakeQueryMix(const Tree& tree) {
  std::vector<serve::QueryRequest> queries;
  queries.reserve(tree.Size() * 2);
  for (NodeId id = 0; id < tree.Size(); ++id) {
    queries.push_back({tree.IsClient(id) ? serve::QueryKind::kWhichReplica
                                         : serve::QueryKind::kResidual,
                       id, 0});
    queries.push_back({serve::QueryKind::kAttachCost, id, (id % 7) + 1});
  }
  return queries;
}

// FNV-1a over a response — folded into the deterministic checksum metric.
std::uint64_t MixResponse(std::uint64_t h, const serve::QueryResponse& response) {
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(response.version);
  mix(response.ok ? 1 : 0);
  mix(response.server);
  mix(response.value);
  mix(response.distance);
  return h;
}

incremental::UpdateTrace MakeChurn(const Tree& tree, std::uint64_t ticks,
                                   std::uint32_t touches, Requests max_demand,
                                   std::uint64_t seed) {
  incremental::TraceConfig cfg;
  cfg.ticks = ticks;
  cfg.touches_per_tick = touches;
  cfg.max_demand = max_demand;
  cfg.add_remove_fraction = 0.2;
  return incremental::MakeRandomTrace(tree, cfg, seed);
}

// Fresh state directory for one recovery cell (cleaned up by the caller).
std::string MakeStateDir() {
  char buf[] = "/tmp/rpt_bench_rec_XXXXXX";
  return ::mkdtemp(buf);
}

/// Polls `pred` every 5 ms until it holds or `deadline_ms` passes.
template <typename Pred>
bool PollFor(int deadline_ms, Pred&& pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(deadline_ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

// One concurrent QPS window: `query_threads` readers hammer `harness` while
// `publish()` drains the churn on the caller's thread; the window stays open
// at least `qps_min_ms`. Used twice — standalone harness and replicated
// primary — so the two serve_* JSON sections are measured identically.
struct QpsResult {
  std::uint64_t answered = 0;
  std::uint64_t failed = 0;
  double publish_window_ms = 0.0;
  double window_ms = 0.0;
  double qps = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};

template <typename PublishFn>
QpsResult RunQpsPhase(const serve::ServeHarness& harness,
                      const std::vector<serve::QueryRequest>& queries,
                      std::size_t query_threads, double qps_min_ms,
                      PublishFn&& publish) {
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> failed{0};
  std::vector<std::vector<double>> latencies_us(query_threads);
  std::vector<std::thread> readers;
  readers.reserve(query_threads);
  for (std::size_t t = 0; t < query_threads; ++t) {
    readers.emplace_back([&, t] {
      std::vector<double>& sink = latencies_us[t];
      std::size_t at = t * 131;
      while (!done.load(std::memory_order_acquire)) {
        const serve::QueryRequest& query = queries[at++ % queries.size()];
        const auto begin = std::chrono::steady_clock::now();
        try {
          const serve::QueryResponse response = harness.Query(query);
          if (response.version == 0) failed.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::exception&) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
        const auto end = std::chrono::steady_clock::now();
        sink.push_back(std::chrono::duration<double, std::micro>(end - begin).count());
      }
    });
  }
  QpsResult result;
  Timer qps_timer;
  publish();
  result.publish_window_ms = qps_timer.ElapsedMs();
  // On few-core machines the publisher can drain the churn before the
  // reader threads are even scheduled; keep the window open so the QPS and
  // percentile numbers describe sustained serving, not a 1 ms burst.
  while (qps_timer.ElapsedMs() < qps_min_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  result.window_ms = qps_timer.ElapsedMs();

  std::vector<double> all_latencies;
  for (const auto& sink : latencies_us) {
    all_latencies.insert(all_latencies.end(), sink.begin(), sink.end());
  }
  std::sort(all_latencies.begin(), all_latencies.end());
  const auto percentile = [&all_latencies](double p) {
    if (all_latencies.empty()) return 0.0;
    const auto at = static_cast<std::size_t>(p * static_cast<double>(all_latencies.size() - 1));
    return all_latencies[at];
  };
  result.answered = all_latencies.size();
  result.failed = failed.load();
  result.qps = result.window_ms > 0.0
                   ? 1000.0 * static_cast<double>(result.answered) / result.window_ms
                   : 0.0;
  result.p50 = percentile(0.50);
  result.p99 = percentile(0.99);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rpt;
  Cli cli("bench_serve",
          "always-on placement serving: publish cost, query sweep, QPS under swaps");
  AddBatchFlags(cli, /*default_seeds=*/3);
  cli.AddInt("clients", 4096, "client count of the binary NoD workload");
  cli.AddInt("capacity", 40, "server capacity W");
  cli.AddInt("ticks", 48, "publish batches per serve-publish cell");
  cli.AddInt("touches", 8, "clients touched per batch");
  cli.AddInt("max-demand", 10, "per-client demand ceiling in the churn trace");
  cli.AddInt("repeats", 4, "query-mix sweeps per serve-query cell");
  cli.AddInt("qps-ticks", 64, "publish batches during the concurrent QPS phase");
  cli.AddInt("qps-min-ms", 250,
             "minimum QPS measurement window; readers keep querying at least this long "
             "even when the churn drains faster");
  cli.AddInt("base-seed", 521, "base seed; per-cell seeds derive deterministically");
  cli.AddString("json", "", "write the report incl. timing + serve_qps section here "
                            "(merged into BENCH_hotpath.json by scripts/bench_perf.sh)");
  cli.AddString("det-json", "",
                "write the deterministic report (no timing, no QPS section) here; "
                "byte-identical across runs and --threads values");
  cli.AddString("csv", "", "optional CSV output path (incl. timing)");
  if (!cli.Parse(argc, argv)) return 0;
  const BatchFlags flags = GetBatchFlags(cli);
  const auto clients = static_cast<std::uint32_t>(cli.GetUint("clients", 1u << 24));
  const auto capacity = static_cast<Requests>(cli.GetUint("capacity"));
  const std::uint64_t ticks = cli.GetUint("ticks");
  const auto touches = static_cast<std::uint32_t>(cli.GetUint("touches", 1u << 20));
  const auto max_demand = static_cast<Requests>(cli.GetUint("max-demand"));
  const std::uint64_t repeats = cli.GetUint("repeats");
  const std::uint64_t qps_ticks = cli.GetUint("qps-ticks");
  const std::uint64_t base_seed = cli.GetUint("base-seed");
  RPT_REQUIRE(clients >= 2, "bench_serve: --clients must be >= 2");
  RPT_REQUIRE(capacity > 0 && ticks > 0 && repeats > 0 && touches > 0,
              "bench_serve: --capacity/--ticks/--repeats/--touches must be > 0");

  // --threads is the QUERY thread count of the concurrent phase (0 =
  // hardware concurrency, like every --threads); the deterministic cells
  // always run one batch worker and a width-1 solver pool so the det-json is
  // thread-count invariant by construction.
  const std::size_t query_threads =
      flags.threads != 0 ? flags.threads
                         : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  SetSolverThreads(1);

  const auto make_instance = [clients, capacity](std::uint64_t seed) {
    gen::BinaryTreeConfig cfg;
    cfg.clients = clients;
    cfg.min_requests = 1;
    cfg.max_requests = 10;
    cfg.min_edge = 1;
    cfg.max_edge = 2;
    return Instance(gen::GenerateFullBinaryTree(cfg, seed), capacity, kNoDistanceLimit);
  };

  std::printf("serve bench: N=%u clients, W=%llu, %llu batches/cell, %zu seeds, "
              "%zu query threads in the QPS phase\n\n",
              clients, static_cast<unsigned long long>(capacity),
              static_cast<unsigned long long>(ticks), flags.seeds, query_threads);

  runner::BatchRunner batch(runner::BatchOptions{/*threads=*/1});
  for (std::size_t i = 0; i < flags.seeds; ++i) {
    const std::uint64_t seed = runner::DeriveSeed(base_seed, i);

    // serve-publish: the full ApplyAndPublish loop (re-solve + snapshot
    // build + swap), initial solve excluded as shared setup.
    auto publish_cache = std::make_shared<std::pair<std::uint64_t, std::uint64_t>>();
    batch.Add(runner::Cell{
        "serve-publish", make_instance,
        [ticks, touches, max_demand, seed, publish_cache](const Instance& instance) {
          const incremental::UpdateTrace trace =
              MakeChurn(instance.GetTree(), ticks, touches, max_demand, seed + 31);
          core::RunResult result;
          serve::ServeHarness harness(instance);
          Timer timer;
          for (const auto& events : trace) (void)harness.ApplyAndPublish(events);
          result.elapsed_ms = timer.ElapsedMs();
          result.feasible = harness.Solver().Feasible();
          result.solution = harness.Solver().Current();
          result.validation = ValidateSolution(harness.Solver().MaterializeInstance(),
                                               Policy::kMultiple, result.solution);
          const serve::SnapshotStore::Ref snapshot = harness.Pin();
          *publish_cache = {harness.Publishes(), snapshot->CanonicalHash() % (1ull << 32)};
          return result;
        },
        seed,
        {{"publishes",
          [publish_cache](const Instance&, const core::RunResult&) {
            return static_cast<double>(publish_cache->first);
          }},
         {"snapshot_hash", [publish_cache](const Instance&, const core::RunResult&) {
            return static_cast<double>(publish_cache->second);
          }}}});

    // serve-publish-wal: the same churn with a durable WAL underneath
    // (sync off — the bench measures logging, not fsync). Its det columns
    // must equal serve-publish's byte-for-byte: logging cannot change what
    // gets published.
    auto wal_cache = std::make_shared<std::pair<std::uint64_t, std::uint64_t>>();
    batch.Add(runner::Cell{
        "serve-publish-wal", make_instance,
        [ticks, touches, max_demand, seed, wal_cache](const Instance& instance) {
          const incremental::UpdateTrace trace =
              MakeChurn(instance.GetTree(), ticks, touches, max_demand, seed + 31);
          const std::string dir = MakeStateDir();
          serve::DurabilityOptions durability;
          durability.dir = dir;
          durability.sync_appends = false;
          core::RunResult result;
          {
            serve::ServeHarness harness(instance, {}, durability);
            Timer timer;
            for (const auto& events : trace) (void)harness.ApplyAndPublish(events);
            result.elapsed_ms = timer.ElapsedMs();
            result.feasible = harness.Solver().Feasible();
            result.solution = harness.Solver().Current();
            result.validation = ValidateSolution(harness.Solver().MaterializeInstance(),
                                                 Policy::kMultiple, result.solution);
            *wal_cache = {harness.Publishes(),
                          harness.Pin()->CanonicalHash() % (1ull << 32)};
          }
          std::filesystem::remove_all(dir);
          return result;
        },
        seed,
        {{"publishes",
          [wal_cache](const Instance&, const core::RunResult&) {
            return static_cast<double>(wal_cache->first);
          }},
         {"snapshot_hash", [wal_cache](const Instance&, const core::RunResult&) {
            return static_cast<double>(wal_cache->second);
          }}}});

    // serve-publish-repl: the same churn through a ReplPrimary with one
    // live durable follower acking every record (synchronous replication —
    // each Apply waits for the follower's durable ack). Reading the three
    // publish rows down a column decomposes cost into solve+swap, +logging,
    // +shipping; the det columns again must match serve-publish exactly.
    auto repl_cache = std::make_shared<std::pair<std::uint64_t, std::uint64_t>>();
    batch.Add(runner::Cell{
        "serve-publish-repl", make_instance,
        [ticks, touches, max_demand, seed, repl_cache](const Instance& instance) {
          const incremental::UpdateTrace trace =
              MakeChurn(instance.GetTree(), ticks, touches, max_demand, seed + 31);
          const std::string primary_dir = MakeStateDir();
          const std::string follower_dir = MakeStateDir();
          serve::DurabilityOptions primary_durability;
          primary_durability.dir = primary_dir;
          primary_durability.sync_appends = false;
          serve::DurabilityOptions follower_durability;
          follower_durability.dir = follower_dir;
          follower_durability.sync_appends = false;
          core::RunResult result;
          {
            serve::ServeHarness primary_harness(instance, {}, primary_durability);
            serve::ServeHarness follower_harness(instance, {}, follower_durability);
            serve::ReplPrimary primary(primary_harness);
            primary.Start(/*port=*/0);
            serve::ReplFollower follower(follower_harness, primary.Port());
            follower.Start();
            RPT_CHECK(primary.WaitForFollowers(1, /*timeout_ms=*/5000));
            Timer timer;
            for (const auto& events : trace) (void)primary.Apply(events);
            result.elapsed_ms = timer.ElapsedMs();
            RPT_CHECK(follower.WaitForSeq(trace.size(), /*timeout_ms=*/10000));
            follower.Stop();
            primary.Stop();
            result.feasible = primary_harness.Solver().Feasible();
            result.solution = primary_harness.Solver().Current();
            result.validation =
                ValidateSolution(primary_harness.Solver().MaterializeInstance(),
                                 Policy::kMultiple, result.solution);
            *repl_cache = {primary_harness.Publishes(),
                           primary_harness.Pin()->CanonicalHash() % (1ull << 32)};
          }
          std::filesystem::remove_all(primary_dir);
          std::filesystem::remove_all(follower_dir);
          return result;
        },
        seed,
        {{"publishes",
          [repl_cache](const Instance&, const core::RunResult&) {
            return static_cast<double>(repl_cache->first);
          }},
         {"snapshot_hash", [repl_cache](const Instance&, const core::RunResult&) {
            return static_cast<double>(repl_cache->second);
          }}}});

    // serve-query: serial sweeps of the full query mix against the warm
    // snapshot; the checksum pins every answered byte.
    auto query_cache = std::make_shared<std::pair<std::uint64_t, std::uint64_t>>();
    batch.Add(runner::Cell{
        "serve-query", make_instance,
        [ticks, touches, max_demand, repeats, seed, query_cache](const Instance& instance) {
          serve::ServeHarness harness(instance);
          // Warm the state with the same churn the publish cells replay so
          // the two groups describe the same serving regime.
          const incremental::UpdateTrace trace =
              MakeChurn(instance.GetTree(), ticks, touches, max_demand, seed + 31);
          for (const auto& events : trace) (void)harness.ApplyAndPublish(events);
          const std::vector<serve::QueryRequest> queries = MakeQueryMix(instance.GetTree());

          core::RunResult result;
          std::uint64_t checksum = 1469598103934665603ull;
          Timer timer;
          for (std::uint64_t r = 0; r < repeats; ++r) {
            for (const serve::QueryRequest& query : queries) {
              checksum = MixResponse(checksum, harness.Query(query));
            }
          }
          result.elapsed_ms = timer.ElapsedMs();
          result.feasible = harness.Solver().Feasible();
          result.solution = harness.Solver().Current();
          result.validation = ValidateSolution(harness.Solver().MaterializeInstance(),
                                               Policy::kMultiple, result.solution);
          *query_cache = {checksum % (1ull << 32), repeats * queries.size()};
          return result;
        },
        seed,
        {{"answer_checksum",
          [query_cache](const Instance&, const core::RunResult&) {
            return static_cast<double>(query_cache->first);
          }},
         {"queries", [query_cache](const Instance&, const core::RunResult&) {
            return static_cast<double>(query_cache->second);
          }}}});

    // serve-recover-wal / serve-recover-ckpt: crash-recovery cost. A durable
    // harness (WAL appends, sync off — the bench measures replay, not fsync)
    // absorbs the churn and is dropped; the TIMED section is RecoverFrom:
    // full-log replay in the -wal group vs checkpoint-load + short tail in
    // the -ckpt group (cadence ticks/4). recovery_ms is the cell's time
    // column; the recovered snapshot hash pins byte-identical recovery.
    for (const bool with_ckpt : {false, true}) {
      auto recover_cache = std::make_shared<std::pair<std::uint64_t, std::uint64_t>>();
      batch.Add(runner::Cell{
          with_ckpt ? "serve-recover-ckpt" : "serve-recover-wal", make_instance,
          [ticks, touches, max_demand, seed, with_ckpt,
           recover_cache](const Instance& instance) {
            const incremental::UpdateTrace trace =
                MakeChurn(instance.GetTree(), ticks, touches, max_demand, seed + 31);
            const std::string dir = MakeStateDir();
            serve::DurabilityOptions durability;
            durability.dir = dir;
            durability.sync_appends = false;
            durability.checkpoint_every = with_ckpt ? std::max<std::uint64_t>(1, ticks / 4) : 0;
            {
              serve::ServeHarness harness(instance, {}, durability);
              for (const auto& events : trace) (void)harness.ApplyAndPublish(events);
            }

            core::RunResult result;
            Timer timer;
            auto recovered = serve::ServeHarness::RecoverFrom(instance, {}, durability);
            result.elapsed_ms = timer.ElapsedMs();
            result.feasible = recovered->Solver().Feasible();
            result.solution = recovered->Solver().Current();
            result.validation = ValidateSolution(recovered->Solver().MaterializeInstance(),
                                                 Policy::kMultiple, result.solution);
            *recover_cache = {recovered->RecoveredBatches(),
                              recovered->Pin()->CanonicalHash() % (1ull << 32)};
            std::filesystem::remove_all(dir);
            return result;
          },
          seed,
          {{"replayed",
            [recover_cache](const Instance&, const core::RunResult&) {
              return static_cast<double>(recover_cache->first);
            }},
           {"snapshot_hash", [recover_cache](const Instance&, const core::RunResult&) {
              return static_cast<double>(recover_cache->second);
            }}}});
    }
  }

  const runner::BatchReport report = batch.Run();
  report.PrintAscii(std::cout);

  // ---- Concurrent phase: query threads vs live publisher. ----
  const Instance instance = make_instance(runner::DeriveSeed(base_seed, 0));
  const incremental::UpdateTrace churn =
      MakeChurn(instance.GetTree(), qps_ticks, touches, max_demand, base_seed + 77);
  const std::vector<serve::QueryRequest> queries = MakeQueryMix(instance.GetTree());
  const double qps_min_ms = static_cast<double>(cli.GetUint("qps-min-ms"));

  serve::ServeHarness harness(instance);
  const QpsResult plain =
      RunQpsPhase(harness, queries, query_threads, qps_min_ms, [&] {
        for (const auto& events : churn) (void)harness.ApplyAndPublish(events);
      });

  std::printf("\nconcurrent QPS phase: %llu queries on %zu threads while %llu snapshots "
              "published in %.1f ms\n  QPS=%.0f  p50=%.1f us  p99=%.1f us  failed=%llu\n",
              static_cast<unsigned long long>(plain.answered), query_threads,
              static_cast<unsigned long long>(harness.Publishes()), plain.publish_window_ms,
              plain.qps, plain.p50, plain.p99,
              static_cast<unsigned long long>(plain.failed));
  if (plain.failed != 0) {
    std::fprintf(stderr,
                 "bench_serve: %llu queries failed or saw no snapshot during swaps — "
                 "the zero-downtime contract is broken\n",
                 static_cast<unsigned long long>(plain.failed));
  }

  // ---- Replicated phase: the same window with a live shipping link, then
  // a measured failover. The publisher ships fire-and-forget (ack_wait 0 —
  // shipping overhead on the publish path, not ack round-trips) and the
  // follower's durable seq is settled before the primary stops; failover_ms
  // clocks primary-stop → durable promotion via heartbeat-window expiry.
  const std::string repl_primary_dir = MakeStateDir();
  const std::string repl_follower_dir = MakeStateDir();
  QpsResult repl;
  std::uint64_t repl_publishes = 0;
  std::uint64_t repl_watermark = 0;
  double failover_ms = 0.0;
  const int failover_heartbeat_ms = 100;
  {
    serve::DurabilityOptions primary_durability;
    primary_durability.dir = repl_primary_dir;
    primary_durability.sync_appends = false;
    serve::DurabilityOptions follower_durability;
    follower_durability.dir = repl_follower_dir;
    follower_durability.sync_appends = false;
    serve::ServeHarness primary_harness(instance, {}, primary_durability);
    serve::ServeHarness follower_harness(instance, {}, follower_durability);

    serve::ReplPrimaryOptions primary_options;
    primary_options.ack_wait_ms = 0;  // fire-and-forget: measure shipping, not acks
    serve::ReplPrimary primary(primary_harness, primary_options);
    primary.Start(/*port=*/0);
    serve::ReplFollowerOptions follower_options;
    follower_options.io_timeout_ms = 10;
    follower_options.heartbeat_timeout_ms = failover_heartbeat_ms;
    serve::ReplFollower follower(follower_harness, primary.Port(), follower_options);
    follower.Start();
    RPT_CHECK(primary.WaitForFollowers(1, /*timeout_ms=*/5000));
    // The heartbeat clock runs on its own thread (as a real service's timer
    // loop would): the QPS window hold and the settle waits below can last
    // many multiples of the promotion window, and a silent primary would
    // trigger a spurious failover mid-measurement.
    std::atomic<bool> heartbeats_done{false};
    std::thread heartbeater([&] {
      while (!heartbeats_done.load(std::memory_order_acquire)) {
        primary.Heartbeat();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });

    repl = RunQpsPhase(primary_harness, queries, query_threads, qps_min_ms, [&] {
      for (const auto& events : churn) (void)primary.Apply(events);
    });
    repl_publishes = primary_harness.Publishes();

    // Settle: every shipped record durably applied and acked before the
    // failover clock starts, so failover_ms measures detection + epoch
    // bump, not catch-up.
    RPT_CHECK(follower.WaitForSeq(churn.size(), /*timeout_ms=*/10000));
    RPT_CHECK(PollFor(5000, [&] { return primary.Watermark() >= churn.size(); }));
    repl_watermark = primary.Watermark();

    heartbeats_done.store(true, std::memory_order_release);
    heartbeater.join();
    Timer failover_timer;
    primary.Stop();
    RPT_CHECK(PollFor(failover_heartbeat_ms * 20 + 2000,
                      [&] { return follower.Promoted(); }));
    failover_ms = failover_timer.ElapsedMs();
    follower.Stop();
  }
  std::filesystem::remove_all(repl_primary_dir);
  std::filesystem::remove_all(repl_follower_dir);

  std::printf("replicated QPS phase: %llu queries while %llu batches shipped "
              "(watermark %llu)\n  QPS=%.0f  p50=%.1f us  p99=%.1f us  failed=%llu  "
              "failover=%.1f ms (heartbeat window %d ms)\n",
              static_cast<unsigned long long>(repl.answered),
              static_cast<unsigned long long>(repl_publishes),
              static_cast<unsigned long long>(repl_watermark), repl.qps, repl.p50, repl.p99,
              static_cast<unsigned long long>(repl.failed), failover_ms,
              failover_heartbeat_ms);
  if (repl.failed != 0) {
    std::fprintf(stderr,
                 "bench_serve: %llu queries failed during the replicated phase — "
                 "the zero-downtime contract is broken\n",
                 static_cast<unsigned long long>(repl.failed));
  }

  std::ostringstream js;
  js << "\"serve_qps\":{\"clients\":" << clients << ",\"query_threads\":" << query_threads
     << ",\"publishes\":" << harness.Publishes() << ",\"queries\":" << plain.answered
     << ",\"window_ms\":" << FormatCompactDouble(plain.window_ms)
     << ",\"qps\":" << FormatCompactDouble(plain.qps)
     << ",\"p50_us\":" << FormatCompactDouble(plain.p50)
     << ",\"p99_us\":" << FormatCompactDouble(plain.p99) << ",\"failed\":" << plain.failed
     << ",\"hw_threads\":" << std::thread::hardware_concurrency() << "},"
     << "\"serve_repl\":{\"publishes\":" << repl_publishes
     << ",\"watermark\":" << repl_watermark << ",\"queries\":" << repl.answered
     << ",\"window_ms\":" << FormatCompactDouble(repl.window_ms)
     << ",\"qps\":" << FormatCompactDouble(repl.qps)
     << ",\"p50_us\":" << FormatCompactDouble(repl.p50)
     << ",\"p99_us\":" << FormatCompactDouble(repl.p99) << ",\"failed\":" << repl.failed
     << ",\"failover_ms\":" << FormatCompactDouble(failover_ms)
     << ",\"heartbeat_timeout_ms\":" << failover_heartbeat_ms << "}";

  if (const std::string json = cli.GetString("json"); !json.empty()) {
    report.WriteJsonFile(json, /*include_timing=*/true, js.str());
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
  return report.AllOk() && plain.failed == 0 && repl.failed == 0 ? 0 : 1;
}
