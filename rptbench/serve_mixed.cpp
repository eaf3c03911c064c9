// serve-mixed: a durable primary ServeHarness replicating over loopback to
// one durable follower (both fsync every append and checkpoint every 8
// batches), served by a TcpServer. Two TcpClient connections query closed
// loop while one update thread pushes churn batches (8 touches, 20%
// add/remove) through ReplPrimary::Apply, also closed loop.
//
// It is the only workload that crosses every serve/ layer and the
// incremental re-solve; reads and writes share the cores and the snapshot
// store. Closed loop because the wire protocol allows one outstanding
// request per connection.
//
// The traced pass keeps the same traffic and, after each ReplPrimary::Apply,
// replays the batch through the public calls ServeHarness::ApplyAndPublish is
// built from (EventWal::Append, IncrementalSolver::Apply,
// PlacementSnapshot::Build, SnapshotStore::Publish, ServeHarness::Checkpoint)
// and through FollowerCore::OnRecord, on mirror state recovered from the
// primary's own WAL and checkpoints. The query threads alternate TcpClient::
// Query, ServeHarness::Query and serve::Answer on an already-pinned Ref.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "gen/random_tree.hpp"
#include "incremental/incremental_solver.hpp"
#include "incremental/trace_gen.hpp"
#include "model/instance.hpp"
#include "model/validate.hpp"
#include "serve/event_wal.hpp"
#include "serve/placement_snapshot.hpp"
#include "serve/query.hpp"
#include "serve/repl_link.hpp"
#include "serve/serve_harness.hpp"
#include "serve/snapshot_store.hpp"
#include "serve/tcp_server.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace rptbench {
namespace {

namespace serve = rpt::serve;
namespace fs = std::filesystem;
using rpt::incremental::UpdateEvent;

constexpr rpt::Requests kCapacity = 40;
constexpr std::uint64_t kCheckpointEvery = 8;
constexpr std::uint32_t kTouches = 8;
constexpr int kQueryConnections = 2;
constexpr int kAckWaitMs = 2000;
constexpr std::size_t kQueriesPerConnection = 1u << 16;
constexpr std::size_t kSweepQueries = 4096;
// The traced pass records the spans of every 8th query iteration.
constexpr std::uint64_t kQuerySpanEvery = 8;

/// The running service: declared in dependency order, so destruction
/// stops clients, server, follower link and primary link before the
/// harnesses they point into.
struct Stack {
  std::unique_ptr<serve::ServeHarness> primary;
  std::unique_ptr<serve::ServeHarness> follower;
  std::unique_ptr<serve::ReplPrimary> repl;
  std::unique_ptr<serve::ReplFollower> follower_link;
  std::unique_ptr<serve::TcpServer> server;
  std::vector<std::unique_ptr<serve::TcpClient>> clients;
};

serve::DurabilityOptions Durable(const std::string& dir, std::uint64_t checkpoint_every) {
  serve::DurabilityOptions durability;
  durability.dir = dir;
  durability.checkpoint_every = checkpoint_every;
  durability.sync_appends = true;
  durability.trim_on_checkpoint = true;
  return durability;
}

/// Everything that runs before the timed window: both harnesses with their
/// initial solves, the follower subscribing, the server and the TCP connects.
/// `dir` must not hold a previous stack's state.
std::unique_ptr<Stack> SetUp(const rpt::Instance& instance, const std::string& dir) {
  auto stack = std::make_unique<Stack>();
  stack->primary = std::make_unique<serve::ServeHarness>(
      instance, rpt::incremental::SolverOptions{}, Durable(dir + "/primary", kCheckpointEvery));
  stack->follower = std::make_unique<serve::ServeHarness>(
      instance, rpt::incremental::SolverOptions{}, Durable(dir + "/follower", kCheckpointEvery));
  serve::ReplPrimaryOptions repl_options;
  repl_options.ack_wait_ms = kAckWaitMs;
  stack->repl = std::make_unique<serve::ReplPrimary>(*stack->primary, repl_options);
  stack->repl->Start(0);
  stack->follower_link = std::make_unique<serve::ReplFollower>(*stack->follower, stack->repl->Port());
  stack->follower_link->Start();
  RPT_REQUIRE(stack->repl->WaitForFollowers(1, 10000), "rptbench: follower never subscribed");
  stack->server = std::make_unique<serve::TcpServer>(*stack->primary);
  stack->server->Start(0);
  for (int c = 0; c < kQueryConnections; ++c) {
    stack->clients.push_back(std::make_unique<serve::TcpClient>(stack->server->Port()));
  }
  return stack;
}

/// Query mix over uniformly drawn nodes: which-replica on clients, residual
/// and attach-cost anywhere.
std::vector<serve::QueryRequest> MakeQueries(const rpt::Tree& tree, std::size_t count,
                                             std::uint64_t seed) {
  rpt::Rng rng(seed);
  std::vector<serve::QueryRequest> queries(count);
  const auto clients = tree.Clients();
  for (serve::QueryRequest& query : queries) {
    switch (rng.NextBelow(3)) {
      case 0:
        query.kind = serve::QueryKind::kWhichReplica;
        query.node = clients[rng.NextBelow(clients.size())];
        break;
      case 1:
        query.kind = serve::QueryKind::kResidual;
        query.node = static_cast<rpt::NodeId>(rng.NextBelow(tree.Size()));
        break;
      default:
        query.kind = serve::QueryKind::kAttachCost;
        query.node = static_cast<rpt::NodeId>(rng.NextBelow(tree.Size()));
        query.demand = rng.NextInRange(1, kCapacity);
    }
  }
  return queries;
}

double Us(std::uint64_t ns) { return static_cast<double>(ns) * 1e-3; }
double Ms(std::uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Untraced query latencies land in a ring of this many slots per
/// connection, allocated and touched before the window so the process RSS
/// does not grow with query throughput. It holds every sample of a 20 s
/// window at three times today's rate; past that it keeps the latest.
constexpr std::size_t kLatencySlots = 1u << 22;

/// Per-query-thread results of one window.
struct QueryLog {
  std::vector<float> tcp_us;  ///< untraced: TcpClient::Query round trips (ring)
  std::uint64_t recorded = 0;
  std::uint64_t answered = 0;
  std::uint64_t failed = 0;
  std::unique_ptr<SpanBuffer> spans;  ///< traced pass only
};

/// Closed-loop query thread body for one connection.
void QueryLoop(serve::TcpClient& client, const serve::ServeHarness& harness,
               const std::vector<serve::QueryRequest>& queries, const std::atomic<bool>& stop,
               QueryLog& log) {
  SpanBuffer* spans = log.spans.get();
  for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
    const serve::QueryRequest& query = queries[i % queries.size()];
    const bool traced = spans && i % kQuerySpanEvery == 0;
    const std::uint64_t t0 = NowNs();
    std::uint32_t span = traced ? spans->Open("serve.tcp.query", i) : 0;
    try {
      const serve::QueryResponse response = client.Query(query);
      if (traced) spans->Close(span);
      if (response.version == 0) {
        ++log.failed;
      } else {
        ++log.answered;
      }
    } catch (const std::exception&) {
      if (traced) spans->Close(span);
      ++log.failed;
    }
    if (!spans) {
      log.tcp_us[log.recorded++ % log.tcp_us.size()] = static_cast<float>(Us(NowNs() - t0));
      continue;
    }
    // Traced pass: the in-process paths under the same writes.
    if (traced) span = spans->Open("serve.query.inproc", i);
    (void)harness.Query(query);
    if (traced) spans->Close(span);
    serve::SnapshotStore::Ref ref = harness.Pin();
    if (traced) span = spans->Open("serve.query.answer", i);
    try {
      (void)serve::Answer(*ref, query);
    } catch (const std::exception&) {
      // An out-of-range node answers not-ok over the wire; same here.
    }
    if (traced) spans->Close(span);
  }
}

/// Mirror state for the traced replay of ApplyAndPublish's calls and the
/// follower apply, recovered from a copy of the primary's own state dir so
/// it starts (version, CanonicalHash)-identical to the primary.
/// It also holds the update thread's spans and the per-batch figures the
/// traced window derives from them.
struct Mirror {
  std::unique_ptr<rpt::incremental::IncrementalSolver> solver;
  std::optional<serve::EventWal> wal;
  serve::SnapshotStore store;
  std::unique_ptr<serve::ServeHarness> follower;
  std::unique_ptr<serve::FollowerCore> core;
  SpanBuffer spans{"update"};
  std::vector<double> ship_ack_ms;
  std::vector<double> wal_bytes;
};

}  // namespace

void RunServeMixed(const RunOptions& options, Report& report) {
  rpt::SetSolverThreads(1);
  rpt::gen::BinaryTreeConfig config;
  config.clients = options.scale == Scale::kTiny ? 1024 : 65536;
  config.min_edge = 1;
  config.max_edge = 2;
  config.min_requests = 1;
  config.max_requests = 10;
  const rpt::Instance instance(
      BuildTree(ColumnsOf(rpt::gen::GenerateFullBinaryTree(config, kTopologySeed), options.seed,
                          config.min_requests, config.max_requests)),
      kCapacity);
  const rpt::Tree& tree = instance.GetTree();
  std::vector<std::vector<serve::QueryRequest>> queries;
  for (int c = 0; c < kQueryConnections; ++c) {
    queries.push_back(MakeQueries(tree, kQueriesPerConnection, options.seed * 131 + 17 + c));
  }
  rpt::incremental::TraceConfig churn_config;
  // Far more batches than a window can publish today (~17/s at full scale),
  // so a faster publish path still has churn to apply.
  churn_config.ticks = static_cast<std::uint64_t>(std::max(256.0, options.seconds * 1000));
  churn_config.touches_per_tick = kTouches;
  churn_config.max_demand = 10;
  churn_config.add_remove_fraction = 0.2;
  const rpt::incremental::UpdateTrace churn =
      rpt::incremental::MakeRandomTrace(tree, churn_config, options.seed * 131 + 3);

  report.env["clients"] = std::to_string(config.clients);
  report.env["nodes"] = std::to_string(tree.Size());
  report.env["capacity"] = std::to_string(kCapacity);
  report.env["fsync"] = "every append (primary and follower)";
  report.env["checkpoint_every"] = std::to_string(kCheckpointEvery);
  report.env["touches_per_batch"] = std::to_string(kTouches);
  report.env["query_connections"] = std::to_string(kQueryConnections);
  report.env["ack_wait_ms"] = std::to_string(kAckWaitMs);
  report.env["solver_pool_width"] = std::to_string(rpt::SolverThreads());

  // One untimed set-up, then kSetups timed ones; the last stack serves the
  // window.
  const std::string dir = options.work_dir + "/serve";
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int i = 0; i <= kSetups; ++i) {
    stack.reset();
    fs::remove_all(dir);
    const std::uint64_t t0 = NowNs();
    stack = SetUp(instance, dir);
    if (i > 0) setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }

  std::size_t next_batch = 0;
  std::uint64_t unacked = 0;
  // Runs one window: query threads closed loop on their connections, this
  // thread closed loop on ReplPrimary::Apply (plus the mirror replay when
  // traced). Fills per-batch Apply latencies (ms); returns the window length.
  const auto run_window = [&](double seconds, Mirror* mirror, std::vector<QueryLog>& logs,
                              std::vector<double>& apply_ms) {
    SpanBuffer* update_spans = mirror ? &mirror->spans : nullptr;
    std::atomic<bool> stop{false};
    logs.resize(kQueryConnections);
    std::vector<std::thread> threads;
    for (int c = 0; c < kQueryConnections; ++c) {
      if (mirror) {
        logs[c].spans = std::make_unique<SpanBuffer>("query" + std::to_string(c));
      } else {
        logs[c].tcp_us.assign(kLatencySlots, 0.0f);
      }
      threads.emplace_back(QueryLoop, std::ref(*stack->clients[c]), std::cref(*stack->primary),
                           std::cref(queries[c]), std::cref(stop), std::ref(logs[c]));
    }
    const std::uint64_t start = NowNs();
    const std::uint64_t deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
    try {
      while (NowNs() < deadline) {
        if (next_batch == churn.size()) {
          // Churn exhausted: queries keep running until the window closes.
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        const std::vector<UpdateEvent>& batch = churn[next_batch];
        const std::uint64_t batch_id = next_batch++;
        ++report.attempted;
        const std::uint64_t t0 = NowNs();
        std::uint32_t parent = Span::kNoParent;
        std::uint32_t span = 0;
        if (update_spans) {
          parent = update_spans->Open("serve.publish", batch_id);
          span = update_spans->Open("serve.repl.apply", batch_id, parent);
        }
        bool acked = false;
        try {
          acked = stack->repl->Apply(batch);
        } catch (const std::exception& e) {
          report.Gate("serve-publish", false, e.what());
        }
        const std::uint64_t apply_ns = NowNs() - t0;
        if (update_spans) update_spans->Close(span);
        apply_ms.push_back(Ms(apply_ns));
        if (!acked) {
          ++unacked;
          ++report.failed;
        }
        if (!mirror) continue;

        // Replay the local commit, piece by piece, on the mirror state.
        const std::uint64_t seq = stack->primary->LastDurableSeq();
        const std::uint64_t version = stack->primary->Store().CurrentVersion();
        const std::uint64_t hash = stack->primary->Pin()->CanonicalHash();
        std::uint64_t local_ns = 0;
        const auto timed = [&](const char* name, const auto& call) {
          const std::uint32_t index = update_spans->Open(name, batch_id, parent);
          call();
          update_spans->Close(index);
          const Span& done = update_spans->Spans()[index];
          return done.end_ns - done.start_ns;
        };
        const std::uint64_t bytes_before = mirror->wal->CommittedBytes();
        local_ns += timed("serve.wal.append", [&] { mirror->wal->Append(seq, batch); });
        mirror->wal_bytes.push_back(
            static_cast<double>(mirror->wal->CommittedBytes() - bytes_before));
        local_ns += timed("incremental.apply", [&] { (void)mirror->solver->Apply(batch); });
        std::unique_ptr<const serve::PlacementSnapshot> snapshot;
        local_ns += timed("serve.snapshot.build", [&] {
          snapshot = serve::PlacementSnapshot::Build(
              mirror->solver->View(), mirror->solver->Capacity(), mirror->solver->Demands(),
              mirror->solver->Current(), version);
        });
        local_ns += timed("serve.store.publish",
                          [&] { mirror->store.Publish(std::move(snapshot)); });
        const std::string record = serve::EventWal::FrameRecord(
            serve::EventWal::EncodeBatchPayload(seq, batch));
        serve::FollowerCore::Outcome outcome{};
        const std::uint64_t follower_ns = timed("serve.repl.follower_apply", [&] {
          outcome = mirror->core->OnRecord(stack->primary->Epoch(), hash, record);
        });
        RPT_REQUIRE(outcome == serve::FollowerCore::Outcome::kApplied,
                    "rptbench: mirror follower did not apply the primary's record");
        std::uint64_t checkpoint_ns = 0;
        if (next_batch % kCheckpointEvery == 0) {
          // The primary and the real follower both cut a checkpoint inside
          // this Apply; the mirror cuts one explicitly.
          checkpoint_ns = timed("serve.checkpoint", [&] { mirror->follower->Checkpoint(); });
        }
        update_spans->Close(parent);
        mirror->ship_ack_ms.push_back(Ms(apply_ns) - Ms(local_ns) - Ms(follower_ns) -
                                      2 * Ms(checkpoint_ns));
      }
    } catch (...) {
      stop.store(true);
      for (std::thread& thread : threads) thread.join();
      throw;
    }
    stop.store(true);
    for (std::thread& thread : threads) thread.join();
    return static_cast<double>(NowNs() - start) * 1e-9;
  };

  const double untraced_seconds = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<QueryLog> logs;
  std::vector<double> publish_ms;
  const double window_s = run_window(untraced_seconds, nullptr, logs, publish_ms);
  const double rss_mib = PeakRssMib();
  std::vector<double> query_us;
  std::uint64_t answered = 0;
  std::uint64_t query_failed = 0;
  for (const QueryLog& log : logs) {
    const auto kept = static_cast<std::ptrdiff_t>(std::min<std::uint64_t>(log.recorded, kLatencySlots));
    query_us.insert(query_us.end(), log.tcp_us.begin(), log.tcp_us.begin() + kept);
    answered += log.answered;
    query_failed += log.failed;
  }
  report.attempted += answered + query_failed;
  report.failed += query_failed;

  report.e2e["setup_s"] = {Median(setup_s), "s"};
  report.e2e["op_p50_ms"] = {Median(publish_ms), "ms"};
  report.e2e["peak_rss_mib"] = {rss_mib, "MiB"};
  report.detail["query_qps"] = {static_cast<double>(answered) / window_s, "1/s"};
  report.detail["query_p50_us"] = {Median(query_us), "us"};
  report.detail["query_p99_us"] = {Quantile(query_us, 0.99), "us"};
  report.detail["publish_p50_ms"] = {Median(publish_ms), "ms"};
  report.detail["publish_p90_ms"] = {Quantile(publish_ms, 0.9), "ms"};
  report.samples["setup_s"] = setup_s.size();
  report.samples["queries"] = query_us.size();
  report.samples["publishes"] = publish_ms.size();

  if (options.trace) {
    Mirror mirror;
    const std::string mirror_dir = dir + "/mirror";
    fs::copy(dir + "/primary", mirror_dir, fs::copy_options::recursive);
    mirror.follower = serve::ServeHarness::RecoverFrom(
        instance, rpt::incremental::SolverOptions{}, Durable(mirror_dir, 0));
    RPT_REQUIRE(mirror.follower->Pin()->CanonicalHash() == stack->primary->Pin()->CanonicalHash(),
                "rptbench: mirror recovery diverged from the primary");
    mirror.core = std::make_unique<serve::FollowerCore>(*mirror.follower);
    mirror.solver = std::make_unique<rpt::incremental::IncrementalSolver>(
        instance, stack->primary->Solver().ExportOverlay(), kCapacity);
    mirror.wal.emplace(serve::EventWal::OpenForAppend(dir + "/mirror-wal.log", true));
    const rpt::incremental::IncrementalStats mirror_before = mirror.solver->Stats();

    std::vector<QueryLog> traced_logs;
    std::vector<double> traced_apply_ms;
    (void)run_window(options.seconds / 2, &mirror, traced_logs, traced_apply_ms);
    std::vector<const SpanBuffer*> buffers = {&mirror.spans};
    for (const QueryLog& log : traced_logs) buffers.push_back(log.spans.get());
    const auto p50 = [&buffers](const char* name) { return Median(SpanMs(buffers, name)); };

    const double inproc_p50_us = p50("serve.query.inproc") * 1e3;
    const double answer_p50_ns = p50("serve.query.answer") * 1e6;
    const double tcp_p50_us = p50("serve.tcp.query") * 1e3;
    report.layer["serve.query.inproc_us.p50"] = {inproc_p50_us, "us"};
    report.layer["serve.query.inproc_us.p99"] = {
        Quantile(SpanMs(buffers, "serve.query.inproc"), 0.99) * 1e3, "us"};
    report.layer["serve.query.answer_ns"] = {answer_p50_ns, "ns"};
    report.layer["serve.store.pin_ns"] = {inproc_p50_us * 1e3 - answer_p50_ns, "ns"};
    report.layer["serve.tcp.overhead_us"] = {tcp_p50_us - inproc_p50_us, "us"};
    std::uint64_t retries = 0;
    for (const auto& client : stack->clients) retries += client->Retries();
    report.layer["serve.tcp.retries"] = {static_cast<double>(retries), "count"};
    report.layer["serve.tcp.timeouts"] = {
        static_cast<double>(stack->server->TimeoutsObserved()), "count"};
    report.layer["serve.tcp.rejected"] = {
        static_cast<double>(stack->server->RejectedConnections()), "count"};
    report.layer["serve.wal.append_ms"] = {p50("serve.wal.append"), "ms"};
    report.layer["serve.wal.bytes_per_batch"] = {Median(mirror.wal_bytes), "bytes"};
    const std::vector<double> apply = SpanMs(buffers, "incremental.apply");
    report.layer["incremental.apply_ms.p50"] = {Median(apply), "ms"};
    report.layer["incremental.apply_ms.p90"] = {Quantile(apply, 0.9), "ms"};
    const rpt::incremental::IncrementalStats& mirror_after = mirror.solver->Stats();
    const double recomputed =
        static_cast<double>(mirror_after.nodes_recomputed - mirror_before.nodes_recomputed);
    const double reused =
        static_cast<double>(mirror_after.nodes_reused - mirror_before.nodes_reused);
    report.layer["incremental.nodes_recomputed"] = {
        recomputed / static_cast<double>(std::max<std::size_t>(1, apply.size())), "count"};
    report.layer["incremental.reuse_ratio"] = {
        reused + recomputed > 0 ? reused / (reused + recomputed) : 0.0, "ratio"};
    report.layer["serve.snapshot.build_ms"] = {p50("serve.snapshot.build"), "ms"};
    report.layer["serve.store.publish_us"] = {p50("serve.store.publish") * 1e3, "us"};
    report.layer["serve.checkpoint_ms"] = {p50("serve.checkpoint"), "ms"};
    report.layer["serve.repl.follower_apply_ms"] = {p50("serve.repl.follower_apply"), "ms"};
    report.layer["serve.repl.ship_ack_ms"] = {Median(mirror.ship_ack_ms), "ms"};
    report.layer["serve.repl.unacked"] = {static_cast<double>(unacked), "count"};
    report.layer["serve.repl.resyncs"] = {
        static_cast<double>(stack->follower_link->Core().Resyncs()), "count"};
    const double traced_publish = Median(traced_apply_ms);
    report.layer["trace.overhead_ms"] = {traced_publish - Median(publish_ms), "ms"};
    report.layer["trace.overhead_pct"] = {
        100.0 * (traced_publish - Median(publish_ms)) / Median(publish_ms), "%"};
    report.layer["trace.overhead_query_us"] = {tcp_p50_us - Median(query_us), "us"};
    report.layer["trace.spans"] = {
        static_cast<double>(WriteSpans(options.work_dir + "/spans-serve-mixed.tsv", buffers)),
        "count"};
    report.samples["traced_publishes"] = traced_apply_ms.size();
    report.samples["traced_query_spans"] = SpanMs(buffers, "serve.tcp.query").size();
  }

  // Gates, after writes stop.
  const std::uint64_t final_seq = stack->primary->LastDurableSeq();
  report.Gate("serve-follower-caught-up", stack->follower_link->WaitForSeq(final_seq, 30000),
              "follower never reached seq " + std::to_string(final_seq));
  std::uint64_t follower_hash = stack->follower->Pin()->CanonicalHash();
  if (options.corrupt == "serve-follower-hash") follower_hash ^= 1;
  report.Gate("serve-follower-hash", follower_hash == stack->primary->Pin()->CanonicalHash(),
              "follower CanonicalHash differs from the primary's at seq " +
                  std::to_string(final_seq));

  rpt::Solution final_solution = stack->primary->Solver().Current();
  if (options.corrupt == "serve-validate" && !final_solution.assignment.empty()) {
    final_solution.assignment.pop_back();
  }
  const rpt::ValidationReport validation = rpt::ValidateSolution(
      stack->primary->Solver().MaterializeInstance(), rpt::Policy::kMultiple, final_solution);
  report.Gate("serve-validate", validation.ok, validation.Describe());

  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < kSweepQueries; ++i) {
    const serve::QueryRequest& query = queries[0][i];
    serve::QueryResponse over_tcp = stack->clients[0]->Query(query);
    if (options.corrupt == "serve-tcp-sweep" && i == 0) ++over_tcp.value;
    if (!(over_tcp == stack->primary->Query(query))) ++mismatches;
  }
  report.Gate("serve-tcp-sweep", mismatches == 0,
              std::to_string(mismatches) + " of " + std::to_string(kSweepQueries) +
                  " TCP answers differ from ServeHarness::Query");

  report.detail["error_ratio"] = {
      static_cast<double>(report.failed) / static_cast<double>(report.attempted), "ratio"};
  report.detail["batches_applied"] = {static_cast<double>(next_batch), "count"};
  stack.reset();
  fs::remove_all(dir);
}

}  // namespace rptbench
