// Crash-recovery tests for the durable ServeHarness (WAL + checkpoints).
//
// The oracle suite is the heart: sim::RunCrashRestart kills a durable
// harness at a chosen failpoint mid-trace, recovers from disk, resumes, and
// the final snapshot must be (version, CanonicalHash)-identical to an
// uninterrupted in-memory run. That equality is checked across crash
// windows (before the WAL write, mid-record, after logging, after applying),
// crash positions, checkpoint cadences, and traces with topology churn.
//
// The rest pins the degraded-mode contract: a rejected batch is atomic
// (never partially published, never poisons later batches), a durability
// failure marks responses stale until the next good publish, and recovery
// refuses to guess when asked to start fresh over existing state.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gen/random_tree.hpp"
#include "incremental/incremental_solver.hpp"
#include "incremental/trace_gen.hpp"
#include "serve/event_wal.hpp"
#include "serve/serve_harness.hpp"
#include "sim/crash_restart.hpp"
#include "support/crc32.hpp"
#include "support/failpoint.hpp"

namespace rpt::serve {
namespace {

namespace fs = std::filesystem;
using incremental::MakeRandomTrace;
using incremental::TraceConfig;
using incremental::UpdateEvent;
using incremental::UpdateTrace;

struct TempDir {
  std::string path;
  TempDir() {
    char buf[] = "/tmp/rpt_rec_XXXXXX";
    path = ::mkdtemp(buf);
  }
  ~TempDir() { fs::remove_all(path); }
};

Instance MakeInstance(std::uint64_t seed) {
  gen::RandomTreeConfig cfg;
  cfg.internal_nodes = 30;
  cfg.clients = 80;
  cfg.max_children = 4;
  cfg.min_requests = 0;
  cfg.max_requests = 9;
  return Instance(gen::GenerateRandomTree(cfg, seed), /*capacity=*/18);
}

/// A churny trace: demand deltas plus joins, leaves, failures, and link
/// re-weights — recovery must reconstruct topology, not just demand.
UpdateTrace ChurnTrace(const Instance& instance, std::uint64_t seed,
                       std::uint32_t ticks) {
  TraceConfig config;
  config.ticks = ticks;
  config.touches_per_tick = 4;
  config.join_rate = 0.2;
  config.leave_rate = 0.1;
  config.failure_rate = 0.05;
  config.link_rate = 0.1;
  return MakeRandomTrace(instance.GetTree(), config, seed);
}

DurabilityOptions Durable(const std::string& dir, std::uint64_t every = 0) {
  DurabilityOptions options;
  options.dir = dir;
  options.checkpoint_every = every;
  return options;
}

std::string CheckpointPath(const std::string& dir, std::uint64_t seq) {
  char name[40];
  std::snprintf(name, sizeof(name), "ckpt-%020llu.rpt",
                static_cast<unsigned long long>(seq));
  return (fs::path(dir) / name).string();
}

/// Damages one byte so the file's CRC no longer matches (the checkpoint
/// loader must skip it and fall back).
void FlipByte(const std::string& path, std::size_t offset) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(file.good()) << path;
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x01);
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
  ASSERT_TRUE(file.good()) << path;
}

std::uint64_t HashOf(const ServeHarness& harness) {
  return harness.Pin()->CanonicalHash();
}

std::uint64_t VersionOf(const ServeHarness& harness) {
  return harness.Pin()->Version();
}

// --- the randomized crash-recovery oracle -------------------------------

struct CrashCase {
  const char* point;
  fail::Action action;
  std::uint64_t param;
};

TEST(CrashRecovery, OracleAcrossCrashWindowsPositionsAndCheckpoints) {
  const CrashCase kCases[] = {
      {"wal.append", fail::Action::kThrow, 0},        // before any bytes
      {"wal.append.short", fail::Action::kShortOp, 7},  // torn record on disk
      {"serve.post_wal", fail::Action::kThrow, 0},    // logged, not applied
      {"serve.post_apply", fail::Action::kThrow, 0},  // applied, not published
  };
  for (const std::uint64_t seed : {1u, 7u}) {
    const Instance instance = MakeInstance(seed);
    const UpdateTrace trace = ChurnTrace(instance, seed * 101, /*ticks=*/10);
    ASSERT_GE(trace.size(), 8u);
    for (const CrashCase& c : kCases) {
      for (const std::uint64_t every : {0u, 3u}) {
        const std::uint64_t positions[] = {1, 5, trace.size()};
        for (const std::uint64_t at : positions) {
          const TempDir dir;
          sim::CrashRestartConfig config;
          config.dir = dir.path;
          config.crash_at_batch = at;
          config.crash_point = c.point;
          config.crash_action = c.action;
          config.crash_param = c.param;
          config.checkpoint_every = every;
          const sim::CrashRestartResult result =
              sim::RunCrashRestart(instance, trace, config);
          EXPECT_TRUE(result.match)
              << "seed=" << seed << " point=" << c.point << " at=" << at
              << " ckpt_every=" << every << " recovered version "
              << result.final_version << " hash " << result.final_hash
              << " vs oracle version " << result.oracle_version << " hash "
              << result.oracle_hash;
        }
      }
    }
  }
}

TEST(CrashRecovery, CleanRestartReproducesFinalState) {
  const Instance instance = MakeInstance(3);
  const UpdateTrace trace = ChurnTrace(instance, 42, /*ticks=*/8);
  const TempDir dir;
  sim::CrashRestartConfig config;
  config.dir = dir.path;
  config.crash_at_batch = 0;  // never crash: full run, then recover anyway
  const sim::CrashRestartResult result = sim::RunCrashRestart(instance, trace, config);
  EXPECT_TRUE(result.match);
  EXPECT_EQ(result.durable_seq_at_recovery, trace.size());
  EXPECT_EQ(result.recovered_batches, trace.size());  // no checkpoint: full replay
}

TEST(CrashRecovery, CheckpointBoundsReplayAndTrimsWal) {
  const Instance instance = MakeInstance(5);
  const UpdateTrace trace = ChurnTrace(instance, 9, /*ticks=*/6);
  ASSERT_GE(trace.size(), 6u);
  const TempDir dir;
  {
    ServeHarness harness(instance, {}, Durable(dir.path, /*every=*/2));
    for (std::size_t i = 0; i < 6; ++i) {
      try {
        harness.ApplyAndPublish(trace[i]);
      } catch (const InvalidArgument&) {
      }
    }
  }
  // 6 attempted batches, cadence 2 -> last checkpoint at seq 6, WAL trimmed:
  // recovery replays nothing.
  auto recovered = ServeHarness::RecoverFrom(instance, {}, Durable(dir.path, 2));
  EXPECT_EQ(recovered->LastDurableSeq(), 6u);
  EXPECT_EQ(recovered->RecoveredBatches(), 0u);

  // And the recovered state equals a from-scratch in-memory run.
  ServeHarness oracle(instance);
  for (std::size_t i = 0; i < 6; ++i) {
    try {
      oracle.ApplyAndPublish(trace[i]);
    } catch (const InvalidArgument&) {
    }
  }
  EXPECT_EQ(HashOf(*recovered), HashOf(oracle));
  EXPECT_EQ(VersionOf(*recovered), VersionOf(oracle));
}

TEST(CrashRecovery, RecoverFromEmptyDirEqualsFreshHarness) {
  const Instance instance = MakeInstance(4);
  const TempDir dir;
  auto recovered = ServeHarness::RecoverFrom(instance, {}, Durable(dir.path));
  ServeHarness fresh(instance);
  EXPECT_EQ(VersionOf(*recovered), 1u);
  EXPECT_EQ(HashOf(*recovered), HashOf(fresh));
  EXPECT_EQ(recovered->LastDurableSeq(), 0u);

  // The recovered harness is live: it accepts and logs new batches.
  recovered->ApplyAndPublish(std::vector<UpdateEvent>{UpdateEvent::DemandDelta(31, 2)});
  EXPECT_EQ(recovered->LastDurableSeq(), 1u);
}

TEST(CrashRecovery, DurableCtorRefusesExistingState) {
  const Instance instance = MakeInstance(4);
  const TempDir dir;
  {
    ServeHarness harness(instance, {}, Durable(dir.path));
    harness.ApplyAndPublish(std::vector<UpdateEvent>{UpdateEvent::DemandDelta(31, 2)});
  }
  EXPECT_THROW(ServeHarness(instance, {}, Durable(dir.path)), InvalidArgument);
  // RecoverFrom is the correct verb over existing state.
  auto recovered = ServeHarness::RecoverFrom(instance, {}, Durable(dir.path));
  EXPECT_EQ(recovered->LastDurableSeq(), 1u);
}

// --- batch atomicity (satellite b) --------------------------------------

TEST(CrashRecovery, RejectedBatchIsInvisibleEvenThroughRecovery) {
  const Instance instance = MakeInstance(6);
  const std::vector<UpdateEvent> good1{UpdateEvent::DemandDelta(31, 3)};
  // Driving a client's demand below zero fails validation inside Apply.
  const std::vector<UpdateEvent> bad{UpdateEvent::DemandDelta(31, -1'000'000)};
  const std::vector<UpdateEvent> good2{UpdateEvent::DemandDelta(32, 5)};

  // In-memory reference: the bad batch was never sent at all.
  ServeHarness reference(instance);
  reference.ApplyAndPublish(good1);
  reference.ApplyAndPublish(good2);

  // Durable harness: bad batch thrown, Stale() untouched (a rejected batch
  // is the caller's bug, not service degradation).
  const TempDir dir;
  std::uint64_t live_hash = 0;
  {
    ServeHarness harness(instance, {}, Durable(dir.path));
    harness.ApplyAndPublish(good1);
    EXPECT_THROW(harness.ApplyAndPublish(bad), InvalidArgument);
    EXPECT_FALSE(harness.Stale());
    harness.ApplyAndPublish(good2);
    live_hash = HashOf(harness);
    EXPECT_EQ(live_hash, HashOf(reference));
    EXPECT_EQ(VersionOf(harness), VersionOf(reference));
    // The bad batch DID consume a durable seq (logged before apply)...
    EXPECT_EQ(harness.LastDurableSeq(), 3u);
  }

  // ...and replay re-rejects it identically: recovery lands on the same
  // snapshot, version included.
  auto recovered = ServeHarness::RecoverFrom(instance, {}, Durable(dir.path));
  EXPECT_EQ(recovered->RecoveredBatches(), 3u);
  EXPECT_EQ(HashOf(*recovered), live_hash);
  EXPECT_EQ(VersionOf(*recovered), VersionOf(reference));
}

// --- degraded mode / stale bit ------------------------------------------

TEST(CrashRecovery, DurabilityFailureMarksStaleUntilNextGoodPublish) {
  const Instance instance = MakeInstance(8);
  const TempDir dir;
  ServeHarness harness(instance, {}, Durable(dir.path));
  harness.ApplyAndPublish(std::vector<UpdateEvent>{UpdateEvent::DemandDelta(31, 2)});
  const std::uint64_t version_before = VersionOf(harness);

  // fsync failure: the append is rolled back, the harness serves its last
  // good snapshot and flags it stale.
  fail::Arm("wal.sync", fail::Action::kError);
  EXPECT_THROW(
      harness.ApplyAndPublish(std::vector<UpdateEvent>{UpdateEvent::DemandDelta(32, 4)}),
      InternalError);
  fail::DisarmAll();
  EXPECT_TRUE(harness.Stale());
  EXPECT_EQ(VersionOf(harness), version_before);

  QueryRequest request;
  request.kind = QueryKind::kWhichReplica;
  request.node = 31;
  EXPECT_TRUE(harness.Query(request).stale);

  // Next good publish clears the flag...
  harness.ApplyAndPublish(std::vector<UpdateEvent>{UpdateEvent::DemandDelta(33, 1)});
  EXPECT_FALSE(harness.Stale());
  EXPECT_FALSE(harness.Query(request).stale);

  // ...and the final state matches an oracle that never saw the failed
  // batch (it was rolled back, not deferred).
  ServeHarness oracle(instance);
  oracle.ApplyAndPublish(std::vector<UpdateEvent>{UpdateEvent::DemandDelta(31, 2)});
  oracle.ApplyAndPublish(std::vector<UpdateEvent>{UpdateEvent::DemandDelta(33, 1)});
  EXPECT_EQ(HashOf(harness), HashOf(oracle));
}

TEST(CrashRecovery, CheckpointFailureLeavesServiceCurrent) {
  const Instance instance = MakeInstance(8);
  const TempDir dir;
  ServeHarness harness(instance, {}, Durable(dir.path));
  harness.ApplyAndPublish(std::vector<UpdateEvent>{UpdateEvent::DemandDelta(31, 2)});

  fail::Arm("ckpt.write", fail::Action::kError);
  EXPECT_THROW(harness.Checkpoint(), InternalError);
  fail::DisarmAll();
  // The published snapshot was never at risk: not stale, still queryable,
  // and a later checkpoint succeeds.
  EXPECT_FALSE(harness.Stale());
  harness.Checkpoint();
  auto recovered = ServeHarness::RecoverFrom(instance, {}, Durable(dir.path));
  EXPECT_EQ(HashOf(*recovered), HashOf(harness));
}

TEST(CrashRecovery, FailedTrimKeepsWalEngaged) {
  const Instance instance = MakeInstance(13);
  const TempDir dir;
  std::uint64_t live_hash = 0;
  std::uint64_t live_version = 0;
  {
    ServeHarness harness(instance, {}, Durable(dir.path));
    harness.ApplyAndPublish(std::vector<UpdateEvent>{UpdateEvent::DemandDelta(31, 2)});

    // The checkpoint file lands, but the WAL trim after it fails. The
    // untrimmed log is still valid — the harness must re-engage it, not
    // leave the WAL handle disengaged and silently stop logging.
    fail::Arm("wal.trim", fail::Action::kError);
    EXPECT_THROW(harness.Checkpoint(), InternalError);
    fail::DisarmAll();
    EXPECT_FALSE(harness.Stale());

    harness.ApplyAndPublish(std::vector<UpdateEvent>{UpdateEvent::DemandDelta(32, 4)});
    EXPECT_EQ(harness.LastDurableSeq(), 2u);  // the post-failure batch WAS logged
    live_hash = HashOf(harness);
    live_version = VersionOf(harness);
  }
  // And nothing was lost: recovery reproduces the post-failure state.
  auto recovered = ServeHarness::RecoverFrom(instance, {}, Durable(dir.path));
  EXPECT_EQ(HashOf(*recovered), live_hash);
  EXPECT_EQ(VersionOf(*recovered), live_version);
}

TEST(CrashRecovery, PeriodicCheckpointFailureDoesNotFailTheApply) {
  const Instance instance = MakeInstance(14);
  const TempDir dir;
  ServeHarness harness(instance, {}, Durable(dir.path, /*every=*/1));
  const std::uint64_t version_before = VersionOf(harness);

  // The batch commits (logged, applied, published) before the periodic
  // checkpoint runs; a checkpoint error escaping ApplyAndPublish would
  // invite a retry that double-logs and double-applies the batch.
  fail::Arm("ckpt.write", fail::Action::kError);
  EXPECT_NO_THROW(harness.ApplyAndPublish(
      std::vector<UpdateEvent>{UpdateEvent::DemandDelta(31, 2)}));
  fail::DisarmAll();
  EXPECT_EQ(VersionOf(harness), version_before + 1);
  EXPECT_EQ(harness.LastDurableSeq(), 1u);
  EXPECT_FALSE(harness.Stale());
  EXPECT_EQ(harness.CheckpointFailures(), 1u);
  EXPECT_FALSE(harness.LastCheckpointError().empty());

  // The next apply retries the checkpoint, succeeds, and clears the error.
  harness.ApplyAndPublish(std::vector<UpdateEvent>{UpdateEvent::DemandDelta(32, 1)});
  EXPECT_TRUE(harness.LastCheckpointError().empty());
  EXPECT_EQ(harness.CheckpointFailures(), 1u);

  // Direct Checkpoint() calls still throw: containment applies only where
  // the apply already succeeded and the outcome must stay unambiguous.
  fail::Arm("ckpt.write", fail::Action::kError);
  EXPECT_THROW(harness.Checkpoint(), InternalError);
  fail::DisarmAll();
}

TEST(CrashRecovery, RecoveryRefusesGapWhenDamagedCheckpointOutrunsTrimmedWal) {
  const Instance instance = MakeInstance(11);
  const TempDir dir;
  {
    ServeHarness harness(instance, {}, Durable(dir.path, /*every=*/2));
    for (int i = 0; i < 5; ++i) {
      harness.ApplyAndPublish(
          std::vector<UpdateEvent>{UpdateEvent::DemandDelta(31 + i, 1)});
    }
  }
  // Checkpoints at seq 2 and 4 survive; the trimmed WAL holds only seq 5.
  // Damage the newest checkpoint: falling back to seq 2 would silently
  // lose batches 3-4, so recovery must refuse (tail is not contiguous
  // with the fallback checkpoint).
  FlipByte(CheckpointPath(dir.path, 4), 20);
  EXPECT_THROW(ServeHarness::RecoverFrom(instance, {}, Durable(dir.path)),
               InternalError);
}

TEST(CrashRecovery, RecoveryRefusesEmptyTailGapButAllowsFallbackOverFullWal) {
  const Instance instance = MakeInstance(12);
  const auto apply4 = [](ServeHarness& harness) {
    for (int i = 0; i < 4; ++i) {
      harness.ApplyAndPublish(
          std::vector<UpdateEvent>{UpdateEvent::DemandDelta(31 + i, 1)});
    }
  };

  {
    // Trimmed WAL, empty tail: checkpoints at seq 2 and 4, nothing in the
    // log. A damaged newest checkpoint leaves batches 3-4 unreachable even
    // though every surviving file parses cleanly — the filename-advertised
    // seq is the only witness, and recovery must refuse.
    const TempDir dir;
    {
      ServeHarness harness(instance, {}, Durable(dir.path, /*every=*/2));
      apply4(harness);
    }
    FlipByte(CheckpointPath(dir.path, 4), 20);
    EXPECT_THROW(ServeHarness::RecoverFrom(instance, {}, Durable(dir.path)),
                 InternalError);
  }

  {
    // Same damage with trim_on_checkpoint off: the full WAL still covers
    // batches 3-4, so falling back to the seq-2 checkpoint is safe and
    // recovery matches the oracle.
    const TempDir dir;
    DurabilityOptions options = Durable(dir.path, /*every=*/2);
    options.trim_on_checkpoint = false;
    {
      ServeHarness harness(instance, {}, options);
      apply4(harness);
    }
    FlipByte(CheckpointPath(dir.path, 4), 20);
    auto recovered = ServeHarness::RecoverFrom(instance, {}, options);

    ServeHarness oracle(instance);
    apply4(oracle);
    EXPECT_EQ(HashOf(*recovered), HashOf(oracle));
    EXPECT_EQ(VersionOf(*recovered), VersionOf(oracle));
  }
}

TEST(CrashRecovery, CraftedSlotCountFallsBackToOlderCheckpoint) {
  // The newest checkpoint is rewritten, CRC and all, to advertise 2^26 slots
  // and hold none. The loader must refuse it without sizing anything by that
  // count (six columns of that many slots take 1.6 GiB), and recovery falls
  // back to the seq-2 checkpoint over the full WAL.
  const Instance instance = MakeInstance(12);
  const auto apply4 = [](ServeHarness& harness) {
    for (int i = 0; i < 4; ++i) {
      harness.ApplyAndPublish(
          std::vector<UpdateEvent>{UpdateEvent::DemandDelta(31 + i, 1)});
    }
  };
  const TempDir dir;
  DurabilityOptions options = Durable(dir.path, /*every=*/2);
  options.trim_on_checkpoint = false;
  {
    ServeHarness harness(instance, {}, options);
    apply4(harness);
  }
  const std::string newest = CheckpointPath(dir.path, 4);
  std::string text;
  {
    std::ifstream in(newest);
    std::string line;
    for (int i = 0; i < 2 && std::getline(in, line); ++i) text += line + "\n";  // magic, seq
  }
  ASSERT_EQ(text.rfind("rpt-ckpt v1\nseq 4 ", 0), 0u) << text;
  text += "rpt-overlay v1\n67108864\n";
  char crc_line[16];
  std::snprintf(crc_line, sizeof(crc_line), "crc %08x\n", support::Crc32(text));
  std::ofstream(newest, std::ios::trunc) << text << crc_line;

  const auto peak_kib = [] {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
  };
  const long peak_before = peak_kib();
  auto recovered = ServeHarness::RecoverFrom(instance, {}, options);
  EXPECT_LT(peak_kib() - peak_before, 64 * 1024) << "KiB of peak RSS";
  EXPECT_EQ(recovered->RecoveredBatches(), 2u);  // batches 3 and 4, past seq 2
  ServeHarness oracle(instance);
  apply4(oracle);
  EXPECT_EQ(HashOf(*recovered), HashOf(oracle));
  EXPECT_EQ(VersionOf(*recovered), VersionOf(oracle));
}

}  // namespace
}  // namespace rpt::serve
