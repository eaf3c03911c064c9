// Tests for the durable event WAL and checkpoint files (src/serve/event_wal).
//
// The load-bearing suites are the corpora: a valid log truncated at EVERY
// byte boundary of its final record must read back as the exact preceding
// prefix (torn tail), and a single flipped byte anywhere in a CRC-covered
// region must either reduce to that same prefix (when it kills the last
// record) or throw (interior corruption) — never parse into different
// events. "Silently wrong" is the one outcome durability code must not
// have.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gen/random_tree.hpp"
#include "incremental/incremental_solver.hpp"
#include "serve/event_wal.hpp"
#include "support/failpoint.hpp"
#include "support/wire.hpp"
#include "tree/serialize.hpp"

namespace rpt::serve {
namespace {

namespace fs = std::filesystem;
using incremental::IncrementalSolver;
using incremental::UpdateEvent;

struct TempDir {
  std::string path;
  TempDir() {
    char buf[] = "/tmp/rpt_wal_XXXXXX";
    path = ::mkdtemp(buf);
  }
  ~TempDir() { fs::remove_all(path); }
  [[nodiscard]] std::string File(const std::string& name) const {
    return (fs::path(path) / name).string();
  }
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Three batches covering every event kind, attach spec included.
std::vector<std::vector<UpdateEvent>> SampleBatches() {
  SubtreeSpec spec;
  spec.nodes.push_back({NodeKind::kInternal, 0, 2, 0});
  spec.nodes.push_back({NodeKind::kClient, 0, 1, 7});
  spec.nodes.push_back({NodeKind::kClient, 0, 3, 5});
  return {
      {UpdateEvent::DemandDelta(4, -3), UpdateEvent::ClientAdd(9, 12),
       UpdateEvent::Capacity(25)},
      {UpdateEvent::AttachSubtree(0, spec), UpdateEvent::LinkCapacity(3, 6)},
      {UpdateEvent::ClientRemove(9), UpdateEvent::MigrateSubtree(7, 2, 4),
       UpdateEvent::DetachSubtree(11),
       UpdateEvent::DemandDelta(2, std::numeric_limits<std::int64_t>::min())},
  };
}

std::string WriteSampleWal(const std::string& path) {
  EventWal wal = EventWal::OpenForAppend(path);
  const auto batches = SampleBatches();
  for (std::size_t i = 0; i < batches.size(); ++i) {
    wal.Append(i + 1, batches[i]);
  }
  return ReadFileBytes(path);
}

TEST(EventWal, RoundTripsEveryEventKind) {
  const TempDir dir;
  const std::string path = dir.File("wal.log");
  WriteSampleWal(path);

  const WalReadResult result = EventWal::Read(path);
  EXPECT_EQ(result.dropped_bytes, 0u);
  const auto batches = SampleBatches();
  ASSERT_EQ(result.batches.size(), batches.size());
  for (std::size_t i = 0; i < batches.size(); ++i) {
    EXPECT_EQ(result.batches[i].seq, i + 1);
    EXPECT_EQ(result.batches[i].events, batches[i]);  // UpdateEvent operator==
  }
}

TEST(EventWal, MissingAndEmptyFilesReadAsEmpty) {
  const TempDir dir;
  const WalReadResult missing = EventWal::Read(dir.File("nope.log"));
  EXPECT_TRUE(missing.batches.empty());
  EXPECT_EQ(missing.valid_bytes, 0u);

  WriteFileBytes(dir.File("empty.log"), "");
  const WalReadResult empty = EventWal::Read(dir.File("empty.log"));
  EXPECT_TRUE(empty.batches.empty());
}

TEST(EventWal, SubMagicFileIsATornTailOfNothing) {
  const TempDir dir;
  WriteFileBytes(dir.File("wal.log"), "RPTW");
  const WalReadResult result = EventWal::Read(dir.File("wal.log"));
  EXPECT_TRUE(result.batches.empty());
  EXPECT_EQ(result.dropped_bytes, 4u);

  // And OpenForAppend starts the log over cleanly.
  EventWal wal = EventWal::OpenForAppend(dir.File("wal.log"));
  wal.Append(1, SampleBatches()[0]);
  EXPECT_EQ(EventWal::Read(dir.File("wal.log")).batches.size(), 1u);
}

TEST(EventWal, WrongMagicThrowsLoudly) {
  const TempDir dir;
  WriteFileBytes(dir.File("wal.log"), "NOTAWAL!garbage");
  EXPECT_THROW((void)EventWal::Read(dir.File("wal.log")), InvalidArgument);
}

TEST(EventWal, AppendRejectsNonIncreasingSeq) {
  const TempDir dir;
  EventWal wal = EventWal::OpenForAppend(dir.File("wal.log"));
  wal.Append(3, SampleBatches()[0]);
  EXPECT_THROW(wal.Append(3, SampleBatches()[1]), InvalidArgument);
  EXPECT_THROW(wal.Append(2, SampleBatches()[1]), InvalidArgument);
  wal.Append(4, SampleBatches()[1]);
  EXPECT_EQ(wal.LastSeq(), 4u);
}

TEST(EventWal, ReadRejectsSeqRegressionBetweenIntactRecords) {
  const TempDir dir;
  const std::string path = dir.File("wal.log");
  // Hand-frame seq 5 then seq 3 — both records individually intact.
  std::string bytes("RPTWAL1\0", 8);
  for (const std::uint64_t seq : {5u, 3u}) {
    wire::AppendCrcFrame(bytes, EventWal::EncodeBatchPayload(seq, SampleBatches()[0]),
                         kMaxWalRecordBytes);
  }
  WriteFileBytes(path, bytes);
  EXPECT_THROW((void)EventWal::Read(path), InternalError);
}

// The torn-tail corpus: truncating anywhere inside the final record —
// header, CRC, payload, any byte — must recover exactly the preceding
// batches and report the rest as dropped.
TEST(EventWal, TornTailCorpusTruncateFinalRecordAtEveryByte) {
  const TempDir dir;
  const std::string path = dir.File("wal.log");
  const std::string full = WriteSampleWal(path);

  const WalReadResult intact = EventWal::Read(path);
  ASSERT_EQ(intact.batches.size(), 3u);
  // Recompute where the final record begins: end of the first two.
  std::string prefix_two(full.begin(), full.end());
  const std::size_t final_start = [&] {
    std::size_t off = 8;
    for (int rec = 0; rec < 2; ++rec) off += 8 + wire::LoadU32(&full[off]);
    return off;
  }();
  ASSERT_LT(final_start, full.size());

  for (std::size_t cut = final_start; cut < full.size(); ++cut) {
    WriteFileBytes(path, full.substr(0, cut));
    const WalReadResult result = EventWal::Read(path);
    ASSERT_EQ(result.batches.size(), 2u) << "cut at byte " << cut;
    EXPECT_EQ(result.batches[1].events, SampleBatches()[1]) << "cut at byte " << cut;
    EXPECT_EQ(result.valid_bytes, final_start) << "cut at byte " << cut;
    EXPECT_EQ(result.dropped_bytes, cut - final_start) << "cut at byte " << cut;
  }

  // And the append path heals each torn shape: reopen truncates, appends land.
  WriteFileBytes(path, full.substr(0, full.size() - 3));
  EventWal wal = EventWal::OpenForAppend(path);
  EXPECT_EQ(wal.LastSeq(), 2u);
  wal.Append(3, SampleBatches()[0]);
  EXPECT_EQ(EventWal::Read(path).batches.size(), 3u);
}

// The bit-flip corpus: one flipped byte per CRC-covered region. A flip in
// the FINAL record reduces to the preceding prefix (no intact record
// follows); the SAME flip in an interior record must throw, because intact
// committed records follow the damage.
TEST(EventWal, BitFlipCorpusPrefixOrLoudNeverWrong) {
  const TempDir dir;
  const std::string path = dir.File("wal.log");
  const std::string full = WriteSampleWal(path);

  const std::size_t second_start = 8 + 8 + std::size_t{wire::LoadU32(&full[8])};
  const std::size_t final_start =
      second_start + 8 + std::size_t{wire::LoadU32(&full[second_start])};

  // Flip every byte of the final record (header, crc, and payload).
  for (std::size_t at = final_start; at < full.size(); ++at) {
    std::string damaged = full;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x40);
    WriteFileBytes(path, damaged);
    try {
      const WalReadResult result = EventWal::Read(path);
      // Allowed outcome 1: exact prefix restore — never a different batch.
      ASSERT_EQ(result.batches.size(), 2u) << "flip at byte " << at;
      EXPECT_EQ(result.batches[0].events, SampleBatches()[0]);
      EXPECT_EQ(result.batches[1].events, SampleBatches()[1]);
    } catch (const InternalError&) {
      // Allowed outcome 2: loud. (Reachable when the flipped length field
      // makes a stale suffix frame as a "following" record.)
    }
  }

  // Flip every byte of the SECOND record: intact record follows -> loud,
  // or (flips that only alter the length field's framing) a pure prefix.
  for (std::size_t at = second_start; at < final_start; ++at) {
    std::string damaged = full;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x40);
    WriteFileBytes(path, damaged);
    try {
      const WalReadResult result = EventWal::Read(path);
      // If it parses at all, it must be exactly the one-batch prefix (the
      // flip consumed the rest as an unframeable tail).
      ASSERT_EQ(result.batches.size(), 1u) << "flip at byte " << at;
      EXPECT_EQ(result.batches[0].events, SampleBatches()[0]);
    } catch (const InternalError&) {
      // Expected for most flips: record 3 is intact past the hole.
    }
  }
}

TEST(EventWal, TrimThroughKeepsOnlyNewerRecords) {
  const TempDir dir;
  const std::string path = dir.File("wal.log");
  WriteSampleWal(path);

  EventWal::TrimThrough(path, 2);
  const WalReadResult result = EventWal::Read(path);
  ASSERT_EQ(result.batches.size(), 1u);
  EXPECT_EQ(result.batches[0].seq, 3u);
  EXPECT_EQ(result.batches[0].events, SampleBatches()[2]);

  // Appends continue past the trim with the original numbering.
  EventWal wal = EventWal::OpenForAppend(path);
  wal.Append(4, SampleBatches()[0]);
  EXPECT_EQ(EventWal::Read(path).batches.back().seq, 4u);
}

TEST(EventWal, AppendFailpointsThrowCrashAndRepair) {
  const TempDir dir;
  const std::string path = dir.File("wal.log");
  {
    EventWal wal = EventWal::OpenForAppend(path);
    wal.Append(1, SampleBatches()[0]);
    const std::uint64_t committed = wal.CommittedBytes();

    // kThrow before any bytes: the file is untouched.
    fail::Arm("wal.append", fail::Action::kThrow);
    EXPECT_THROW(wal.Append(2, SampleBatches()[1]), fail::InjectedFault);
    EXPECT_EQ(fs::file_size(path), committed);

    // kShortOp: exactly `param` bytes of the record land, then death. No
    // repair — this is the crash that produces a torn tail.
    fail::Arm("wal.append.short", fail::Action::kShortOp, 1, 6);
    EXPECT_THROW(wal.Append(2, SampleBatches()[1]), fail::InjectedFault);
    EXPECT_EQ(fs::file_size(path), committed + 6);
  }
  fail::DisarmAll();

  // Recovery sees the torn 6 bytes, drops them, and the log heals.
  const WalReadResult torn = EventWal::Read(path);
  EXPECT_EQ(torn.batches.size(), 1u);
  EXPECT_EQ(torn.dropped_bytes, 6u);
  EventWal wal = EventWal::OpenForAppend(path);
  EXPECT_EQ(wal.LastSeq(), 1u);

  // kError on sync: reported as InternalError and the torn bytes are
  // repaired away — the append never happened.
  const std::uint64_t committed = wal.CommittedBytes();
  fail::Arm("wal.sync", fail::Action::kError);
  EXPECT_THROW(wal.Append(2, SampleBatches()[1]), InternalError);
  fail::DisarmAll();
  EXPECT_EQ(fs::file_size(path), committed);
  EXPECT_EQ(wal.LastSeq(), 1u);
  wal.Append(2, SampleBatches()[1]);  // and the handle still works
  EXPECT_EQ(EventWal::Read(path).batches.size(), 2u);
}

// --- checkpoints ---

Instance MakeInstance(std::uint64_t seed) {
  gen::RandomTreeConfig cfg;
  cfg.internal_nodes = 12;
  cfg.clients = 30;
  cfg.max_children = 4;
  cfg.min_requests = 0;
  cfg.max_requests = 9;
  return Instance(gen::GenerateRandomTree(cfg, seed), /*capacity=*/18);
}

CheckpointState MakeState(const Instance& instance, std::uint64_t seq,
                          std::uint64_t version) {
  IncrementalSolver solver(instance);
  // Mutate topology so the exported overlay carries a tombstone and an
  // appended id — the slot-id-preserving part of the contract.
  const std::vector<UpdateEvent> batch = {
      UpdateEvent::AttachSubtree(0, SubtreeSpec::SingleClient(2, 5)),
  };
  solver.Apply(batch);
  return CheckpointState{seq, version, /*epoch=*/1, solver.Capacity(),
                         solver.ExportOverlay()};
}

TEST(Checkpoint, RoundTripsStateAndCounters) {
  const TempDir dir;
  const Instance instance = MakeInstance(11);
  const CheckpointState state = MakeState(instance, 42, 37);
  WriteCheckpoint(dir.path, state);

  const auto loaded = LoadNewestCheckpoint(dir.path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seq, 42u);
  EXPECT_EQ(loaded->version, 37u);
  EXPECT_EQ(loaded->capacity, state.capacity);
  EXPECT_EQ(OverlayToString(loaded->overlay), OverlayToString(state.overlay));
}

TEST(Checkpoint, NewestWinsAndRetentionKeepsTwo) {
  const TempDir dir;
  const Instance instance = MakeInstance(11);
  for (const std::uint64_t seq : {10u, 20u, 30u, 40u}) {
    WriteCheckpoint(dir.path, MakeState(instance, seq, seq + 1));
  }
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 2u);
  const auto loaded = LoadNewestCheckpoint(dir.path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seq, 40u);
}

TEST(Checkpoint, DamagedNewestFallsBackToOlder) {
  const TempDir dir;
  const Instance instance = MakeInstance(11);
  WriteCheckpoint(dir.path, MakeState(instance, 10, 11));
  WriteCheckpoint(dir.path, MakeState(instance, 20, 21));

  // Corrupt the newest in place (flip a byte mid-file: CRC must catch it).
  const std::string newest = (fs::path(dir.path) / "ckpt-00000000000000000020.rpt").string();
  std::string bytes = ReadFileBytes(newest);
  ASSERT_FALSE(bytes.empty());
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  WriteFileBytes(newest, bytes);

  auto loaded = LoadNewestCheckpoint(dir.path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seq, 10u);

  // Truncation (a torn rename never happens, but a torn copy might).
  WriteFileBytes(newest, ReadFileBytes(newest).substr(0, 10));
  loaded = LoadNewestCheckpoint(dir.path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seq, 10u);

  // Nothing valid at all -> nullopt.
  const TempDir empty;
  EXPECT_FALSE(LoadNewestCheckpoint(empty.path).has_value());
}

}  // namespace
}  // namespace rpt::serve
