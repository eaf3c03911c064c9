// Encoding goldens for every byte format rpt writes or ships: the event
// WAL, the checkpoint file, rpt-btab v1, the query wire, replication frames
// and the outer length prefix both sockets share.
//
// Round-trip tests cannot see a change made the same way to a writer and
// its reader; these can. Each golden is the exact byte string the encoder
// produced when the format was pinned, written as hex. A test encodes its
// hand-built input and compares bytes, then decodes the golden and compares
// every field against that input. Inputs are built by hand (TreeBuilder, the
// UpdateEvent factories), never by the random generators, whose libm calls
// could move the bytes on another platform.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "serve/event_wal.hpp"
#include "serve/net_util.hpp"
#include "serve/query.hpp"
#include "serve/repl_link.hpp"
#include "shard/boundary_table.hpp"
#include "support/crc32.hpp"
#include "support/wire.hpp"
#include "tree/serialize.hpp"
#include "tree/tree.hpp"
#include "tree/tree_overlay.hpp"

namespace rpt {
namespace {

namespace fs = std::filesystem;
using incremental::UpdateEvent;
using serve::EventWal;

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::string Hex(const std::vector<std::uint8_t>& bytes) {
  return Hex(std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

std::string Unhex(std::string_view hex) {
  const auto nibble = [](char c) {
    return c <= '9' ? c - '0' : c - 'a' + 10;
  };
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(nibble(hex[i]) << 4 | nibble(hex[i + 1])));
  }
  return out;
}

std::vector<std::uint8_t> UnhexBytes(std::string_view hex) {
  const std::string bytes = Unhex(hex);
  return {bytes.begin(), bytes.end()};
}

struct TempDir {
  std::string path;
  TempDir() {
    char buf[] = "/tmp/rpt_wire_XXXXXX";
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

// ---------------------------------------------------------------------------
// Event WAL: every UpdateEvent kind, an attach spec, and an epoch record.
// ---------------------------------------------------------------------------

std::vector<std::vector<UpdateEvent>> GoldenBatches() {
  SubtreeSpec spec;
  spec.nodes.push_back({NodeKind::kInternal, 0, 2, 0});
  spec.nodes.push_back({NodeKind::kClient, 0, 1, 7});
  return {
      {UpdateEvent::DemandDelta(4, -3), UpdateEvent::ClientAdd(9, 12),
       UpdateEvent::ClientRemove(9), UpdateEvent::Capacity(25)},
      {UpdateEvent::AttachSubtree(0, spec), UpdateEvent::DetachSubtree(11),
       UpdateEvent::MigrateSubtree(7, 2, 4), UpdateEvent::LinkCapacity(3, 6)},
  };
}

constexpr std::uint64_t kGoldenEpoch = 2;

constexpr std::string_view kWalGolden =
    "52505457414c310080000000b58564a001000000000000000400000000040000"
    "00fdffffffffffffff0000000000000000ffffffff0000000001090000000000"
    "0000000000000c00000000000000ffffffff0000000002090000000000000000"
    "0000000000000000000000ffffffff0000000003ffffffff0000000000000000"
    "1900000000000000ffffffff00000000aa0000008897b1c50200000000000000"
    "04000000040000000000000000000000000000000000000000ffffffff020000"
    "0000000000000200000000000000000000000000000001000000000100000000"
    "0000000700000000000000050b00000000000000000000000000000000000000"
    "ffffffff00000000060700000000000000000000000400000000000000020000"
    "0000000000070300000000000000000000000600000000000000ffffffff0000"
    "000014000000aae873660300000000000000ffffffff0200000000000000";

TEST(WireGolden, WalFile) {
  const TempDir dir;
  const std::string path = dir.File("wal.log");
  const auto batches = GoldenBatches();
  {
    EventWal wal = EventWal::OpenForAppend(path, /*sync=*/false);
    wal.Append(1, batches[0]);
    wal.Append(2, batches[1]);
    wal.AppendEpoch(3, kGoldenEpoch);
  }
  EXPECT_EQ(Hex(ReadFileBytes(path)), kWalGolden);

  WriteFileBytes(path, Unhex(kWalGolden));
  const serve::WalReadResult read = EventWal::Read(path);
  EXPECT_EQ(read.valid_bytes, kWalGolden.size() / 2);
  EXPECT_EQ(read.dropped_bytes, 0u);
  ASSERT_EQ(read.batches.size(), 3u);
  for (std::size_t i = 0; i < batches.size(); ++i) {
    EXPECT_EQ(read.batches[i].seq, i + 1);
    EXPECT_FALSE(read.batches[i].epoch_bump);
    ASSERT_EQ(read.batches[i].events.size(), batches[i].size());
    for (std::size_t e = 0; e < batches[i].size(); ++e) {
      const UpdateEvent& got = read.batches[i].events[e];
      const UpdateEvent& want = batches[i][e];
      EXPECT_EQ(got.kind, want.kind) << "batch " << i << " event " << e;
      EXPECT_EQ(got.client, want.client) << "batch " << i << " event " << e;
      EXPECT_EQ(got.delta, want.delta) << "batch " << i << " event " << e;
      EXPECT_EQ(got.value, want.value) << "batch " << i << " event " << e;
      EXPECT_EQ(got.parent, want.parent) << "batch " << i << " event " << e;
      ASSERT_EQ(got.spec.nodes.size(), want.spec.nodes.size());
      for (std::size_t n = 0; n < want.spec.nodes.size(); ++n) {
        EXPECT_EQ(got.spec.nodes[n].kind, want.spec.nodes[n].kind);
        EXPECT_EQ(got.spec.nodes[n].parent, want.spec.nodes[n].parent);
        EXPECT_EQ(got.spec.nodes[n].delta, want.spec.nodes[n].delta);
        EXPECT_EQ(got.spec.nodes[n].requests, want.spec.nodes[n].requests);
      }
    }
  }
  EXPECT_EQ(read.batches[2].seq, 3u);
  EXPECT_TRUE(read.batches[2].epoch_bump);
  EXPECT_EQ(read.batches[2].epoch, kGoldenEpoch);
  EXPECT_TRUE(read.batches[2].events.empty());
}

// ---------------------------------------------------------------------------
// rpt-btab v1: the same two tables and one fragment as test_shard's sample.
// ---------------------------------------------------------------------------

shard::BtabFile GoldenBtab() {
  shard::BtabFile file;
  shard::BoundaryTable plain;
  plain.cut = 17;
  plain.demand = 6;
  plain.subtree_nodes = 9;
  plain.table_entries = 41;
  plain.convolve_cells = 120;
  plain.table = {6, 4, 2, 0};
  file.tables.push_back(plain);

  shard::BoundaryTable floored;
  floored.cut = 23;
  floored.demand = 6;
  floored.subtree_nodes = 4;
  floored.table_entries = 7;
  floored.convolve_cells = 9;
  floored.table = {5, 3, 2};
  file.tables.push_back(floored);

  shard::SolutionFragment fragment;
  fragment.cut = 17;
  fragment.budget = 3;
  fragment.solution.replicas = {0, 2};
  fragment.solution.assignment = {{3, 0, 5}, {4, 2, 7}};
  fragment.forwarded = {{1, 4}, {5, 2}};
  file.fragments.push_back(fragment);
  return file;
}

constexpr std::string_view kBtabGolden =
    "525054425441423110000000846c70ea0100000003000000df00000000000000"
    "3900000020e1043e011100000006000000000000000900000029000000000000"
    "0078000000000000000000000003000000060000000400000002000000000000"
    "0035000000286810bd0117000000060000000000000004000000070000000000"
    "0000090000000000000000000000020000000500000003000000020000005900"
    "00004a02fce90211000000030000000000000002000000000000000200000002"
    "0000000300000000000000050000000000000004000000020000000700000000"
    "00000002000000010000000400000000000000050000000200000000000000";

TEST(WireGolden, Btab) {
  const shard::BtabFile file = GoldenBtab();
  EXPECT_EQ(Hex(shard::EncodeBtab(file)), kBtabGolden);

  const shard::BtabFile back = shard::DecodeBtab(Unhex(kBtabGolden));
  ASSERT_EQ(back.tables.size(), file.tables.size());
  for (std::size_t i = 0; i < file.tables.size(); ++i) {
    EXPECT_EQ(back.tables[i].cut, file.tables[i].cut);
    EXPECT_EQ(back.tables[i].demand, file.tables[i].demand);
    EXPECT_EQ(back.tables[i].subtree_nodes, file.tables[i].subtree_nodes);
    EXPECT_EQ(back.tables[i].table_entries, file.tables[i].table_entries);
    EXPECT_EQ(back.tables[i].convolve_cells, file.tables[i].convolve_cells);
    EXPECT_EQ(back.tables[i].table, file.tables[i].table);
  }
  ASSERT_EQ(back.fragments.size(), 1u);
  const shard::SolutionFragment& got = back.fragments[0];
  const shard::SolutionFragment& want = file.fragments[0];
  EXPECT_EQ(got.cut, want.cut);
  EXPECT_EQ(got.budget, want.budget);
  EXPECT_EQ(got.solution.replicas, want.solution.replicas);
  EXPECT_EQ(got.solution.assignment, want.solution.assignment);
  EXPECT_EQ(got.forwarded, want.forwarded);
}

// ---------------------------------------------------------------------------
// Checkpoint: a small overlay carrying a tombstone and an appended slot.
// ---------------------------------------------------------------------------

serve::CheckpointState GoldenCheckpoint() {
  TreeBuilder builder;
  const NodeId root = builder.AddRoot();
  const NodeId mid = builder.AddInternal(root, 2);
  builder.AddClient(mid, 1, 3);
  builder.AddClient(mid, 5, 4);
  builder.AddClient(root, 4, 6);
  TreeOverlay overlay(builder.Build());
  overlay.AttachSubtree(root, SubtreeSpec::SingleClient(3, 8));
  overlay.DetachSubtree(4);
  overlay.MigrateSubtree(3, root, 7);
  return serve::CheckpointState{/*seq=*/5, /*version=*/4, /*epoch=*/2,
                                /*capacity=*/10, std::move(overlay)};
}

constexpr std::string_view kCheckpointGolden =
    "7270742d636b70742076310a73657120352076657273696f6e20342063617061"
    "636974792031302065706f636820320a7270742d6f7665726c61792076310a36"
    "0a302031202d20696e662049203020300a312031203020322049203020300a32"
    "2031203120312043203320300a332031203020372043203420320a342030202d"
    "20696e662049203020300a352031203020332043203820310a63726320373036"
    "61663431310a";

TEST(WireGolden, Checkpoint) {
  const TempDir dir;
  const serve::CheckpointState state = GoldenCheckpoint();
  serve::WriteCheckpoint(dir.path, state);
  const std::string file = dir.File("ckpt-00000000000000000005.rpt");
  EXPECT_EQ(Hex(ReadFileBytes(file)), kCheckpointGolden);

  WriteFileBytes(file, Unhex(kCheckpointGolden));
  const std::optional<serve::CheckpointState> loaded = serve::LoadNewestCheckpoint(dir.path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->seq, state.seq);
  EXPECT_EQ(loaded->version, state.version);
  EXPECT_EQ(loaded->epoch, state.epoch);
  EXPECT_EQ(loaded->capacity, state.capacity);
  const TreeOverlay& got = loaded->overlay;
  const TreeOverlay& want = state.overlay;
  ASSERT_EQ(got.Size(), want.Size());
  for (NodeId id = 0; id < want.Size(); ++id) {
    ASSERT_EQ(got.IsLive(id), want.IsLive(id)) << "slot " << id;
    if (!want.IsLive(id)) continue;
    EXPECT_EQ(got.Kind(id), want.Kind(id)) << "slot " << id;
    EXPECT_EQ(got.Parent(id), want.Parent(id)) << "slot " << id;
    EXPECT_EQ(got.DistToParent(id), want.DistToParent(id)) << "slot " << id;
    EXPECT_EQ(got.RequestsOf(id), want.RequestsOf(id)) << "slot " << id;
    const auto got_children = got.Children(id);
    const auto want_children = want.Children(id);
    EXPECT_EQ(std::vector<NodeId>(got_children.begin(), got_children.end()),
              std::vector<NodeId>(want_children.begin(), want_children.end()))
        << "slot " << id;
  }
}

// ---------------------------------------------------------------------------
// Query wire: one request per QueryKind, one response per status bit.
// ---------------------------------------------------------------------------

std::vector<serve::QueryRequest> GoldenRequests() {
  return {
      {serve::QueryKind::kWhichReplica, 5, 0},
      {serve::QueryKind::kResidual, 0x01020304u, 0},
      {serve::QueryKind::kAttachCost, 7, 0x1122334455667788ull},
  };
}

constexpr std::string_view kRequestGoldens[] = {
    "0d00000000050000000000000000000000",
    "0d00000001040302010000000000000000",
    "0d00000002070000008877665544332211",
};

TEST(WireGolden, QueryRequests) {
  const auto requests = GoldenRequests();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    std::vector<std::uint8_t> wire;
    serve::EncodeRequest(requests[i], wire);
    EXPECT_EQ(Hex(wire), kRequestGoldens[i]) << "request " << i;

    const std::vector<std::uint8_t> golden = UnhexBytes(kRequestGoldens[i]);
    ASSERT_EQ(golden.size(), 4 + serve::kRequestWireSize);
    const serve::QueryRequest back =
        serve::DecodeRequest({golden.data() + 4, serve::kRequestWireSize});
    EXPECT_EQ(back.kind, requests[i].kind) << "request " << i;
    EXPECT_EQ(back.node, requests[i].node) << "request " << i;
    EXPECT_EQ(back.demand, requests[i].demand) << "request " << i;
  }
}

std::vector<serve::QueryResponse> GoldenResponses() {
  std::vector<serve::QueryResponse> out(3);
  out[0].version = 9;
  out[0].ok = true;
  out[0].server = 17;
  out[0].value = 123456789;
  out[0].distance = 55;
  out[1].version = 0x0102030405060708ull;
  out[1].stale = true;
  out[1].server = kInvalidNode;
  out[2].version = 3;
  out[2].follower = true;
  out[2].server = 2;
  out[2].value = 1;
  out[2].distance = 0xFFFFFFFFFFFFFFFFull;
  return out;
}

constexpr std::string_view kResponseGoldens[] = {
    "1d0000000900000000000000011100000015cd5b07000000003700000000000000",
    "1d000000080706050403020102ffffffff00000000000000000000000000000000",
    "1d000000030000000000000004020000000100000000000000ffffffffffffffff",
};

TEST(WireGolden, QueryResponses) {
  const auto responses = GoldenResponses();
  for (std::size_t i = 0; i < responses.size(); ++i) {
    std::vector<std::uint8_t> wire;
    serve::EncodeResponse(responses[i], wire);
    EXPECT_EQ(Hex(wire), kResponseGoldens[i]) << "response " << i;

    const std::vector<std::uint8_t> golden = UnhexBytes(kResponseGoldens[i]);
    ASSERT_EQ(golden.size(), 4 + serve::kResponseWireSize);
    const serve::QueryResponse back =
        serve::DecodeResponse({golden.data() + 4, serve::kResponseWireSize});
    EXPECT_EQ(back.version, responses[i].version) << "response " << i;
    EXPECT_EQ(back.ok, responses[i].ok) << "response " << i;
    EXPECT_EQ(back.stale, responses[i].stale) << "response " << i;
    EXPECT_EQ(back.follower, responses[i].follower) << "response " << i;
    EXPECT_EQ(back.server, responses[i].server) << "response " << i;
    EXPECT_EQ(back.value, responses[i].value) << "response " << i;
    EXPECT_EQ(back.distance, responses[i].distance) << "response " << i;
  }
}

// ---------------------------------------------------------------------------
// Replication frames: all five kinds; RECORD carries a real framed record.
// ---------------------------------------------------------------------------

std::vector<serve::ReplFrame> GoldenReplFrames() {
  std::vector<serve::ReplFrame> out(5);
  out[0].kind = serve::ReplFrameKind::kHello;
  out[0].epoch = 1;
  out[0].seq = 42;
  out[1].kind = serve::ReplFrameKind::kRecord;
  out[1].epoch = 2;
  out[1].hash = 0xDEADBEEFCAFEF00Dull;
  out[1].record = EventWal::FrameRecord(EventWal::EncodeEpochPayload(4, 3));
  out[2].kind = serve::ReplFrameKind::kAck;
  out[2].epoch = 2;
  out[2].seq = 4;
  out[3].kind = serve::ReplFrameKind::kHeartbeat;
  out[3].epoch = 3;
  out[3].seq = 0x0100000000000001ull;
  out[4].kind = serve::ReplFrameKind::kFence;
  out[4].epoch = 0x8000000000000000ull;
  return out;
}

constexpr std::string_view kReplGoldens[] = {
    "0101000000000000002a00000000000000",
    "0202000000000000000df0fecaefbeadde14000000a74e9d4b04000000000000"
    "00ffffffff0300000000000000",
    "0302000000000000000400000000000000",
    "0403000000000000000100000000000001",
    "050000000000000080",
};

TEST(WireGolden, ReplFrames) {
  const auto frames = GoldenReplFrames();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(Hex(serve::EncodeReplFrame(frames[i])), kReplGoldens[i]) << "frame " << i;

    const std::optional<serve::ReplFrame> back =
        serve::DecodeReplFrame(Unhex(kReplGoldens[i]));
    ASSERT_TRUE(back.has_value()) << "frame " << i;
    EXPECT_EQ(back->kind, frames[i].kind) << "frame " << i;
    EXPECT_EQ(back->epoch, frames[i].epoch) << "frame " << i;
    EXPECT_EQ(back->seq, frames[i].seq) << "frame " << i;
    EXPECT_EQ(back->hash, frames[i].hash) << "frame " << i;
    EXPECT_EQ(back->record, frames[i].record) << "frame " << i;
  }
}

// ---------------------------------------------------------------------------
// The outer length prefix both sockets speak, through a real socketpair.
// ---------------------------------------------------------------------------

constexpr std::string_view kNetFrameGolden =
    "110000000302000000000000000400000000000000";

TEST(WireGolden, NetFrameOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  serve::net::SetIoTimeouts(fds[1], 2000);  // a short golden fails, never hangs
  const std::string payload = serve::EncodeReplFrame(GoldenReplFrames()[2]);

  ASSERT_EQ(serve::net::SendFrame(fds[0], payload), serve::net::IoStatus::kOk);
  std::string raw(4 + payload.size(), '\0');
  ASSERT_EQ(serve::net::ReadFull(fds[1], reinterpret_cast<std::uint8_t*>(raw.data()),
                                 raw.size()),
            serve::net::IoStatus::kOk);
  EXPECT_EQ(Hex(raw), kNetFrameGolden);

  const std::string golden = Unhex(kNetFrameGolden);
  ASSERT_EQ(serve::net::WriteFull(fds[0], reinterpret_cast<const std::uint8_t*>(golden.data()),
                                  golden.size()),
            serve::net::IoStatus::kOk);
  std::string back;
  ASSERT_EQ(serve::net::RecvFrame(fds[1], back, serve::kMaxReplFrameBytes),
            serve::net::IoStatus::kOk);
  EXPECT_EQ(back, payload);
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// support/wire.hpp itself.
// ---------------------------------------------------------------------------

// An error type no library code throws, so a catch proves the exact type.
struct ProbeError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

TEST(WireReader, ReadsLittleEndianAndUnderrunThrowsItsErrorWithContext) {
  std::string bytes;
  wire::PutU8(bytes, 0xAB);
  wire::PutU32(bytes, 0x01020304u);
  wire::PutU64(bytes, 0x1122334455667788ull);
  EXPECT_EQ(Hex(bytes), "ab040302018877665544332211");
  EXPECT_EQ(wire::LoadU32(&bytes[1]), 0x01020304u);
  EXPECT_EQ(wire::LoadU64(&bytes[5]), 0x1122334455667788ull);

  wire::Reader<ProbeError> reader(bytes, "probe: payload");
  EXPECT_EQ(reader.U8(), 0xAB);
  EXPECT_EQ(reader.U32(), 0x01020304u);
  EXPECT_FALSE(reader.Exhausted());
  EXPECT_EQ(reader.U64(), 0x1122334455667788ull);
  EXPECT_TRUE(reader.Exhausted());
  try {
    (void)reader.U8();
    FAIL() << "reading past the end must throw";
  } catch (const ProbeError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("probe: payload", 0), 0u) << e.what();
  }

  // A partial field is an underrun too: 3 bytes cannot make a u32.
  wire::Reader<ProbeError> partial(std::string_view(bytes).substr(0, 4), "probe");
  (void)partial.U8();
  EXPECT_THROW((void)partial.U32(), ProbeError);
  wire::Reader<ProbeError> partial64(std::string_view(bytes).substr(6), "probe");
  EXPECT_THROW((void)partial64.U64(), ProbeError);
}

TEST(WireReader, CountRefusesWhatTheBytesLeftCannotHold) {
  std::string bytes;
  wire::PutU32(bytes, 2);  // two 4-byte items follow
  wire::PutU32(bytes, 7);
  wire::PutU32(bytes, 8);
  wire::Reader<ProbeError> fits(bytes, "probe");
  EXPECT_EQ(fits.Count(4), 2u);
  EXPECT_EQ(fits.U32(), 7u);
  EXPECT_EQ(fits.U32(), 8u);
  EXPECT_TRUE(fits.Exhausted());

  wire::Reader<ProbeError> wide(bytes, "probe");
  EXPECT_THROW((void)wide.Count(5), ProbeError);  // 2 x 5 bytes > the 8 left

  std::string huge;
  wire::PutU32(huge, 0xFFFFFFFFu);
  wire::Reader<ProbeError> empty_tail(huge, "probe: huge");
  try {
    (void)empty_tail.Count(1);
    FAIL() << "a count over the bytes left must throw";
  } catch (const ProbeError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("probe: huge", 0), 0u) << e.what();
  }
}

TEST(WireFrame, ScanReportsEachOutcome) {
  std::string frame;
  wire::AppendCrcFrame(frame, "payload", 64);
  ASSERT_EQ(frame.size(), wire::kFrameHeaderBytes + 7);
  EXPECT_EQ(Hex(frame.substr(0, 4)), "07000000");
  EXPECT_EQ(wire::LoadU32(&frame[4]), support::Crc32("payload"));

  const wire::FrameScan ok = wire::ScanCrcFrame(frame, 64);
  EXPECT_EQ(ok.status, wire::FrameStatus::kOk);
  EXPECT_EQ(ok.payload, "payload");
  // Bytes past the frame belong to the next one.
  EXPECT_EQ(wire::ScanCrcFrame(frame + "next", 64).payload, "payload");

  EXPECT_EQ(wire::ScanCrcFrame(std::string_view(frame).substr(0, 7), 64).status,
            wire::FrameStatus::kTruncated);  // header cut short
  EXPECT_EQ(wire::ScanCrcFrame(std::string_view(frame).substr(0, frame.size() - 1), 64).status,
            wire::FrameStatus::kTruncated);  // payload cut short
  EXPECT_EQ(wire::ScanCrcFrame(frame, 6).status, wire::FrameStatus::kTooLong);
  for (const std::size_t at : {std::size_t{4}, frame.size() - 1}) {
    std::string flipped = frame;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x01);  // the CRC, then the payload
    EXPECT_EQ(wire::ScanCrcFrame(flipped, 64).status, wire::FrameStatus::kBadCrc) << at;
  }

  std::string refused;
  EXPECT_THROW(wire::AppendCrcFrame(refused, "payload", 6), InternalError);
}

// ---------------------------------------------------------------------------
// CRC-valid records whose count field claims more items than their bytes
// hold: each format refuses with its own error, before any allocation that
// count would size.
// ---------------------------------------------------------------------------

void ExpectWalRefuses(const std::string& payload) {
  const std::string record = EventWal::FrameRecord(payload);
  EXPECT_THROW((void)EventWal::TryDecodeFramedRecord(record), InternalError);

  const TempDir dir;
  WriteFileBytes(dir.File("wal.log"), std::string("RPTWAL1\0", 8) + record);
  EXPECT_THROW((void)EventWal::Read(dir.File("wal.log")), InternalError);
}

TEST(WireCraftedCount, WalEventCountThrowsInternalError) {
  std::string payload;
  wire::PutU64(payload, 1);            // seq
  wire::PutU32(payload, 0xFFFFFFFEu);  // event count, one below kEpochMarker
  ExpectWalRefuses(payload);
}

TEST(WireCraftedCount, WalSpecNodeCountThrowsInternalError) {
  std::string payload;
  wire::PutU64(payload, 1);  // seq
  wire::PutU32(payload, 1);  // one event
  wire::PutU8(payload, static_cast<std::uint8_t>(UpdateEvent::Kind::kAttachSubtree));
  wire::PutU32(payload, 0);            // client
  wire::PutU64(payload, 0);            // delta
  wire::PutU64(payload, 0);            // value
  wire::PutU32(payload, 0);            // parent
  wire::PutU32(payload, 0xFFFFFFFFu);  // spec-node count
  ExpectWalRefuses(payload);
}

/// A btab file holding one record, framed exactly as EncodeBtab frames.
std::string BtabWithRecord(const std::string& record) {
  std::string body;
  wire::AppendCrcFrame(body, record, shard::kMaxBtabRecordBytes);
  std::string header;
  wire::PutU32(header, 1);  // version
  wire::PutU32(header, 1);  // record count
  wire::PutU64(header, body.size());
  std::string out(shard::kBtabMagic, sizeof(shard::kBtabMagic));
  wire::AppendCrcFrame(out, header, shard::kMaxBtabRecordBytes);
  return out + body;
}

/// The head of a fragment record: kind, cut and budget.
std::string FragmentHead() {
  std::string record;
  wire::PutU8(record, 2);   // FRAGMENT
  wire::PutU32(record, 17);  // cut
  wire::PutU64(record, 3);   // budget
  return record;
}

TEST(WireCraftedCount, BtabReplicaCountThrowsInvalidArgument) {
  std::string record = FragmentHead();
  wire::PutU32(record, 0xFFFFFFFFu);  // replica count
  EXPECT_THROW((void)shard::DecodeBtab(BtabWithRecord(record)), InvalidArgument);
}

TEST(WireCraftedCount, BtabAssignmentCountThrowsInvalidArgument) {
  std::string record = FragmentHead();
  wire::PutU32(record, 0);            // no replicas
  wire::PutU32(record, 0xFFFFFFFFu);  // assignment count
  EXPECT_THROW((void)shard::DecodeBtab(BtabWithRecord(record)), InvalidArgument);
}

TEST(WireCraftedCount, BtabForwardedCountThrowsInvalidArgument) {
  std::string record = FragmentHead();
  wire::PutU32(record, 0);            // no replicas
  wire::PutU32(record, 0);            // no assignments
  wire::PutU32(record, 0xFFFFFFFFu);  // forwarded count
  EXPECT_THROW((void)shard::DecodeBtab(BtabWithRecord(record)), InvalidArgument);
}

/// A TABLE record: demand, cost range and inv entries as given.
std::string TableRecord(std::uint64_t demand, std::uint32_t vmin, std::uint32_t vmax,
                        std::initializer_list<std::uint32_t> inv) {
  std::string record;
  wire::PutU8(record, 1);    // TABLE
  wire::PutU32(record, 17);  // cut
  wire::PutU64(record, demand);
  wire::PutU32(record, 9);  // subtree nodes
  wire::PutU64(record, 0);  // table entries
  wire::PutU64(record, 0);  // convolve cells
  wire::PutU32(record, vmin);
  wire::PutU32(record, vmax);
  for (const std::uint32_t v : inv) wire::PutU32(record, v);
  return record;
}

TEST(WireCraftedCount, BtabTableCostRangeThrowsInvalidArgument) {
  // vmax: 2^26 - 1 inv entries, none present.
  EXPECT_THROW((void)shard::DecodeBtab(BtabWithRecord(TableRecord(6, 0, (1u << 26) - 2, {}))),
               InvalidArgument);
}

// A table's demand sizes nothing: the one-entry record at the cap decodes
// into one entry, not demand + 1 (8 GiB of them).
TEST(WireCraftedCount, BtabTableAtDemandCapDecodesOneEntry) {
  const auto cap = static_cast<std::uint32_t>(shard::kMaxBtabDemand);
  const shard::BtabFile file = shard::DecodeBtab(BtabWithRecord(TableRecord(cap, 0, 0, {cap})));
  ASSERT_EQ(file.tables.size(), 1u);
  EXPECT_EQ(file.tables[0].table, multiple::NodDpEngine::InverseTable{cap});
  // Forwarding the whole demand costs nothing, so a cost range starts at 0.
  EXPECT_THROW((void)shard::DecodeBtab(BtabWithRecord(TableRecord(cap, 1, 0, {cap}))),
               InvalidArgument);
}

// The text readers grow their columns as lines arrive, so a count line that
// no lines back throws InvalidArgument instead of sizing columns by it.
TEST(WireCraftedCount, OverlaySlotCountThrowsInvalidArgument) {
  EXPECT_THROW((void)OverlayFromString("rpt-overlay v1\n4294967294\n"), InvalidArgument);
}

TEST(WireCraftedCount, TreeNodeCountThrowsInvalidArgument) {
  EXPECT_THROW((void)TreeFromString("rpt-tree v1\n1099511627776\n"), InvalidArgument);
  EXPECT_THROW((void)TreeFromString("rpt-tree v1\n4294967294\n"), InvalidArgument);
}

TEST(WireCraftedCount, BtabEncoderRefusesDemandAboveCapOrEntryAboveDemand) {
  shard::BtabFile file;
  file.tables.resize(1);
  file.tables[0].demand = shard::kMaxBtabDemand + 1;
  file.tables[0].table = {shard::kMaxBtabDemand + 1, 0};
  EXPECT_THROW((void)shard::EncodeBtab(file), InvalidArgument);
  file.tables[0].demand = 6;
  file.tables[0].table = {7, 0};  // above the demand
  EXPECT_THROW((void)shard::EncodeBtab(file), InvalidArgument);
}

}  // namespace
}  // namespace rpt
