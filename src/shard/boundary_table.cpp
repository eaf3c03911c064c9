#include "shard/boundary_table.hpp"

#include <fstream>
#include <sstream>

#include "support/common.hpp"
#include "support/wire.hpp"

namespace rpt::shard {

namespace {

constexpr std::size_t kMagicBytes = sizeof(kBtabMagic);
constexpr std::uint8_t kKindTable = 1;
constexpr std::uint8_t kKindFragment = 2;
constexpr std::uint32_t kBtabVersion = 1;

// Every decode failure — underrun, overrun, bad field — is InvalidArgument:
// a btab either loads exactly or loudly refuses, there is no partial result
// to hand back.
using Reader = wire::Reader<InvalidArgument>;

[[noreturn]] void Fail(const std::string& what) {
  throw InvalidArgument("rpt-btab: " + what);
}

std::string EncodeTablePayload(const BoundaryTable& table) {
  RPT_REQUIRE(!table.table.empty(), "rpt-btab: table needs an entry");
  RPT_REQUIRE(table.demand <= kMaxBtabDemand, "rpt-btab: table demand exceeds the sanity cap");
  std::string payload;
  wire::PutU8(payload, kKindTable);
  wire::PutU32(payload, table.cut);
  wire::PutU64(payload, table.demand);
  wire::PutU32(payload, table.subtree_nodes);
  wire::PutU64(payload, table.table_entries);
  wire::PutU64(payload, table.convolve_cells);
  wire::PutU32(payload, 0);  // vmin: forwarding the whole demand costs nothing
  wire::PutU32(payload, static_cast<std::uint32_t>(table.table.size() - 1));  // vmax
  for (const Requests v : table.table) {
    RPT_REQUIRE(v <= table.demand, "rpt-btab: table entry exceeds the demand");
    wire::PutU32(payload, static_cast<std::uint32_t>(v));
  }
  return payload;
}

void DecodeTablePayload(Reader& cur, BtabFile& file) {
  BoundaryTable table;
  table.cut = cur.U32();
  table.demand = cur.U64();
  if (table.demand > kMaxBtabDemand) Fail("table demand exceeds the sanity cap");
  table.subtree_nodes = cur.U32();
  table.table_entries = cur.U64();
  table.convolve_cells = cur.U64();
  if (cur.U32() != 0) Fail("table cost range does not start at 0");  // vmin
  const std::uint32_t vmax = cur.U32();
  cur.CheckCount(std::uint64_t{vmax} + 1, 4);  // inv[] is u32s
  table.table.resize(std::size_t{vmax} + 1);
  for (std::size_t c = 0; c < table.table.size(); ++c) {
    table.table[c] = cur.U32();
    if (table.table[c] > table.demand) Fail("table entry exceeds the demand");
    if (c > 0 && table.table[c] > table.table[c - 1]) Fail("table staircase is not monotone");
  }
  if (!cur.Exhausted()) Fail("table payload overruns its fields");
  file.tables.push_back(std::move(table));
}

std::string EncodeFragmentPayload(const SolutionFragment& fragment) {
  std::string payload;
  wire::PutU8(payload, kKindFragment);
  wire::PutU32(payload, fragment.cut);
  wire::PutU64(payload, fragment.budget);
  wire::PutU32(payload, static_cast<std::uint32_t>(fragment.solution.replicas.size()));
  for (const NodeId replica : fragment.solution.replicas) wire::PutU32(payload, replica);
  wire::PutU32(payload, static_cast<std::uint32_t>(fragment.solution.assignment.size()));
  for (const ServiceEntry& entry : fragment.solution.assignment) {
    wire::PutU32(payload, entry.client);
    wire::PutU32(payload, entry.server);
    wire::PutU64(payload, entry.amount);
  }
  wire::PutU32(payload, static_cast<std::uint32_t>(fragment.forwarded.size()));
  for (const auto& [client, amount] : fragment.forwarded) {
    wire::PutU32(payload, client);
    wire::PutU64(payload, amount);
  }
  return payload;
}

void DecodeFragmentPayload(Reader& cur, BtabFile& file) {
  SolutionFragment fragment;
  fragment.cut = cur.U32();
  fragment.budget = cur.U64();
  const std::uint32_t replica_count = cur.Count(4);  // replica u32
  fragment.solution.replicas.reserve(replica_count);
  for (std::uint32_t i = 0; i < replica_count; ++i) {
    fragment.solution.replicas.push_back(cur.U32());
  }
  const std::uint32_t entry_count = cur.Count(16);  // client u32 | server u32 | amount u64
  fragment.solution.assignment.reserve(entry_count);
  for (std::uint32_t i = 0; i < entry_count; ++i) {
    ServiceEntry entry;
    entry.client = cur.U32();
    entry.server = cur.U32();
    entry.amount = cur.U64();
    fragment.solution.assignment.push_back(entry);
  }
  const std::uint32_t fwd_count = cur.Count(12);  // client u32 | amount u64
  fragment.forwarded.reserve(fwd_count);
  for (std::uint32_t i = 0; i < fwd_count; ++i) {
    const NodeId client = cur.U32();
    const Requests amount = cur.U64();
    fragment.forwarded.emplace_back(client, amount);
  }
  if (!cur.Exhausted()) Fail("fragment payload overruns its fields");
  file.fragments.push_back(std::move(fragment));
}

}  // namespace

std::string EncodeBtab(const BtabFile& file) {
  std::string body;
  for (const BoundaryTable& table : file.tables) {
    wire::AppendCrcFrame(body, EncodeTablePayload(table), kMaxBtabRecordBytes);
  }
  for (const SolutionFragment& fragment : file.fragments) {
    wire::AppendCrcFrame(body, EncodeFragmentPayload(fragment), kMaxBtabRecordBytes);
  }

  std::string header;
  wire::PutU32(header, kBtabVersion);
  wire::PutU32(header, static_cast<std::uint32_t>(file.tables.size() + file.fragments.size()));
  wire::PutU64(header, body.size());

  std::string out(kBtabMagic, kMagicBytes);
  wire::AppendCrcFrame(out, header, kMaxBtabRecordBytes);
  out.append(body);
  return out;
}

BtabFile DecodeBtab(std::string_view bytes) {
  if (bytes.size() < kMagicBytes || bytes.compare(0, kMagicBytes, kBtabMagic, kMagicBytes) != 0) {
    Fail("bad magic");
  }
  std::size_t pos = kMagicBytes;
  const auto read_frame = [&](const char* what) -> std::string_view {
    const wire::FrameScan scan = wire::ScanCrcFrame(bytes.substr(pos), kMaxBtabRecordBytes);
    switch (scan.status) {
      case wire::FrameStatus::kOk: break;
      case wire::FrameStatus::kTruncated: Fail(std::string(what) + " frame is truncated");
      case wire::FrameStatus::kTooLong: Fail(std::string(what) + " frame length is implausible");
      case wire::FrameStatus::kBadCrc: Fail(std::string(what) + " payload fails its CRC");
    }
    pos += wire::kFrameHeaderBytes + scan.payload.size();
    return scan.payload;
  };

  const std::string_view header = read_frame("header");
  Reader head(header, "rpt-btab: header payload");
  const std::uint32_t version = head.U32();
  if (version != kBtabVersion) Fail("unsupported version");
  const std::uint32_t record_count = head.U32();
  const std::uint64_t body_bytes = head.U64();
  if (!head.Exhausted()) Fail("header payload overruns its fields");
  if (bytes.size() - pos != body_bytes) Fail("body byte count does not match the header");

  BtabFile file;
  for (std::uint32_t i = 0; i < record_count; ++i) {
    const std::string_view payload = read_frame("record");
    if (payload.empty()) Fail("record payload is empty");
    Reader cur(payload, "rpt-btab: record payload");
    const std::uint8_t kind = cur.U8();
    if (kind == kKindTable) {
      DecodeTablePayload(cur, file);
    } else if (kind == kKindFragment) {
      DecodeFragmentPayload(cur, file);
    } else {
      Fail("unknown record kind");
    }
  }
  if (pos != bytes.size()) Fail("trailing bytes after the last record");
  return file;
}

void WriteBtabFile(const std::string& path, const BtabFile& file) {
  const std::string bytes = EncodeBtab(file);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  RPT_REQUIRE(os.good(), "rpt-btab: cannot open for writing: " + path);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  os.flush();
  RPT_REQUIRE(os.good(), "rpt-btab: write failed: " + path);
}

BtabFile ReadBtabFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  RPT_REQUIRE(is.good(), "rpt-btab: cannot open for reading: " + path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  RPT_REQUIRE(!is.bad(), "rpt-btab: read failed: " + path);
  return DecodeBtab(buffer.str());
}

}  // namespace rpt::shard
