// rpt-btab v1 — the boundary-table wire format of the sharded solve: what a
// shard worker ships back to the coordinator. One file carries any mix of
// TABLE records (phase 1: the cut subtree root's F staircase plus merge
// stats) and FRAGMENT records (phase 2: the reconstructed subtree solution
// at the assigned budget). Files are the first transport; the byte format is
// the seam for sockets later.
//
// Layout (all integers little-endian):
//   magic   8 bytes  "RPTBTAB1"
//   header  framed record: u32 version (=1) | u32 record_count | u64 body_bytes
//   body    record_count framed records
// and a framed record is
//   u32 len | u32 crc | payload[len]
// with crc = CRC-32 of the payload, written and scanned by support/wire.hpp,
// the WAL's own codec. `body_bytes` is the total framed size of the body,
// so the decoder can cross-check the walk: it must consume exactly
// record_count records and exactly body_bytes bytes and land exactly on EOF.
//
// A TABLE payload stores the staircase in the cost domain, as the DP engine
// holds it: (vmin, vmax, inv[]) with inv[c] the fewest requests the cut
// subtree forwards at cost <= c. Forwarding the whole demand costs nothing,
// so vmin is always 0 and inv[] is the engine's InverseTable entry for
// entry: the worker ships what TableOf returns and the coordinator hands
// the decoded vector to ImportLeafTable, with no conversion either way. The
// wire size is O(cost range) — at most one entry per subtree node, plus
// one — and never O(demand).
//
// Corruption contract ("prefix or loud, never wrong", same as the WAL
// corpus): DecodeBtab THROWS InvalidArgument on any damaged input — short
// magic, truncated frame, CRC mismatch, record/byte-count mismatch, payload
// that over- or under-runs its frame, trailing bytes, or any field that
// fails semantic validation. A btab is a complete artifact, not an
// append-only log: there is no "valid prefix" to salvage, so unlike the WAL
// even a torn tail refuses to load — the coordinator treats it as a failed
// worker and re-dispatches. tests/test_shard.cpp drives the
// truncate-at-every-byte and per-byte bit-flip corpora against this promise.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "model/solution.hpp"
#include "multiple/nod_dp_engine.hpp"
#include "tree/tree.hpp"

namespace rpt::shard {

/// File magic, exactly 8 bytes.
inline constexpr char kBtabMagic[8] = {'R', 'P', 'T', 'B', 'T', 'A', 'B', '1'};

/// Sanity cap on one framed record's payload (a fragment of a 10^7-node
/// shard stays well below; anything larger is a corrupt length field).
inline constexpr std::uint32_t kMaxBtabRecordBytes = 1u << 28;

/// Cap on a shipped table's demand. Every entry is at most the demand and
/// travels as a u32, so the cap keeps entries exact; nothing is sized by
/// demand.
inline constexpr std::uint64_t kMaxBtabDemand = std::uint64_t{1} << 31;

/// Phase-1 export: one cut subtree's boundary table.
struct BoundaryTable {
  NodeId cut = kInvalidNode;   ///< cut subtree root, MEGATREE (global) id
  std::uint64_t demand = 0;    ///< subtree demand, at most kMaxBtabDemand
  std::uint32_t subtree_nodes = 0;  ///< nodes in the cut subtree
  // Worker-side work counters, aggregated by the coordinator.
  std::uint64_t table_entries = 0;
  std::uint64_t convolve_cells = 0;
  multiple::NodDpEngine::InverseTable table;  ///< the cut root's F table, as TableOf returns it
};

/// Phase-2 export: one cut subtree's reconstructed solution at `budget`.
/// Node ids are LOCAL slice ids (SubtreeSlice::to_global translates); the
/// forwarded list preserves the backtrack's chain order — load-bearing, the
/// spine's replicas absorb it prefix-greedily.
struct SolutionFragment {
  NodeId cut = kInvalidNode;   ///< cut subtree root, MEGATREE (global) id
  std::uint64_t budget = 0;    ///< forwarded budget the fragment answers
  Solution solution;
  std::vector<std::pair<NodeId, Requests>> forwarded;
};

/// One decoded/encodable btab file.
struct BtabFile {
  std::vector<BoundaryTable> tables;
  std::vector<SolutionFragment> fragments;
};

/// Serializes to rpt-btab v1 bytes.
[[nodiscard]] std::string EncodeBtab(const BtabFile& file);

/// Parses rpt-btab v1 bytes; throws InvalidArgument on ANY damage (see the
/// corruption contract above).
[[nodiscard]] BtabFile DecodeBtab(std::string_view bytes);

/// Writes the encoded file to `path`; throws InvalidArgument on I/O error.
void WriteBtabFile(const std::string& path, const BtabFile& file);

/// Reads and decodes `path`; throws InvalidArgument on I/O error or damage.
[[nodiscard]] BtabFile ReadBtabFile(const std::string& path);

}  // namespace rpt::shard
