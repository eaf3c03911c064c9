// The byte contract every rpt wire and file format shares: fixed-width
// little-endian integers, and the CRC-framed record
//
//   len u32 | crc u32 (CRC-32 of the payload, crc32.hpp) | payload[len]
//
// used by the event WAL, rpt-btab v1 and the replication stream. The query
// wire and the socket length prefix use the integers only. Each format keeps
// its own damage policy at the call site: ScanCrcFrame only classifies a
// frame, and Reader throws the format's own exception type.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "support/common.hpp"
#include "support/crc32.hpp"

namespace rpt::wire {

namespace detail {

template <typename T, typename Bytes>
void PutLe(Bytes& out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<typename Bytes::value_type>(v >> (8 * i)));
  }
}

template <typename T>
T LoadLe(const void* at) {
  const auto* p = static_cast<const unsigned char*>(at);
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) v |= static_cast<T>(p[i]) << (8 * i);
  return v;
}

}  // namespace detail

/// Appends `v` to `out`, low byte first. `Bytes` is std::string or
/// std::vector<std::uint8_t>.
template <typename Bytes>
void PutU8(Bytes& out, std::uint8_t v) { detail::PutLe(out, v); }
template <typename Bytes>
void PutU32(Bytes& out, std::uint32_t v) { detail::PutLe(out, v); }
template <typename Bytes>
void PutU64(Bytes& out, std::uint64_t v) { detail::PutLe(out, v); }

/// Reads the integer stored at `at`; the caller has checked the bounds.
inline std::uint32_t LoadU32(const void* at) { return detail::LoadLe<std::uint32_t>(at); }
inline std::uint64_t LoadU64(const void* at) { return detail::LoadLe<std::uint64_t>(at); }

/// Bounds-checked little-endian reader over one payload. Every failure
/// throws `Error` whose what() starts with `context`. The message is built
/// only on failure, so decode loops stay allocation-free.
template <typename Error>
class Reader {
 public:
  Reader(std::string_view bytes, const char* context) : bytes_(bytes), context_(context) {}

  std::uint8_t U8() { return Take<std::uint8_t>(); }
  std::uint32_t U32() { return Take<std::uint32_t>(); }
  std::uint64_t U64() { return Take<std::uint64_t>(); }

  /// Reads a u32 item count and checks it with CheckCount.
  std::uint32_t Count(std::size_t min_item_bytes) {
    const std::uint32_t count = U32();
    CheckCount(count, min_item_bytes);
    return count;
  }

  /// Throws unless `count` items of at least `min_item_bytes` each fit in
  /// the bytes left: a corrupt count must not size an allocation.
  void CheckCount(std::uint64_t count, std::size_t min_item_bytes) const {
    if (count > (bytes_.size() - pos_) / min_item_bytes) FailCount(count);
  }

  [[nodiscard]] bool Exhausted() const { return pos_ == bytes_.size(); }

 private:
  template <typename T>
  T Take() {
    if (bytes_.size() - pos_ < sizeof(T)) Fail("ends before its fields do");
    const T v = detail::LoadLe<T>(bytes_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }

  [[noreturn]] void Fail(const char* what) const {
    throw Error(std::string(context_) + " " + what);
  }
  [[noreturn]] void FailCount(std::uint64_t count) const {
    throw Error(std::string(context_) + " count " + std::to_string(count) +
                " exceeds the bytes left");
  }

  std::string_view bytes_;
  const char* context_;
  std::size_t pos_ = 0;
};

inline constexpr std::size_t kFrameHeaderBytes = 8;  ///< len u32 + crc u32

/// Appends one `len | crc | payload` record. A payload over `max_len` is a
/// writer bug: the matching ScanCrcFrame would refuse it.
inline void AppendCrcFrame(std::string& out, std::string_view payload, std::uint32_t max_len) {
  RPT_CHECK(payload.size() <= max_len);
  PutU32(out, static_cast<std::uint32_t>(payload.size()));
  PutU32(out, support::Crc32(payload));
  out.append(payload);
}

enum class FrameStatus { kOk, kTruncated, kTooLong, kBadCrc };

struct FrameScan {
  FrameStatus status = FrameStatus::kTruncated;
  std::string_view payload;  ///< views `bytes`; set only when kOk
};

/// Classifies the record that starts at `bytes[0]`: kTruncated when its
/// header or payload runs past the end of `bytes`, kTooLong when its len
/// exceeds `max_len`, kBadCrc when the payload fails its CRC.
inline FrameScan ScanCrcFrame(std::string_view bytes, std::uint32_t max_len) {
  if (bytes.size() < kFrameHeaderBytes) return {FrameStatus::kTruncated, {}};
  const std::uint32_t len = LoadU32(bytes.data());
  if (len > max_len) return {FrameStatus::kTooLong, {}};
  if (bytes.size() - kFrameHeaderBytes < len) return {FrameStatus::kTruncated, {}};
  const std::string_view payload = bytes.substr(kFrameHeaderBytes, len);
  if (support::Crc32(payload) != LoadU32(bytes.data() + 4)) return {FrameStatus::kBadCrc, {}};
  return {FrameStatus::kOk, payload};
}

}  // namespace rpt::wire
