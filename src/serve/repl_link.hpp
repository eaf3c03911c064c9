// Replicated serving: primary→follower WAL shipping with epoch-fenced
// failover.
//
// PR 8 made one ServeHarness crash-safe; this layer makes the SERVICE
// survive host loss. A primary streams the exact CRC-framed records its
// EventWal commits (event_wal.hpp — len u32 | crc u32 | payload) to any
// number of followers, each of which log-then-applies the record through
// its OWN durable ServeHarness (so a follower is itself crash-safe, cuts
// its own checkpoints, and serves reads with QueryResponse::follower set)
// and acks per seq. The wire format doubling as the WAL format is the
// point: what ships is what recovers, one codec, one corruption corpus —
// and the record stream is the seam a sharded multi-machine deployment
// would ship between shards.
//
// ## Frame protocol
//
// Replication frames ride the same outer framing as the query wire (4-byte
// LE length prefix, net_util.hpp), payloads little-endian:
//
//   HELLO      u8=1 | epoch u64 | last_seq u64     follower → primary
//   RECORD     u8=2 | epoch u64 | hash u64 | framed WAL record bytes
//   ACK        u8=3 | epoch u64 | seq u64          follower → primary
//   HEARTBEAT  u8=4 | epoch u64 | watermark u64    primary → follower
//   FENCE      u8=5 | epoch u64                    follower → primary
//
// HELLO both opens a subscription and requests a resync: the primary
// (re)ships every retained record past `last_seq`. RECORD carries the
// primary's post-apply snapshot CanonicalHash so the follower can verify
// BYTE-level agreement after every applied record — divergence is a loud
// InternalError, never a silent fork. ACKs drive the primary's replication
// watermark: the largest seq every connected follower has durably applied.
// An acked write is on >= 2 disks; failover loses nothing at or below the
// watermark.
//
// ## Epoch fencing (split-brain prevention)
//
// Every harness carries a monotonic epoch (ServeHarness::Epoch, starts
// at 1); every replication frame carries its sender's epoch. A follower
// that misses heartbeats for its configured window promotes: it bumps the
// epoch THROUGH ITS WAL (AdoptEpoch writes a durable epoch record before
// the new epoch is visible — a promoted follower that crashes recovers
// still promoted), flips off the follower status bit, and serves writes.
// From then on any frame carrying a LOWER epoch is answered with FENCE and
// never applied — counted by StaleEpochRejections(). A primary that
// receives FENCE sets Fenced() and every subsequent Apply() throws
// InternalError: the deposed primary is loudly rejected, it cannot split
// the brain. Frames carrying a HIGHER epoch are accepted (the sender is
// the newer primary; our epoch catches up when its epoch record applies).
//
// ## Degraded-mode matrix
//
//   primary alone      no followers connected; watermark 0; serves rw
//   replicating        followers acking; watermark advances; followers
//                      serve reads with the follower bit
//   partitioned        frames dropped (repl.partition); primary still
//                      serves rw but the watermark stalls and Apply()
//                      reports not-all-acked; follower serves stale reads
//                      until its heartbeat window expires
//   promoted           follower bumped the epoch and serves rw; the old
//                      primary is fenced on first contact after heal
//
// ## Fault injection
//
// Every replication frame (both directions) leaves through FaultySender,
// which consults the failpoints repl.partition (sticky: drop everything
// until healed), repl.link.drop / .dup / .reorder (one-shot frame faults)
// and repl.link.delay (kDelay). Drops and reorders surface as seq gaps on
// the receiver: the follower answers with a fresh HELLO and the primary
// re-ships — retry or loud, never divergent (tests/test_repl.cpp runs the
// same truncate-at-every-byte / bit-flip corpus as the WAL).
//
// ## Catch-up scope
//
// The primary retains every record it has shipped since Start() in memory
// (base seq = its harness seq at Start). A HELLO below the retained range
// is refused loudly — bootstrap-from-checkpoint transfer is future work;
// start followers before traffic or restart them with their own durable
// state intact.
//
// Threading: ReplPrimary::Apply is update-thread-only (same contract as
// ServeHarness::ApplyAndPublish); acks/fences arrive on per-connection
// reader threads, run by a ConnServer (conn_server.hpp) that joins each one
// once its connection ends. The follower applies records on its single link
// thread, which is also the only thread that promotes — queries stay
// wait-free on both sides.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "serve/conn_server.hpp"
#include "serve/event_wal.hpp"
#include "serve/serve_harness.hpp"

namespace rpt::serve {

/// Replication frame kinds (payload byte 0).
enum class ReplFrameKind : std::uint8_t {
  kHello = 1,
  kRecord = 2,
  kAck = 3,
  kHeartbeat = 4,
  kFence = 5,
};

/// A RECORD frame can carry one maximal WAL record plus the header.
inline constexpr std::uint32_t kMaxReplFrameBytes = kMaxWalRecordBytes + 64;

/// One decoded replication frame (the union of all five payloads).
struct ReplFrame {
  ReplFrameKind kind = ReplFrameKind::kHello;
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;       ///< HELLO last_seq / ACK seq / HEARTBEAT watermark
  std::uint64_t hash = 0;      ///< RECORD only: sender's post-apply snapshot hash
  std::string record;          ///< RECORD only: framed WAL record bytes
};

/// Encodes/decodes replication frame payloads (without the outer length
/// prefix). Decode returns nullopt on a structurally broken payload — the
/// link treats that like a dropped frame (resync), not a crash.
[[nodiscard]] std::string EncodeReplFrame(const ReplFrame& frame);
[[nodiscard]] std::optional<ReplFrame> DecodeReplFrame(const std::string& payload);

/// Sends frames through the link-fault failpoints (header note). One per
/// connection and direction; serializes concurrent senders.
class FaultySender {
 public:
  explicit FaultySender(int fd) : fd_(fd) {}

  /// Frames the payload and sends it, subject to armed faults. A dropped
  /// frame reports true (the sender cannot tell — that is the fault).
  bool Send(const std::string& payload);

 private:
  int fd_;
  std::mutex mu_;
  std::string held_;  // repl.link.reorder parks one frame here
  bool has_held_ = false;
};

/// The follower's socket-free record state machine: everything between
/// "a RECORD frame arrived" and "ack / resync / fence", exposed so the
/// corruption-corpus tests can drive it with damaged bytes directly.
class FollowerCore {
 public:
  explicit FollowerCore(ServeHarness& harness) : harness_(harness) {}

  enum class Outcome {
    kApplied,    ///< logged + applied (or deterministically re-rejected); ack it
    kDuplicate,  ///< seq already durable here; re-ack, apply nothing
    kResync,     ///< damaged or out-of-order record; answer with HELLO
    kFenced,     ///< sender's epoch is stale; answer with FENCE
  };

  /// Processes one shipped record. Throws InternalError on divergence
  /// (the applied state's CanonicalHash differs from the primary's) and on
  /// valid-CRC-but-unparseable payloads — the never-divergent contract is
  /// "retry or loud".
  Outcome OnRecord(std::uint64_t sender_epoch, std::uint64_t expected_hash,
                   const std::string& record_bytes);

  // Counters are atomics: OnRecord runs on the link thread while tests and
  // drivers poll from theirs.
  [[nodiscard]] std::uint64_t Applied() const noexcept {
    return applied_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t Duplicates() const noexcept {
    return duplicates_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t Resyncs() const noexcept {
    return resyncs_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t StaleEpochRejections() const noexcept {
    return fenced_.load(std::memory_order_relaxed);
  }

 private:
  ServeHarness& harness_;
  std::atomic<std::uint64_t> applied_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> resyncs_{0};
  std::atomic<std::uint64_t> fenced_{0};
};

struct ReplPrimaryOptions {
  int io_timeout_ms = 5000;    ///< per-connection socket op bound
  /// Apply() waits this long for every connected follower to ack the new
  /// seq before reporting replication lag (it never blocks the local
  /// commit). 0 = fire-and-forget shipping.
  int ack_wait_ms = 2000;
};

/// Primary side: wraps the local (durable) harness, accepts follower
/// subscriptions, ships every applied batch, tracks the watermark, and
/// turns an incoming FENCE into a hard stop for local writes.
class ReplPrimary {
 public:
  /// `harness` must be durable (the follower replays OUR wal records; a
  /// primary that does not log has nothing to ship — throws
  /// InvalidArgument otherwise) and must outlive the primary.
  explicit ReplPrimary(ServeHarness& harness, ReplPrimaryOptions options = {});

  /// Binds 127.0.0.1:`port` (0 = free port) and starts accepting follower
  /// subscriptions.
  void Start(std::uint16_t port = 0);
  void Stop() { server_.Stop(); }
  [[nodiscard]] std::uint16_t Port() const noexcept { return server_.Port(); }

  /// Applies one batch locally (through the harness — logged, applied,
  /// published, checkpointed) and ships the committed record to every
  /// connected follower. Returns true when every currently-connected
  /// follower acked within ack_wait_ms (false = replication lag or
  /// partition; the LOCAL commit succeeded either way). Throws
  /// InvalidArgument on a rejected batch (still logged AND still shipped —
  /// followers must consume the seq) and InternalError once fenced.
  /// Update thread only.
  bool Apply(std::span<const incremental::UpdateEvent> events);

  /// Sends one heartbeat to every connected follower now (the tests drive
  /// heartbeats manually for determinism; a service would call this from a
  /// timer loop, e.g. examples/rpt_serve.cpp's).
  void Heartbeat();

  /// Largest seq every connected follower has acked (0 with no follower
  /// ever connected). Any thread.
  [[nodiscard]] std::uint64_t Watermark() const;

  /// Followers currently subscribed. Any thread.
  [[nodiscard]] int Followers() const;

  /// Blocks until `count` followers are subscribed or `timeout_ms` passes.
  [[nodiscard]] bool WaitForFollowers(int count, int timeout_ms);

  /// True once any follower answered FENCE: a higher epoch exists and this
  /// primary must stop writing. Any thread.
  [[nodiscard]] bool Fenced() const noexcept {
    return fenced_.load(std::memory_order_acquire);
  }
  /// The epoch that fenced us (0 when not fenced).
  [[nodiscard]] std::uint64_t FencedBy() const noexcept {
    return fenced_by_.load(std::memory_order_acquire);
  }

 private:
  struct FollowerConn;
  void ServeFollower(int fd);
  void ShipRetainedFrom(FollowerConn& conn, std::uint64_t after_seq);
  void BroadcastRecord(const std::string& frame_payload, std::uint64_t seq);

  ServeHarness& harness_;
  ReplPrimaryOptions options_;

  /// One retained RECORD payload (already repl-frame-encoded). Retention
  /// is append-only and seq-tagged: catch-up scans for seq > HELLO's
  /// last_seq, so a seq the primary consumed but could not ship (a
  /// durability error mid-apply) leaves a hole rather than corrupting the
  /// index.
  struct Retained {
    std::uint64_t seq;
    std::string payload;
  };

  mutable std::mutex mu_;  // guards conns_, retained_, watermark bookkeeping
  mutable std::condition_variable cv_;  // ack + subscription progress
  std::vector<FollowerConn*> conns_;    // subscribed live connections
  std::vector<Retained> retained_;
  std::uint64_t base_seq_ = 0;
  std::uint64_t watermark_ = 0;

  std::atomic<bool> fenced_{false};
  std::atomic<std::uint64_t> fenced_by_{0};
  // Last: destroyed first, so its Stop() joins every handler while the
  // members above are still alive.
  ConnServer server_;
};

struct ReplFollowerOptions {
  int connect_timeout_ms = 2000;
  /// Read-loop tick: bounds how often the link thread wakes to check the
  /// heartbeat window even when the wire is silent.
  int io_timeout_ms = 100;
  /// Auto-promote after this long without a heartbeat (or a live
  /// connection). 0 = never auto-promote; tests then call Promote().
  int heartbeat_timeout_ms = 0;
  /// Pause between reconnect attempts while the primary is unreachable.
  int reconnect_backoff_ms = 50;
};

/// Follower side: subscribes to a primary, log-then-applies every shipped
/// record through the local durable harness, acks, and watches the
/// heartbeat clock for failover.
class ReplFollower {
 public:
  /// `harness` must be durable and must outlive the follower. Marks it as
  /// a follower (query responses carry the follower bit) until promotion.
  ReplFollower(ServeHarness& harness, std::uint16_t primary_port,
               ReplFollowerOptions options = {});
  ReplFollower(const ReplFollower&) = delete;
  ReplFollower& operator=(const ReplFollower&) = delete;
  ~ReplFollower();

  /// Connects (throws on failure — a follower that never saw its primary
  /// is a config error, not a failover) and starts the link thread.
  void Start();
  void Stop();

  /// Promotes now: durably bumps the epoch, drops the follower bit, keeps
  /// the link thread alive in fence mode (so the deposed primary's next
  /// frame gets FENCEd). Idempotent. Any thread — but the caller must be
  /// (or synchronize with) the one that will drive writes afterwards.
  void Promote();

  [[nodiscard]] bool Promoted() const noexcept {
    return promoted_.load(std::memory_order_acquire);
  }

  /// Blocks until the local harness has durably applied `seq` or
  /// `timeout_ms` passes. Test/driver helper.
  [[nodiscard]] bool WaitForSeq(std::uint64_t seq, int timeout_ms);

  [[nodiscard]] std::uint64_t StaleEpochRejections() const;
  [[nodiscard]] const FollowerCore& Core() const noexcept { return core_; }

 private:
  void LinkLoop();
  bool TryConnect();
  void HandleFrame(const std::string& payload);
  /// Sends a HELLO, ACK or FENCE stamped with this harness's epoch and
  /// durable seq.
  void SendControl(ReplFrameKind kind);
  void MaybePromoteOnSilence();

  ServeHarness& harness_;
  FollowerCore core_;
  std::uint16_t primary_port_;
  ReplFollowerOptions options_;
  // Written under fd_mu_ by the link thread (and Start); Stop() shuts it
  // down under fd_mu_, so never after the link thread closed the number and
  // another socket in the process may have been given it.
  std::mutex fd_mu_;
  int fd_ = -1;
  std::unique_ptr<FaultySender> sender_;
  std::atomic<bool> running_{false};
  std::atomic<bool> promoted_{false};
  std::thread link_thread_;
  std::mutex promote_mu_;  // serializes Promote() against the link thread
  std::chrono::steady_clock::time_point last_heartbeat_;

  // WaitForSeq mirror: the link thread publishes the harness's durable seq
  // here after every apply (LastDurableSeq itself is update-thread-only;
  // the mutex also orders the harness state for whoever WaitForSeq wakes).
  mutable std::mutex seq_mu_;
  mutable std::condition_variable seq_cv_;
  std::uint64_t applied_seq_ = 0;
};

}  // namespace rpt::serve
