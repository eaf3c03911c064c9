// Shared plumbing of the rptbench workloads: run options, the report every
// workload fills, sample statistics, peak RSS, and the span tracer.
//
// A workload measures its end-to-end metrics with tracing off. With
// --trace 1 it first repeats that untraced measurement on half the time
// budget, then runs a traced pass on the other half: spans around each
// call into a library layer, recorded from these files only (nothing under
// src/ is instrumented). Per-layer metrics come from the traced pass, and
// the difference between the two passes is the tracing overhead.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "model/solution.hpp"
#include "tree/tree.hpp"

namespace rptbench {

/// Which instance sizes a run uses: `full` is the benchmark, `tiny` finishes
/// in seconds and exists for the benchmark's own tests.
enum class Scale { kFull, kTiny };

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  /// Names one correctness gate whose input is deliberately damaged before
  /// the compare, so the tests can show that the gate fails loudly.
  std::string corrupt;
  std::string work_dir;  ///< scratch directory for WAL, checkpoints, btabs
  std::string argv0;     ///< absolute path of this binary (shard workers)
};

/// Timed set-ups per run; setup_s is their median. Each run first makes one
/// untimed set-up, so the allocator and page cache are warm, as they are for
/// the timed window.
inline constexpr int kSetups = 7;

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. `e2e` holds the end-to-end metrics named in
/// BENCHMARK.json, `detail` the workload's own named end-to-end numbers
/// (query_qps, solve_s, nod_dp_ms, ...), `layer` the per-layer metrics of a
/// traced run, `env` the run's environment and `samples` the sample count
/// behind every percentile.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> gate_failures;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> detail;
  std::map<std::string, Metric> layer;
  std::map<std::string, std::string> env;
  std::map<std::string, std::uint64_t> samples;

  /// Records a correctness gate. A failed gate marks the run incorrect and
  /// is printed to stderr at once, so the failure is loud even if a later
  /// step crashes.
  void Gate(const std::string& name, bool ok, const std::string& detail_text = "");
};

/// `q`-quantile (0..1) by the nearest-rank rule on a copy of the samples;
/// 0 for an empty set.
[[nodiscard]] double Quantile(std::vector<double> samples, double q);
[[nodiscard]] double Median(const std::vector<double>& samples);
[[nodiscard]] double Sum(const std::vector<double>& samples);

/// Process peak resident set size (getrusage ru_maxrss), MiB.
[[nodiscard]] double PeakRssMib();

[[nodiscard]] inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Canonical-solution fingerprint (FNV-1a over replicas and assignment):
/// two solutions hash equal iff their canonical forms are byte-identical.
[[nodiscard]] std::uint64_t HashSolution(const rpt::Solution& solution);

/// One recorded span: a named interval on one thread, its parent span
/// (index into the same thread's buffer, or kNoParent) and the id of the
/// request or batch it belongs to.
struct Span {
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t parent = kNoParent;
  std::uint64_t request = 0;
};

/// Per-thread span buffer. Spans stay in memory until the run writes them
/// out at exit; nothing is shared between threads while recording.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::string thread_name) : thread_(std::move(thread_name)) {
    spans_.reserve(1u << 16);
  }
  /// Opens a span; returns its index for Close() and for children.
  std::uint32_t Open(const char* name, std::uint64_t request,
                     std::uint32_t parent = Span::kNoParent) {
    spans_.push_back(Span{name, NowNs(), 0, parent, request});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  void Close(std::uint32_t index) { spans_[index].end_ns = NowNs(); }
  [[nodiscard]] const std::vector<Span>& Spans() const noexcept { return spans_; }
  [[nodiscard]] const std::string& Thread() const noexcept { return thread_; }

 private:
  std::string thread_;
  std::vector<Span> spans_;
};

/// RAII span on a buffer.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer& buffer, const char* name, std::uint64_t request,
             std::uint32_t parent = Span::kNoParent)
      : buffer_(buffer), index_(buffer.Open(name, request, parent)) {}
  ~ScopedSpan() { buffer_.Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer& buffer_;
  std::uint32_t index_;
};

/// Durations (ms) of every span called `name` across `buffers`.
[[nodiscard]] std::vector<double> SpanMs(const std::vector<const SpanBuffer*>& buffers,
                                         const char* name);

/// Writes every span as one TSV line (thread, index, name, request, parent,
/// start_ns, end_ns, self_ns) where self time is the span's duration minus
/// the time its child spans cover. Returns the number of spans written.
std::uint64_t WriteSpans(const std::string& path,
                         const std::vector<const SpanBuffer*>& buffers);

/// A generated tree as flat per-node columns, ids ascending (every parent id
/// is below its children's). Input generation is the benchmark's own work;
/// the program under test receives these columns and builds from them.
struct TreeColumns {
  std::vector<rpt::NodeId> parent;
  std::vector<rpt::Distance> delta;
  std::vector<rpt::Requests> requests;  ///< > 0 exactly for clients
  std::vector<std::uint8_t> is_client;
};

/// Topology seed shared by every run. The topology of each workload's tree
/// is fixed; --seed draws the client demands (and the query and churn
/// streams), so runs on different seeds do comparable work and their
/// figures can be pooled.
inline constexpr std::uint64_t kTopologySeed = 1;

/// Columns of `tree` with every client's requests redrawn uniformly from
/// [min_requests, max_requests] by a generator seeded with `seed`.
[[nodiscard]] TreeColumns ColumnsOf(const rpt::Tree& tree, std::uint64_t seed,
                                    rpt::Requests min_requests, rpt::Requests max_requests);

/// Feeds the columns to a TreeBuilder and builds the tree.
[[nodiscard]] rpt::Tree BuildTree(const TreeColumns& columns);

/// The three workloads. Each fills `report`; the trace pass, when asked
/// for, also writes its spans under options.work_dir.
void RunServeMixed(const RunOptions& options, Report& report);
void RunShardSolve(const RunOptions& options, Report& report);
void RunPaperSolve(const RunOptions& options, Report& report);

}  // namespace rptbench
