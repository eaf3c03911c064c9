// Batch experiment engine: runs a set of (instance-generator × solver × seed)
// cells across all hardware threads and aggregates the outcomes.
//
// Every sweep-style experiment in bench/ and examples/ is a grid of
// independent solver invocations; BatchRunner is the shared engine that
// executes such a grid on a ThreadPool and produces a deterministic
// report. Determinism contract: the aggregate report (costs, feasibility,
// error counts, metric and ratio statistics — everything except wall-clock
// timing) is bit-identical regardless of thread count, because per-cell
// seeds are derived from the cell itself (never from execution order) and
// aggregation runs over the cell list in submission order after all workers
// finish.
//
// Exception isolation: a cell whose generator, solver, or metric hook throws
// is recorded as an error in its CellResult; the remaining cells still run.
//
// Beyond plain sweeps the runner supports:
//  * custom per-cell metrics — named hooks evaluated after the solve, whose
//    values aggregate into named StatAccumulator columns of the GroupReport
//    (and the JSON/CSV output);
//  * paired comparison sweeps — several solvers run on the *identical*
//    instance per seed, with per-seed ratio/gap statistics (RatioStat)
//    aggregated against the first solver as baseline. This is what the
//    tightness/gap/optimality benches need: "algorithm A vs algorithm B on
//    the same tree", not just two independent sweeps.
//
// Ownership: the runner owns its cells and results; Run() owns a ThreadPool
// for its duration (created per call, joined before it returns). Every
// cell exists before the run and none spawns another, so its workers just
// claim cell indices from one shared atomic cursor, last cell first. Pool
// workers are marked as such, so intra-solver parallelism inside cells
// degrades to inline instead of oversubscribing. Generators,
// solvers, and metric hooks are std::functions owned by the cell — anything
// they capture by reference must outlive Run().
//
// Thread-safety: build the batch (Add/AddSweep/AddComparisonSweep) from one
// thread, then call Run() once; cells execute concurrently, so hooks must
// not share mutable state across cells (per-cell shared_ptr caches are the
// sanctioned pattern, see surge_replay). BatchReport is immutable after
// Run() and safe to read from any thread.
//
// Determinism: see the contract above — everything in the JSON report
// except wall time is bit-identical for any --threads value, which
// scripts/bench_smoke.sh enforces byte-for-byte in CI.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "model/instance.hpp"
#include "support/cli.hpp"
#include "support/stats.hpp"

namespace rpt::runner {

/// Deterministically mixes a base seed and a cell index into an independent
/// per-cell seed (splitmix64-style). Thread-count independent by design.
[[nodiscard]] std::uint64_t DeriveSeed(std::uint64_t base_seed, std::uint64_t index) noexcept;

/// A named per-cell metric: evaluated after the solve on the worker thread,
/// its value flows into a StatAccumulator column of the cell's GroupReport.
/// Returning NaN skips the sample for that cell (e.g. "ratio vs lower bound"
/// when the bound is zero). The hook must be deterministic in its inputs —
/// its values are part of the thread-count-invariant report.
struct Metric {
  std::string name;
  std::function<double(const Instance&, const core::RunResult&)> fn;
};

/// One experiment cell: build an instance from a seed, solve it.
struct Cell {
  /// Aggregation key; cells sharing a group are summarized together.
  std::string group;
  /// Deterministic instance factory: same seed must yield the same instance.
  std::function<Instance(std::uint64_t seed)> make_instance;
  /// Solver under test; use SolveWith() for registry algorithms.
  std::function<core::RunResult(const Instance&)> solve;
  /// Seed passed to make_instance (see DeriveSeed for sweeps).
  std::uint64_t seed = 0;
  /// Custom metrics evaluated on (instance, run result) after the solve.
  std::vector<Metric> metrics;
  /// Timing/metric-only cell: the solve produces no solution to validate
  /// (e.g. the tree-build kernel), so the feasibility/cost/validation
  /// columns are meaningless and are suppressed in every report format.
  /// All cells of a group must agree on this flag.
  bool metric_only = false;
};

/// Adapts a registry algorithm to a Cell solve function (runs core::Run).
[[nodiscard]] std::function<core::RunResult(const Instance&)> SolveWith(core::Algorithm algorithm);

/// A solver with a display name, for comparison sweeps. The name becomes the
/// group suffix ("<group>/<name>") and the label in RatioStat.
struct NamedSolver {
  std::string name;
  std::function<core::RunResult(const Instance&)> solve;
};

/// Outcome of one cell, in submission order.
struct CellResult {
  std::string group;
  std::uint64_t seed = 0;
  bool ok = false;            ///< generator, solver and metrics completed without throwing
  std::string error;          ///< exception message when !ok
  bool feasible = false;      ///< solver produced a solution
  bool validation_ok = false; ///< independent validation passed
  std::uint64_t cost = 0;     ///< replica count (0 when infeasible)
  double elapsed_ms = 0.0;    ///< solve wall time (nondeterministic)
  std::vector<double> metric_values;  ///< parallel to Cell::metrics (NaN = skipped)
};

/// A named aggregate column (one per Metric name used in a group).
struct NamedStat {
  std::string name;
  StatAccumulator stat;
};

/// Per-seed paired statistics of one solver against the comparison baseline.
/// "Cost" is the replica count; smaller is better throughout.
struct RatioStat {
  std::string numerator;    ///< solver under comparison
  std::string denominator;  ///< the baseline (first solver of the sweep)
  std::uint64_t pairs = 0;  ///< seeds where both solvers produced a solution
  std::uint64_t ties = 0;   ///< pairs with equal cost
  std::uint64_t wins = 0;   ///< pairs where the numerator was strictly cheaper
  StatAccumulator ratio;    ///< num/den over pairs with den > 0
  StatAccumulator diff;     ///< num - den (signed), over all pairs
};

/// Aggregate over all cells of one group.
struct GroupReport {
  std::string group;
  std::uint64_t cells = 0;
  std::uint64_t errors = 0;               ///< cells that threw
  bool metric_only = false;    ///< timing/metric group: no solution columns
  std::uint64_t feasible = 0;             ///< cells with a solution
  std::uint64_t validation_failures = 0;  ///< feasible cells failing validation
  StatAccumulator cost;        ///< over feasible cells
  StatAccumulator elapsed_ms;  ///< over non-error cells (nondeterministic)
  std::vector<NamedStat> metrics;  ///< custom metric columns, first-seen order

  /// Looks up a metric column by name; nullptr when absent.
  [[nodiscard]] const StatAccumulator* FindMetric(std::string_view name) const noexcept;
};

/// Aggregate of one comparison sweep: every solver paired against the first.
struct ComparisonReport {
  std::string group;                        ///< the sweep's base group name
  std::vector<std::string> solver_groups;   ///< "<group>/<solver>" per solver
  std::vector<RatioStat> ratios;            ///< solver k (k >= 1) vs solver 0

  /// Looks up the RatioStat whose numerator is `solver`; nullptr when absent.
  [[nodiscard]] const RatioStat* FindRatio(std::string_view solver) const noexcept;
};

/// Aggregated batch outcome. Groups appear in first-submission order.
class BatchReport {
 public:
  [[nodiscard]] const std::vector<GroupReport>& Groups() const noexcept { return groups_; }
  [[nodiscard]] const GroupReport* FindGroup(std::string_view group) const noexcept;
  [[nodiscard]] const std::vector<ComparisonReport>& Comparisons() const noexcept {
    return comparisons_;
  }
  [[nodiscard]] const ComparisonReport* FindComparison(std::string_view group) const noexcept;
  [[nodiscard]] std::uint64_t TotalCells() const noexcept;
  [[nodiscard]] std::uint64_t TotalErrors() const noexcept;
  [[nodiscard]] std::uint64_t TotalValidationFailures() const noexcept;

  /// True iff no cell threw and no produced solution failed validation —
  /// the condition batch-backed binaries should gate their exit code on.
  [[nodiscard]] bool AllOk() const noexcept {
    return TotalErrors() == 0 && TotalValidationFailures() == 0;
  }

  /// Writes the report as JSON (group aggregates, metric columns, and
  /// comparison ratio stats). Timing stats are excluded by default so the
  /// output is bit-identical across runs and thread counts. All strings are
  /// JSON-escaped, so group/solver/metric names may contain any characters.
  /// `extra_json`, when non-empty, must be one or more complete top-level
  /// members (e.g. "\"thread_sweep\":{...}", already escaped by the caller)
  /// and is spliced verbatim before the closing brace.
  void WriteJson(std::ostream& os, bool include_timing = false,
                 std::string_view extra_json = {}) const;
  [[nodiscard]] std::string ToJson(bool include_timing = false,
                                   std::string_view extra_json = {}) const;

  /// Writes the JSON report to a file; throws InvalidArgument on I/O error.
  void WriteJsonFile(const std::string& path, bool include_timing = false,
                     std::string_view extra_json = {}) const;

  /// Writes one CSV row per group (timing columns included when asked).
  /// Custom metric columns are the union over groups (empty when a group
  /// lacks the metric); fields are RFC-4180 quoted when needed.
  void WriteCsv(std::ostream& os, bool include_timing = true) const;

  /// Prints an aligned ASCII summary (with timing) for stdout: the group
  /// table, followed by a paired-comparison table when comparisons exist.
  void PrintAscii(std::ostream& os) const;

 private:
  friend class BatchRunner;
  std::vector<GroupReport> groups_;
  std::vector<ComparisonReport> comparisons_;
};

/// Declares the standard `--json <path>` flag every batch-backed binary
/// shares (pairs with WriteJsonIfRequested).
void AddJsonFlag(Cli& cli);

/// Writes the deterministic report to the path given via --json (no-op when
/// the flag is empty) and prints a confirmation line to `os`.
void WriteJsonIfRequested(const Cli& cli, const BatchReport& report, std::ostream& os);

/// Execution options.
struct BatchOptions {
  /// Worker threads; 0 means hardware concurrency.
  std::size_t threads = 0;
};

/// Collects cells, runs them on a thread pool, aggregates.
class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options = {});

  /// Adds one cell.
  void Add(Cell cell);

  /// Adds `seed_count` cells for the same group/generator/solver, with
  /// per-cell seeds DeriveSeed(base_seed, 0..seed_count-1). The optional
  /// metrics are attached to every cell; `metric_only` marks the whole
  /// sweep as a timing/metric group (see Cell::metric_only).
  void AddSweep(std::string group, std::function<Instance(std::uint64_t)> make_instance,
                std::function<core::RunResult(const Instance&)> solve, std::uint64_t base_seed,
                std::size_t seed_count, std::vector<Metric> metrics = {},
                bool metric_only = false);

  /// Adds a paired comparison sweep: for each of `seed_count` derived seeds,
  /// every solver runs on the *identical* instance (same derived seed fed to
  /// make_instance). Each solver aggregates under "<group>/<solver name>",
  /// and the report gains a ComparisonReport with per-seed ratio/gap stats
  /// of every solver against the first (the baseline). Solver names must be
  /// non-empty and distinct. The optional metrics attach to every cell.
  void AddComparisonSweep(std::string group,
                          std::function<Instance(std::uint64_t)> make_instance,
                          std::vector<NamedSolver> solvers, std::uint64_t base_seed,
                          std::size_t seed_count, std::vector<Metric> metrics = {});

  [[nodiscard]] std::size_t CellCount() const noexcept { return cells_.size(); }

  /// Executes all cells (on the configured number of threads; one runs them
  /// inline on the caller) and returns the aggregate report. May be called
  /// once per runner.
  [[nodiscard]] BatchReport Run();

  /// Per-cell outcomes in submission order; valid after Run().
  [[nodiscard]] const std::vector<CellResult>& Results() const noexcept { return results_; }

 private:
  /// Bookkeeping for one AddComparisonSweep call: its cells occupy
  /// [first_cell, first_cell + solver_count * seed_count), seed-major
  /// (all solvers of seed i are contiguous).
  struct ComparisonSpec {
    std::string group;
    std::vector<std::string> solver_names;
    std::size_t first_cell = 0;
    std::size_t seed_count = 0;
  };

  void ExecuteCell(std::size_t index);

  BatchOptions options_;
  std::vector<Cell> cells_;
  std::vector<ComparisonSpec> comparisons_;
  std::vector<CellResult> results_;
  bool ran_ = false;
};

}  // namespace rpt::runner
