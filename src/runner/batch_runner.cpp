#include "runner/batch_runner.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "support/common.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace rpt::runner {

namespace {

std::string EscapeJson(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void WriteStatJson(std::ostream& os, const StatAccumulator& stat) {
  os << "{\"count\":" << stat.Count() << ",\"mean\":" << FormatCompactDouble(stat.Mean())
     << ",\"min\":" << FormatCompactDouble(stat.Min()) << ",\"max\":" << FormatCompactDouble(stat.Max())
     << ",\"stddev\":" << FormatCompactDouble(stat.Stddev()) << "}";
}

}  // namespace

std::uint64_t DeriveSeed(std::uint64_t base_seed, std::uint64_t index) noexcept {
  // Mix the index into the base with one splitmix64 round; the +1 keeps
  // index 0 from collapsing onto the base seed itself.
  SplitMix64 mix(base_seed + (index + 1) * 0x9e3779b97f4a7c15ULL);
  return mix.Next();
}

std::function<core::RunResult(const Instance&)> SolveWith(core::Algorithm algorithm) {
  return [algorithm](const Instance& instance) { return core::Run(algorithm, instance); };
}

const StatAccumulator* GroupReport::FindMetric(std::string_view name) const noexcept {
  for (const NamedStat& metric : metrics) {
    if (metric.name == name) return &metric.stat;
  }
  return nullptr;
}

const RatioStat* ComparisonReport::FindRatio(std::string_view solver) const noexcept {
  for (const RatioStat& ratio : ratios) {
    if (ratio.numerator == solver) return &ratio;
  }
  return nullptr;
}

const GroupReport* BatchReport::FindGroup(std::string_view group) const noexcept {
  for (const GroupReport& g : groups_) {
    if (g.group == group) return &g;
  }
  return nullptr;
}

const ComparisonReport* BatchReport::FindComparison(std::string_view group) const noexcept {
  for (const ComparisonReport& comparison : comparisons_) {
    if (comparison.group == group) return &comparison;
  }
  return nullptr;
}

std::uint64_t BatchReport::TotalCells() const noexcept {
  std::uint64_t total = 0;
  for (const GroupReport& g : groups_) total += g.cells;
  return total;
}

std::uint64_t BatchReport::TotalErrors() const noexcept {
  std::uint64_t total = 0;
  for (const GroupReport& g : groups_) total += g.errors;
  return total;
}

std::uint64_t BatchReport::TotalValidationFailures() const noexcept {
  std::uint64_t total = 0;
  for (const GroupReport& g : groups_) total += g.validation_failures;
  return total;
}

void BatchReport::WriteJson(std::ostream& os, bool include_timing,
                            std::string_view extra_json) const {
  os << "{\"cells\":" << TotalCells() << ",\"errors\":" << TotalErrors() << ",\"groups\":[";
  bool first = true;
  for (const GroupReport& g : groups_) {
    if (!first) os << ",";
    first = false;
    os << "{\"group\":\"" << EscapeJson(g.group) << "\",\"cells\":" << g.cells
       << ",\"errors\":" << g.errors;
    if (g.metric_only) {
      // Timing/metric group: no solution, so the feasibility/cost columns
      // would only ever report zeros — suppress them.
      os << ",\"metric_only\":true";
    } else {
      os << ",\"feasible\":" << g.feasible
         << ",\"validation_failures\":" << g.validation_failures << ",\"cost\":";
      WriteStatJson(os, g.cost);
    }
    if (!g.metrics.empty()) {
      os << ",\"metrics\":{";
      bool first_metric = true;
      for (const NamedStat& metric : g.metrics) {
        if (!first_metric) os << ",";
        first_metric = false;
        os << "\"" << EscapeJson(metric.name) << "\":";
        WriteStatJson(os, metric.stat);
      }
      os << "}";
    }
    if (include_timing) {
      os << ",\"elapsed_ms\":";
      WriteStatJson(os, g.elapsed_ms);
    }
    os << "}";
  }
  os << "]";
  if (!comparisons_.empty()) {
    os << ",\"comparisons\":[";
    bool first_comparison = true;
    for (const ComparisonReport& comparison : comparisons_) {
      if (!first_comparison) os << ",";
      first_comparison = false;
      os << "{\"group\":\"" << EscapeJson(comparison.group) << "\",\"ratios\":[";
      bool first_ratio = true;
      for (const RatioStat& ratio : comparison.ratios) {
        if (!first_ratio) os << ",";
        first_ratio = false;
        os << "{\"numerator\":\"" << EscapeJson(ratio.numerator) << "\",\"denominator\":\""
           << EscapeJson(ratio.denominator) << "\",\"pairs\":" << ratio.pairs
           << ",\"ties\":" << ratio.ties << ",\"wins\":" << ratio.wins << ",\"ratio\":";
        WriteStatJson(os, ratio.ratio);
        os << ",\"diff\":";
        WriteStatJson(os, ratio.diff);
        os << "}";
      }
      os << "]}";
    }
    os << "]";
  }
  if (!extra_json.empty()) os << "," << extra_json;
  os << "}\n";
}

std::string BatchReport::ToJson(bool include_timing, std::string_view extra_json) const {
  std::ostringstream os;
  WriteJson(os, include_timing, extra_json);
  return os.str();
}

void BatchReport::WriteJsonFile(const std::string& path, bool include_timing,
                                std::string_view extra_json) const {
  std::ofstream os(path);
  RPT_REQUIRE(os.good(), "BatchReport: cannot open JSON output file: " + path);
  WriteJson(os, include_timing, extra_json);
  os.flush();  // surface buffered write errors (e.g. ENOSPC) before checking
  RPT_REQUIRE(os.good(), "BatchReport: write failed for JSON output file: " + path);
}

void BatchReport::WriteCsv(std::ostream& os, bool include_timing) const {
  // Union of metric names across groups, in first-seen order, so every row
  // has the same columns (empty where a group lacks the metric).
  std::vector<std::string> metric_names;
  for (const GroupReport& g : groups_) {
    for (const NamedStat& metric : g.metrics) {
      if (std::find(metric_names.begin(), metric_names.end(), metric.name) ==
          metric_names.end()) {
        metric_names.push_back(metric.name);
      }
    }
  }

  std::vector<std::string> headers{"group",     "cells",    "errors",   "feasible",
                                   "val_fails", "cost_mean", "cost_min", "cost_max",
                                   "cost_stddev"};
  for (const std::string& name : metric_names) {
    headers.push_back(name + "_mean");
    headers.push_back(name + "_min");
    headers.push_back(name + "_max");
  }
  if (include_timing) {
    headers.insert(headers.end(), {"ms_mean", "ms_min", "ms_max"});
  }
  Table table(std::move(headers));
  for (const GroupReport& g : groups_) {
    Table& row = table.NewRow().Add(g.group).Add(g.cells).Add(g.errors);
    if (g.metric_only) {
      row.Add("").Add("").Add("").Add("").Add("").Add("");
    } else {
      row.Add(g.feasible)
          .Add(g.validation_failures)
          .Add(g.cost.Mean(), 4)
          .Add(g.cost.Min(), 0)
          .Add(g.cost.Max(), 0)
          .Add(g.cost.Stddev(), 4);
    }
    for (const std::string& name : metric_names) {
      if (const StatAccumulator* stat = g.FindMetric(name)) {
        row.Add(stat->Mean(), 4).Add(stat->Min(), 4).Add(stat->Max(), 4);
      } else {
        row.Add("").Add("").Add("");
      }
    }
    if (include_timing) {
      row.Add(g.elapsed_ms.Mean(), 4).Add(g.elapsed_ms.Min(), 4).Add(g.elapsed_ms.Max(), 4);
    }
  }
  table.PrintCsv(os);
}

void BatchReport::PrintAscii(std::ostream& os) const {
  Table table({"group", "cells", "err", "feasible", "cost mean", "cost min", "cost max",
               "ms mean", "ms max"});
  for (const GroupReport& g : groups_) {
    Table& row = table.NewRow().Add(g.group).Add(g.cells).Add(g.errors);
    if (g.metric_only) {
      row.Add("-").Add("-").Add("-").Add("-");  // timing/metric-only group
    } else {
      row.Add(g.feasible).Add(g.cost.Mean(), 2).Add(g.cost.Min(), 0).Add(g.cost.Max(), 0);
    }
    row.Add(g.elapsed_ms.Mean(), 3).Add(g.elapsed_ms.Max(), 3);
  }
  table.PrintAscii(os);

  // Metric columns, one row per (group, metric) — groups may carry different
  // metric sets, so a per-group-column layout does not fit.
  bool any_metrics = false;
  for (const GroupReport& g : groups_) any_metrics |= !g.metrics.empty();
  if (any_metrics) {
    Table metric_table({"group", "metric", "count", "mean", "min", "max", "stddev"});
    for (const GroupReport& g : groups_) {
      for (const NamedStat& metric : g.metrics) {
        metric_table.NewRow()
            .Add(g.group)
            .Add(metric.name)
            .Add(metric.stat.Count())
            .Add(metric.stat.Mean(), 4)
            .Add(metric.stat.Min(), 4)
            .Add(metric.stat.Max(), 4)
            .Add(metric.stat.Stddev(), 4);
      }
    }
    os << "\nmetrics:\n";
    metric_table.PrintAscii(os);
  }

  if (!comparisons_.empty()) {
    Table comparison_table({"comparison", "solver", "baseline", "pairs", "ratio mean",
                            "ratio max", "diff mean", "wins", "ties"});
    for (const ComparisonReport& comparison : comparisons_) {
      for (const RatioStat& ratio : comparison.ratios) {
        comparison_table.NewRow()
            .Add(comparison.group)
            .Add(ratio.numerator)
            .Add(ratio.denominator)
            .Add(ratio.pairs)
            .Add(ratio.ratio.Mean(), 3)
            .Add(ratio.ratio.Max(), 3)
            .Add(ratio.diff.Mean(), 3)
            .Add(ratio.wins)
            .Add(ratio.ties);
      }
    }
    os << "\npaired comparisons (per-seed, vs baseline):\n";
    comparison_table.PrintAscii(os);
  }
}

void AddJsonFlag(Cli& cli) {
  cli.AddString("json", "", "write the deterministic aggregate report (no timing) here");
}

void WriteJsonIfRequested(const Cli& cli, const BatchReport& report, std::ostream& os) {
  const std::string path = cli.GetString("json");
  if (path.empty()) return;
  report.WriteJsonFile(path);
  os << "\nwrote deterministic aggregate report to " << path << "\n";
}

BatchRunner::BatchRunner(BatchOptions options) : options_(options) {}

void BatchRunner::Add(Cell cell) {
  RPT_REQUIRE(static_cast<bool>(cell.make_instance), "BatchRunner: cell needs make_instance");
  RPT_REQUIRE(static_cast<bool>(cell.solve), "BatchRunner: cell needs solve");
  for (const Metric& metric : cell.metrics) {
    RPT_REQUIRE(!metric.name.empty(), "BatchRunner: metric needs a name");
    RPT_REQUIRE(static_cast<bool>(metric.fn), "BatchRunner: metric needs a function");
  }
  RPT_REQUIRE(!ran_, "BatchRunner: cannot add cells after Run()");
  cells_.push_back(std::move(cell));
}

void BatchRunner::AddSweep(std::string group,
                           std::function<Instance(std::uint64_t)> make_instance,
                           std::function<core::RunResult(const Instance&)> solve,
                           std::uint64_t base_seed, std::size_t seed_count,
                           std::vector<Metric> metrics, bool metric_only) {
  for (std::size_t i = 0; i < seed_count; ++i) {
    Add(Cell{group, make_instance, solve, DeriveSeed(base_seed, i), metrics, metric_only});
  }
}

void BatchRunner::AddComparisonSweep(std::string group,
                                     std::function<Instance(std::uint64_t)> make_instance,
                                     std::vector<NamedSolver> solvers, std::uint64_t base_seed,
                                     std::size_t seed_count, std::vector<Metric> metrics) {
  RPT_REQUIRE(!solvers.empty(), "BatchRunner: comparison sweep needs at least one solver");
  // All-or-nothing validation: reject bad solvers before any cell is added,
  // so a throw never leaves the runner with a half-populated sweep.
  std::set<std::string> names;
  for (const NamedSolver& solver : solvers) {
    RPT_REQUIRE(!solver.name.empty(), "BatchRunner: comparison solver needs a name");
    RPT_REQUIRE(names.insert(solver.name).second,
                "BatchRunner: duplicate comparison solver name: " + solver.name);
    RPT_REQUIRE(static_cast<bool>(solver.solve),
                "BatchRunner: comparison solver needs a solve function: " + solver.name);
  }
  ComparisonSpec spec;
  spec.group = group;
  for (const NamedSolver& solver : solvers) spec.solver_names.push_back(solver.name);
  spec.first_cell = cells_.size();
  spec.seed_count = seed_count;
  // Seed-major layout: all solvers of one seed are contiguous, sharing the
  // same derived seed so make_instance yields the identical instance.
  for (std::size_t i = 0; i < seed_count; ++i) {
    const std::uint64_t seed = DeriveSeed(base_seed, i);
    for (const NamedSolver& solver : solvers) {
      Add(Cell{group + "/" + solver.name, make_instance, solver.solve, seed, metrics});
    }
  }
  comparisons_.push_back(std::move(spec));
}

void BatchRunner::ExecuteCell(std::size_t index) {
  const Cell& cell = cells_[index];
  CellResult result;
  result.group = cell.group;
  result.seed = cell.seed;
  try {
    const Instance instance = cell.make_instance(cell.seed);
    const core::RunResult run = cell.solve(instance);
    result.feasible = run.feasible;
    result.validation_ok = run.validation.ok;
    result.cost = run.feasible ? run.solution.ReplicaCount() : 0;
    result.elapsed_ms = run.elapsed_ms;
    result.metric_values.reserve(cell.metrics.size());
    for (const Metric& metric : cell.metrics) {
      result.metric_values.push_back(metric.fn(instance, run));
    }
    result.ok = true;
  } catch (const std::exception& e) {
    result.error = e.what();
  } catch (...) {
    result.error = "unknown exception";
  }
  results_[index] = std::move(result);
}

BatchReport BatchRunner::Run() {
  RPT_REQUIRE(!ran_, "BatchRunner: Run() may be called once");
  ran_ = true;
  const std::size_t cell_count = cells_.size();
  results_.assign(cell_count, CellResult{});

  if (cell_count > 0) {
    std::size_t threads =
        options_.threads != 0
            ? options_.threads
            : std::max<std::size_t>(1, std::thread::hardware_concurrency());
    threads = std::min(threads, cell_count);

    if (threads == 1) {
      // Inline on the caller: cells may still use intra-solver parallelism
      // (this is how bench_hotpath measures one instance saturating the
      // solver pool).
      for (std::size_t index = 0; index < cell_count; ++index) ExecuteCell(index);
    } else {
      // Each worker claims the next cell from one shared cursor, last cell
      // first: sweeps add cells in ascending size, so the largest start
      // first and the small ones even out the tail. ThreadPool marks its
      // workers, so a solver inside a cell runs its fork-join loops inline
      // instead of oversubscribing cores the batch already keeps busy.
      std::atomic<std::size_t> claimed{0};
      ThreadPool pool(threads);
      for (std::size_t w = 0; w < threads; ++w) {
        pool.Submit([this, &claimed, cell_count] {
          for (std::size_t k = claimed++; k < cell_count; k = claimed++) {
            ExecuteCell(cell_count - 1 - k);
          }
        });
      }
      pool.Wait();
    }
  }

  // Sequential aggregation in submission order keeps the report independent
  // of which worker ran which cell.
  BatchReport report;
  std::unordered_map<std::string, std::size_t> group_index;
  for (std::size_t i = 0; i < results_.size(); ++i) {
    const CellResult& result = results_[i];
    auto [it, inserted] = group_index.try_emplace(result.group, report.groups_.size());
    if (inserted) {
      GroupReport group;
      group.group = result.group;
      group.metric_only = cells_[i].metric_only;
      report.groups_.push_back(std::move(group));
    }
    GroupReport& group = report.groups_[it->second];
    RPT_CHECK(group.metric_only == cells_[i].metric_only);  // groups must agree
    ++group.cells;
    if (!result.ok) {
      ++group.errors;
      continue;
    }
    group.elapsed_ms.Add(result.elapsed_ms);
    if (result.feasible && !group.metric_only) {
      ++group.feasible;
      group.cost.Add(static_cast<double>(result.cost));
      if (!result.validation_ok) ++group.validation_failures;
    }
    for (std::size_t m = 0; m < result.metric_values.size(); ++m) {
      const double value = result.metric_values[m];
      if (std::isnan(value)) continue;  // the hook opted out for this cell
      const std::string& name = cells_[i].metrics[m].name;
      NamedStat* column = nullptr;
      for (NamedStat& candidate : group.metrics) {
        if (candidate.name == name) {
          column = &candidate;
          break;
        }
      }
      if (column == nullptr) {
        group.metrics.push_back(NamedStat{name, {}});
        column = &group.metrics.back();
      }
      column->stat.Add(value);
    }
  }

  // Paired comparison aggregation: per seed, every solver against the first.
  // Cell layout within a spec is seed-major (see AddComparisonSweep).
  for (const ComparisonSpec& spec : comparisons_) {
    ComparisonReport comparison;
    comparison.group = spec.group;
    for (const std::string& name : spec.solver_names) {
      comparison.solver_groups.push_back(spec.group + "/" + name);
    }
    const std::size_t solver_count = spec.solver_names.size();
    for (std::size_t j = 1; j < solver_count; ++j) {
      RatioStat ratio;
      ratio.numerator = spec.solver_names[j];
      ratio.denominator = spec.solver_names[0];
      for (std::size_t i = 0; i < spec.seed_count; ++i) {
        const CellResult& den = results_[spec.first_cell + i * solver_count];
        const CellResult& num = results_[spec.first_cell + i * solver_count + j];
        if (!den.ok || !den.feasible || !num.ok || !num.feasible) continue;
        ++ratio.pairs;
        ratio.ties += num.cost == den.cost;
        ratio.wins += num.cost < den.cost;
        ratio.diff.Add(static_cast<double>(num.cost) - static_cast<double>(den.cost));
        if (den.cost > 0) {
          ratio.ratio.Add(static_cast<double>(num.cost) / static_cast<double>(den.cost));
        }
      }
      comparison.ratios.push_back(std::move(ratio));
    }
    report.comparisons_.push_back(std::move(comparison));
  }
  return report;
}

}  // namespace rpt::runner
