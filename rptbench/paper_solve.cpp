// paper-solve: the paper's algorithms at service scale. One 2^18-client full
// binary tree (edges 1-4, requests 1-10, W = 40), solver pool at nproc
// width. Each pass builds the tree from the generated columns and runs
// single-gen (Alg. 1, with a tight dmax), single-nod (Alg. 2), multiple-bin
// (Alg. 3) and multiple-nod-dp through core::Run, which also validates.
//
// It is the only workload that runs single/, multiple_bin and a large tree
// build, and it bypasses serve/, shard/ and incremental/ entirely.

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/solver.hpp"
#include "gen/random_tree.hpp"
#include "model/instance.hpp"
#include "model/validate.hpp"
#include "multiple/nod_dp_engine.hpp"
#include "support/thread_pool.hpp"

namespace rptbench {
namespace {

using rpt::core::Algorithm;

constexpr rpt::Requests kCapacity = 40;
// Tight enough that single-gen (which must respect it) places more replicas
// than single-nod (which ignores distances) on every seed tried.
constexpr rpt::Distance kDmax = 6;

struct Stage {
  Algorithm algorithm;
  const char* key;        ///< metric stem
  const char* run_span;   ///< span around core::Run
  const char* validate_span;
  bool with_dmax;
};

constexpr Stage kStages[] = {
    {Algorithm::kSingleGen, "single_gen", "core.run.single_gen", "model.validate.single_gen", true},
    {Algorithm::kSingleNod, "single_nod", "core.run.single_nod", "model.validate.single_nod", false},
    {Algorithm::kMultipleBin, "multiple_bin", "core.run.multiple_bin",
     "model.validate.multiple_bin", false},
    {Algorithm::kMultipleNodDp, "nod_dp", "core.run.nod_dp", "model.validate.nod_dp", false},
};

/// Samples of one untraced or traced measurement window.
struct Window {
  std::vector<double> pass_ms;
  std::vector<double> build_ms;
  std::vector<double> run_ms[4];    ///< core::Run wall time (solve + validation)
  std::vector<double> solve_ms[4];  ///< RunResult::elapsed_ms
};

/// One pass: tree build, then the four solvers. Checks every gate.
void Pass(const TreeColumns& columns, const RunOptions& options, Report& report, Window& window,
          SpanBuffer* spans, std::uint64_t pass_id) {
  const std::uint64_t pass_start = NowNs();
  std::uint32_t parent = Span::kNoParent;
  if (spans) parent = spans->Open("paper.pass", pass_id);

  std::uint64_t t0 = NowNs();
  std::uint32_t span = spans ? spans->Open("tree.build", pass_id, parent) : 0;
  rpt::Tree tree = BuildTree(columns);
  if (spans) spans->Close(span);
  window.build_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);

  const rpt::Instance with_dmax(tree, kCapacity, kDmax);
  const rpt::Instance nod(std::move(tree), kCapacity);

  std::size_t replicas[4] = {};
  for (std::size_t s = 0; s < 4; ++s) {
    const Stage& stage = kStages[s];
    const rpt::Instance& instance = stage.with_dmax ? with_dmax : nod;
    ++report.attempted;
    t0 = NowNs();
    if (spans) span = spans->Open(stage.run_span, pass_id, parent);
    rpt::core::RunResult run = rpt::core::Run(stage.algorithm, instance);
    if (spans) spans->Close(span);
    window.run_ms[s].push_back(static_cast<double>(NowNs() - t0) * 1e-6);
    window.solve_ms[s].push_back(run.elapsed_ms);

    bool valid = run.feasible && run.validation.ok;
    if (options.corrupt == "paper-validate" && s == 2 && !run.solution.assignment.empty()) {
      rpt::Solution damaged = run.solution;
      damaged.assignment.pop_back();
      valid = rpt::ValidateSolution(instance, rpt::core::AlgorithmPolicy(stage.algorithm),
                                    damaged)
                  .ok;
    }
    if (spans) {
      // The traced pass times validation on its own, outside core::Run.
      ScopedSpan validate(*spans, stage.validate_span, pass_id, parent);
      (void)rpt::ValidateSolution(instance, rpt::core::AlgorithmPolicy(stage.algorithm),
                                  run.solution);
    }
    if (!valid) ++report.failed;
    report.Gate(std::string("paper-validate:") + stage.key, valid,
                run.validation.ok ? "infeasible" : run.validation.Describe());
    replicas[s] = run.solution.ReplicaCount();
  }
  if (options.corrupt == "paper-bin-vs-dp") ++replicas[2];
  // Theorem 6: Alg. 3 is optimal on binary trees without distance limit.
  report.Gate("paper-bin-vs-dp", replicas[2] == replicas[3],
              "multiple-bin placed " + std::to_string(replicas[2]) + " replicas, the DP " +
                  std::to_string(replicas[3]));
  report.detail["single_gen_replicas"] = {static_cast<double>(replicas[0]), "count"};
  report.detail["single_nod_replicas"] = {static_cast<double>(replicas[1]), "count"};
  report.detail["nod_dp_replicas"] = {static_cast<double>(replicas[3]), "count"};
  if (spans) spans->Close(parent);
  window.pass_ms.push_back(static_cast<double>(NowNs() - pass_start) * 1e-6);
}

Window Measure(const TreeColumns& columns, const RunOptions& options, Report& report,
               double seconds, SpanBuffer* spans) {
  Window window;
  const std::uint64_t deadline = NowNs() + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::uint64_t pass = 0; pass == 0 || NowNs() < deadline; ++pass) {
    Pass(columns, options, report, window, spans, pass);
  }
  return window;
}

}  // namespace

void RunPaperSolve(const RunOptions& options, Report& report) {
  rpt::SetSolverThreads(0);
  rpt::gen::BinaryTreeConfig config;
  config.clients = options.scale == Scale::kTiny ? (1u << 12) : (1u << 18);
  config.min_edge = 1;
  config.max_edge = 4;
  config.min_requests = 1;
  config.max_requests = 10;
  const TreeColumns columns =
      ColumnsOf(rpt::gen::GenerateFullBinaryTree(config, kTopologySeed), options.seed,
                config.min_requests, config.max_requests);

  report.env["clients"] = std::to_string(config.clients);
  report.env["nodes"] = std::to_string(columns.parent.size());
  report.env["capacity"] = std::to_string(kCapacity);
  report.env["single_gen_dmax"] = std::to_string(kDmax);
  report.env["solver_pool_width"] = std::to_string(rpt::SolverThreads());

  // Set-up: building the Instance from the columns (see kSetups).
  std::vector<double> setup_s;
  for (int i = 0; i <= kSetups; ++i) {
    const std::uint64_t t0 = NowNs();
    const rpt::Instance instance(BuildTree(columns), kCapacity);
    if (i > 0) setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }

  // One untimed pass first, so the solver pool, the allocator and the page
  // cache are warm before the window opens.
  {
    Window warm;
    Pass(columns, options, report, warm, nullptr, 0);
  }
  const double untraced_seconds = options.trace ? options.seconds / 2 : options.seconds;
  const Window plain = Measure(columns, options, report, untraced_seconds, nullptr);

  report.e2e["setup_s"] = {Median(setup_s), "s"};
  report.e2e["op_p50_ms"] = {Median(plain.pass_ms), "ms"};
  report.e2e["peak_rss_mib"] = {PeakRssMib(), "MiB"};
  report.detail["tree_build_ms"] = {Median(plain.build_ms), "ms"};
  for (std::size_t s = 0; s < 4; ++s) {
    report.detail[std::string(kStages[s].key) + "_ms"] = {Median(plain.run_ms[s]), "ms"};
  }
  report.detail["error_ratio"] = {
      static_cast<double>(report.failed) / static_cast<double>(report.attempted), "ratio"};
  report.samples["setup_s"] = setup_s.size();
  report.samples["passes"] = plain.pass_ms.size();

  if (!options.trace) return;

  SpanBuffer spans("paper");
  const Window traced = Measure(columns, options, report, options.seconds / 2, &spans);
  // Per-layer metrics: one extra batch DP on its own engine splits nod-dp
  // into its forward pass and backtrack.
  rpt::multiple::NodDpWork work;
  {
    const rpt::Tree tree = BuildTree(columns);
    rpt::multiple::NodDpEngine engine(tree, kCapacity);
    {
      ScopedSpan forward(spans, "multiple.dp.forward", 0);
      engine.ComputeAll();
    }
    {
      ScopedSpan backtrack(spans, "multiple.dp.backtrack", 0);
      (void)engine.Backtrack();
    }
    work = engine.Work();
  }
  const std::vector<const SpanBuffer*> buffers = {&spans};
  report.layer["single.gen.solve_ms"] = {Median(traced.solve_ms[0]), "ms"};
  report.layer["single.nod.solve_ms"] = {Median(traced.solve_ms[1]), "ms"};
  report.layer["multiple.bin.solve_ms"] = {Median(traced.solve_ms[2]), "ms"};
  for (const Stage& stage : kStages) {
    report.layer[std::string("model.validate_ms.") + stage.key] = {
        Median(SpanMs(buffers, stage.validate_span)), "ms"};
  }
  report.layer["multiple.dp.forward_ms"] = {Median(SpanMs(buffers, "multiple.dp.forward")), "ms"};
  report.layer["multiple.dp.backtrack_ms"] = {Median(SpanMs(buffers, "multiple.dp.backtrack")),
                                              "ms"};
  report.layer["multiple.dp.table_entries"] = {static_cast<double>(work.table_entries), "count"};
  report.layer["multiple.dp.convolve_cells"] = {static_cast<double>(work.convolve_cells),
                                                "count"};
  // Overhead: the traced pass's build and core::Run spans against the
  // untraced pass's timings of the same calls.
  double plain_ms = Median(plain.build_ms);
  double traced_ms = Median(traced.build_ms);
  for (std::size_t s = 0; s < 4; ++s) {
    plain_ms += Median(plain.run_ms[s]);
    traced_ms += Median(traced.run_ms[s]);
  }
  report.layer["trace.overhead_ms"] = {traced_ms - plain_ms, "ms"};
  report.layer["trace.overhead_pct"] = {100.0 * (traced_ms - plain_ms) / plain_ms, "%"};
  report.samples["traced_passes"] = traced.pass_ms.size();
  report.layer["trace.spans"] = {
      static_cast<double>(WriteSpans(options.work_dir + "/spans-paper-solve.tsv", buffers)),
      "count"};
}

}  // namespace rptbench
