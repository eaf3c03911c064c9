// rptbench binary: parses the run options, runs one workload and
// prints its report as one JSON object on the last line of stdout. run.py
// builds this binary, runs it, and turns the report into the benchmark's
// result line. Re-executed with --rpt-shard-worker it is a shard worker
// (the sharded solve's subprocess dispatch re-execs its own binary).
//
// Exit codes: 0 = every correctness gate held, 1 = a gate failed (the
// report is still printed, with "correct": false), 2 = the run could not
// complete (no report).

#include <algorithm>
#include <cmath>
#include <iterator>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "shard/worker.hpp"

namespace rptbench {

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) out += ",";
    out += JsonString(name) + ":{\"value\":" + JsonNumber(metric.value) +
           ",\"unit\":" + JsonString(metric.unit) + "}";
  }
  return out + "}";
}

std::string ReportJson(const Report& report) {
  std::string out = "{\"correct\":";
  out += report.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(report.attempted);
  out += ",\"failed\":" + std::to_string(report.failed);
  out += ",\"gate_failures\":[";
  for (std::size_t i = 0; i < report.gate_failures.size(); ++i) {
    if (i > 0) out += ',';
    out += JsonString(report.gate_failures[i]);
  }
  out += "],\"e2e\":" + MetricsJson(report.e2e);
  out += ",\"detail\":" + MetricsJson(report.detail);
  out += ",\"layer\":" + MetricsJson(report.layer);
  out += ",\"env\":{";
  for (const auto& [key, value] : report.env) {
    if (out.back() != '{') out += ',';
    out += JsonString(key) + ":" + JsonString(value);
  }
  out += "},\"samples\":{";
  for (const auto& [key, value] : report.samples) {
    if (out.back() != '{') out += ',';
    out += JsonString(key) + ":" + std::to_string(value);
  }
  return out + "}}";
}

[[noreturn]] void Usage(const std::string& error) {
  std::cerr << "rptbench: " << error << "\n"
            << "usage: rptbench --workload serve-mixed|shard-solve|paper-solve --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--scale full|tiny] [--corrupt GATE]\n";
  std::exit(2);
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        options.workload = value;
      } else if (key == "--seed") {
        options.seed = std::stoull(value);
      } else if (key == "--seconds") {
        options.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
        options.trace = value == "1";
      } else if (key == "--scale") {
        if (value != "full" && value != "tiny") Usage("--scale must be full or tiny");
        options.scale = value == "tiny" ? Scale::kTiny : Scale::kFull;
      } else if (key == "--corrupt") {
        static const char* const kGates[] = {"serve-follower-hash", "serve-validate",
                                             "serve-tcp-sweep",     "shard-oracle",
                                             "paper-validate",      "paper-bin-vs-dp"};
        if (std::find(std::begin(kGates), std::end(kGates), value) == std::end(kGates)) {
          Usage("unknown gate for --corrupt: " + value);
        }
        options.corrupt = value;
      } else if (key == "--work-dir") {
        options.work_dir = value;
      } else {
        Usage("unknown flag " + key);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + key + ": " + value);
    }
  }
  if (options.workload.empty()) Usage("--workload is required");
  if (options.work_dir.empty()) Usage("--work-dir is required");
  if (!(options.seconds > 0.0)) Usage("--seconds must be > 0");
  return options;
}

}  // namespace
}  // namespace rptbench

int main(int argc, char** argv) {
  using namespace rptbench;
  if (argc >= 2 && std::string(argv[1]) == rpt::shard::kWorkerFlag) {
    return rpt::shard::ShardWorkerMain(argc, argv);
  }
  RunOptions options = ParseArgs(argc, argv);
  options.argv0 = std::filesystem::absolute(argv[0]).string();
  std::filesystem::create_directories(options.work_dir);

  Report report;
  report.env["workload"] = options.workload;
  report.env["seed"] = std::to_string(options.seed);
  report.env["seconds"] = JsonNumber(options.seconds);
  report.env["trace"] = options.trace ? "1" : "0";
  report.env["scale"] = options.scale == Scale::kTiny ? "tiny" : "full";
  report.env["nproc"] = std::to_string(std::thread::hardware_concurrency());
  if (!options.corrupt.empty()) report.env["corrupt"] = options.corrupt;
  try {
    if (options.workload == "serve-mixed") {
      RunServeMixed(options, report);
    } else if (options.workload == "shard-solve") {
      RunShardSolve(options, report);
    } else if (options.workload == "paper-solve") {
      RunPaperSolve(options, report);
    } else {
      Usage("unknown workload " + options.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "rptbench: run failed: " << e.what() << std::endl;
    return 2;
  }
  std::cout << ReportJson(report) << std::endl;
  return report.correct ? 0 : 1;
}
