// Helpers shared by the workloads: gates, sample statistics, peak RSS,
// the solution fingerprint, span bookkeeping, and tree columns.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "support/rng.hpp"

namespace rptbench {

void Report::Gate(const std::string& name, bool ok, const std::string& detail_text) {
  if (ok) return;
  correct = false;
  gate_failures.push_back(name);
  std::cerr << "rptbench: CORRECTNESS GATE FAILED: " << name
            << (detail_text.empty() ? "" : ": " + detail_text) << std::endl;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  const std::size_t at = std::min(samples.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(at),
                   samples.end());
  return samples[at];
}

double Median(const std::vector<double>& samples) { return Quantile(samples, 0.5); }

double Sum(const std::vector<double>& samples) {
  double total = 0.0;
  for (const double x : samples) total += x;
  return total;
}

double PeakRssMib() {
  struct rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t HashSolution(const rpt::Solution& solution) {
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ull;
  };
  mix(solution.replicas.size());
  for (const rpt::NodeId id : solution.replicas) mix(id);
  mix(solution.assignment.size());
  for (const rpt::ServiceEntry& entry : solution.assignment) {
    mix(entry.client);
    mix(entry.server);
    mix(entry.amount);
  }
  return hash;
}

std::vector<double> SpanMs(const std::vector<const SpanBuffer*>& buffers, const char* name) {
  std::vector<double> out;
  const std::string wanted(name);
  for (const SpanBuffer* buffer : buffers) {
    for (const Span& span : buffer->Spans()) {
      if (span.end_ns != 0 && wanted == span.name) {
        out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-6);
      }
    }
  }
  return out;
}

std::uint64_t WriteSpans(const std::string& path,
                         const std::vector<const SpanBuffer*>& buffers) {
  std::ofstream os(path, std::ios::trunc);
  os << "thread\tindex\tname\trequest\tparent\tstart_ns\tend_ns\tself_ns\n";
  std::uint64_t written = 0;
  for (const SpanBuffer* buffer : buffers) {
    const std::vector<Span>& spans = buffer->Spans();
    // Children on one thread never overlap each other, so the time they
    // cover inside their parent is the sum of their durations.
    std::vector<std::uint64_t> child_ns(spans.size(), 0);
    for (const Span& span : spans) {
      if (span.parent != Span::kNoParent && span.end_ns != 0) {
        child_ns[span.parent] += span.end_ns - span.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const std::uint64_t duration = span.end_ns > span.start_ns ? span.end_ns - span.start_ns : 0;
      os << buffer->Thread() << '\t' << i << '\t' << span.name << '\t' << span.request << '\t'
         << (span.parent == Span::kNoParent ? -1 : static_cast<long long>(span.parent)) << '\t'
         << span.start_ns << '\t' << span.end_ns << '\t'
         << (duration > child_ns[i] ? duration - child_ns[i] : 0) << '\n';
      ++written;
    }
  }
  return written;
}

TreeColumns ColumnsOf(const rpt::Tree& tree, std::uint64_t seed, rpt::Requests min_requests,
                      rpt::Requests max_requests) {
  rpt::Rng rng(seed);
  TreeColumns columns;
  const std::size_t n = tree.Size();
  columns.parent.resize(n);
  columns.delta.resize(n);
  columns.requests.resize(n);
  columns.is_client.resize(n);
  for (rpt::NodeId id = 0; id < n; ++id) {
    columns.parent[id] = tree.Parent(id);
    columns.delta[id] = tree.DistToParent(id);
    columns.is_client[id] = tree.IsClient(id) ? 1 : 0;
    columns.requests[id] =
        columns.is_client[id] ? rng.NextInRange(min_requests, max_requests) : 0;
  }
  return columns;
}

rpt::Tree BuildTree(const TreeColumns& columns) {
  rpt::TreeBuilder builder;
  const std::size_t n = columns.parent.size();
  builder.Reserve(n);
  builder.AddRoot();
  for (rpt::NodeId id = 1; id < n; ++id) {
    if (columns.is_client[id]) {
      builder.AddClient(columns.parent[id], columns.delta[id], columns.requests[id]);
    } else {
      builder.AddInternal(columns.parent[id], columns.delta[id]);
    }
  }
  return builder.Build();
}

}  // namespace rptbench
