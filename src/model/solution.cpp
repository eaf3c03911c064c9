#include "model/solution.hpp"

#include <algorithm>
#include <map>

#include "support/common.hpp"

namespace rpt {

void Solution::Canonicalize() {
  std::sort(replicas.begin(), replicas.end());
  replicas.erase(std::unique(replicas.begin(), replicas.end()), replicas.end());
  // Sort by (client, server), then merge duplicates in place — same
  // canonical order a (client, server)-keyed map would produce, without the
  // per-entry node allocations.
  std::sort(assignment.begin(), assignment.end(),
            [](const ServiceEntry& a, const ServiceEntry& b) {
              if (a.client != b.client) return a.client < b.client;
              return a.server < b.server;
            });
  std::size_t out = 0;
  for (std::size_t i = 0; i < assignment.size();) {
    const NodeId client = assignment[i].client;
    const NodeId server = assignment[i].server;
    Requests amount = 0;
    for (; i < assignment.size() && assignment[i].client == client &&
           assignment[i].server == server;
         ++i) {
      amount += assignment[i].amount;
    }
    if (amount > 0) assignment[out++] = ServiceEntry{client, server, amount};
  }
  assignment.resize(out);
}

std::uint64_t CanonicalSolutionHash(Solution solution) {
  solution.Canonicalize();
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis
  const auto mix = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 1099511628211ull;  // FNV-1a prime
  };
  mix(solution.replicas.size());
  for (const NodeId id : solution.replicas) mix(id);
  mix(solution.assignment.size());
  for (const ServiceEntry& entry : solution.assignment) {
    mix(entry.client);
    mix(entry.server);
    mix(entry.amount);
  }
  return hash;
}

Solution MapNodeIds(const Solution& solution, std::span<const NodeId> map) {
  const auto remap = [&map](NodeId id) {
    RPT_REQUIRE(id < map.size() && map[id] != kInvalidNode,
                "MapNodeIds: solution references an unmapped node id");
    return map[id];
  };
  Solution out;
  out.replicas.reserve(solution.replicas.size());
  for (NodeId replica : solution.replicas) out.replicas.push_back(remap(replica));
  out.assignment.reserve(solution.assignment.size());
  for (const ServiceEntry& entry : solution.assignment) {
    out.assignment.push_back(ServiceEntry{remap(entry.client), remap(entry.server), entry.amount});
  }
  return out;
}

LoadSummary SummarizeLoads(const Tree& tree, Requests capacity, const Solution& solution) {
  (void)tree;
  RPT_REQUIRE(capacity > 0, "SummarizeLoads: capacity must be positive");
  std::map<NodeId, Requests> load;
  for (NodeId replica : solution.replicas) load[replica] = 0;
  for (const ServiceEntry& entry : solution.assignment) load[entry.server] += entry.amount;
  LoadSummary summary;
  for (const auto& [server, amount] : load) {
    summary.max_load = std::max(summary.max_load, amount);
    summary.total_load += amount;
  }
  if (!load.empty()) {
    summary.mean_load =
        static_cast<double>(summary.total_load) / static_cast<double>(load.size());
    summary.utilization = static_cast<double>(summary.total_load) /
                          (static_cast<double>(load.size()) * static_cast<double>(capacity));
  }
  return summary;
}

}  // namespace rpt
