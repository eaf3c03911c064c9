#include "model/solution.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <numeric>

#include "support/common.hpp"

namespace rpt {

namespace {

// `items` ordered by `key`, which must order by id(item) first: a counting
// pass buckets them on id >> shift into a copy, and each bucket, a few
// entries on solver output, is sorted by the full key. The smallest shift
// that keeps at most 2n + 2^16 buckets bounds the table by n, whatever the ids.
template <typename T, typename Id, typename Key>
std::vector<T> BucketSorted(const std::vector<T>& items, Id id, Key key) {
  RPT_CHECK(items.size() < std::numeric_limits<std::uint32_t>::max());
  NodeId max_id = 0;
  for (const T& item : items) max_id = std::max(max_id, id(item));
  unsigned shift = 0;
  while ((max_id >> shift) >= 2 * items.size() + (std::size_t{1} << 16)) ++shift;
  // end[b + 1] counts bucket b; then end[b] is its start, after the scatter its end.
  std::vector<std::uint32_t> end((std::size_t{max_id} >> shift) + 2, 0);
  for (const T& item : items) ++end[(id(item) >> shift) + 1];
  std::inclusive_scan(end.begin(), end.end(), end.begin());
  std::vector<T> sorted(items.size());
  for (const T& item : items) sorted[end[id(item) >> shift]++] = item;
  const auto by_key = [&key](const T& a, const T& b) { return key(a) < key(b); };
  std::uint32_t begin = 0;
  for (const std::uint32_t stop : end) {
    if (stop - begin > 1) std::sort(sorted.begin() + begin, sorted.begin() + stop, by_key);
    begin = stop;
  }
  return sorted;
}

}  // namespace

void Solution::Canonicalize() {
  const auto self = [](NodeId id) { return id; };
  const std::vector<NodeId> ids = BucketSorted(replicas, self, self);
  replicas.clear();
  std::unique_copy(ids.begin(), ids.end(), std::back_inserter(replicas));
  // (client, server) order; equal keys merge, and zero amounts drop out.
  const auto key = [](const ServiceEntry& e) { return std::uint64_t{e.client} << 32 | e.server; };
  const std::vector<ServiceEntry> sorted =
      BucketSorted(assignment, [](const ServiceEntry& e) { return e.client; }, key);
  assignment.clear();
  for (std::size_t i = 0; i < sorted.size();) {
    ServiceEntry merged = sorted[i];
    while (++i < sorted.size() && key(sorted[i]) == key(merged)) merged.amount += sorted[i].amount;
    if (merged.amount > 0) assignment.push_back(merged);
  }
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
  RPT_REQUIRE(capacity > 0, "SummarizeLoads: capacity must be positive");
  // The servers are the replicas plus every node an entry routes to.
  std::vector<Requests> load(tree.Size(), 0);
  std::vector<std::uint8_t> is_server(tree.Size(), 0);
  const auto server = [&](NodeId id) {
    RPT_REQUIRE(id < tree.Size(), "SummarizeLoads: node id out of range");
    is_server[id] = 1;
    return id;
  };
  for (NodeId replica : solution.replicas) server(replica);
  for (const ServiceEntry& entry : solution.assignment) load[server(entry.server)] += entry.amount;
  const auto servers = static_cast<double>(std::count(is_server.begin(), is_server.end(), 1));
  LoadSummary summary;
  for (const Requests amount : load) {
    summary.max_load = std::max(summary.max_load, amount);
    summary.total_load += amount;
  }
  if (servers > 0) {
    summary.mean_load = static_cast<double>(summary.total_load) / servers;
    summary.utilization =
        static_cast<double>(summary.total_load) / (servers * static_cast<double>(capacity));
  }
  return summary;
}

}  // namespace rpt
