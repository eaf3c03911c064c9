#include "model/validate.hpp"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

namespace rpt {

namespace {
constexpr std::size_t kMaxErrors = 32;
}

void ValidationReport::Fail(std::string message) {
  ok = false;
  if (errors.size() < kMaxErrors) errors.push_back(std::move(message));
}

std::string ValidationReport::Describe() const {
  if (ok) return "ok";
  std::ostringstream os;
  for (const auto& error : errors) os << error << "; ";
  return os.str();
}

ValidationReport ValidateSolution(const Instance& instance, Policy policy,
                                  const Solution& solution, bool forbid_idle_replicas) {
  ValidationReport report;
  const Tree& tree = instance.GetTree();

  // All bookkeeping is NodeId-indexed flat columns — the validator runs
  // after every solver call, so it must not hash or node-allocate.
  // 1. Replica set sanity.
  std::vector<char> is_replica(tree.Size(), 0);
  for (NodeId replica : solution.replicas) {
    if (replica >= tree.Size()) {
      report.Fail("replica id out of range: " + std::to_string(replica));
      continue;
    }
    if (is_replica[replica]) {
      report.Fail("duplicate replica: " + std::to_string(replica));
    }
    is_replica[replica] = 1;
  }

  // 2. Per-entry checks; accumulate per-client and per-server totals.
  std::vector<Requests> served_of_client(tree.Size(), 0);
  std::vector<Requests> load_of_server(tree.Size(), 0);
  // Single policy: the first server each client uses, and every client seen
  // with a second one.
  std::vector<NodeId> first_server;
  std::vector<NodeId> split_clients;
  if (policy == Policy::kSingle) first_server.assign(tree.Size(), kInvalidNode);
  for (const ServiceEntry& entry : solution.assignment) {
    if (entry.client >= tree.Size() || !tree.IsClient(entry.client)) {
      report.Fail("assignment from non-client node " + std::to_string(entry.client));
      continue;
    }
    if (entry.server >= tree.Size()) {
      report.Fail("assignment to invalid server id " + std::to_string(entry.server));
      continue;
    }
    if (entry.amount == 0) {
      report.Fail("zero-amount assignment for client " + std::to_string(entry.client));
      continue;
    }
    if (!is_replica[entry.server]) {
      report.Fail("assignment to non-replica node " + std::to_string(entry.server));
    }
    if (!tree.IsAncestorOrSelf(entry.server, entry.client)) {
      report.Fail("server " + std::to_string(entry.server) + " not on root path of client " +
                  std::to_string(entry.client));
    } else if (instance.HasDistanceConstraint() &&
               tree.DistToAncestor(entry.client, entry.server) > instance.Dmax()) {
      report.Fail("distance constraint violated: client " + std::to_string(entry.client) +
                  " -> server " + std::to_string(entry.server));
    }
    served_of_client[entry.client] += entry.amount;
    load_of_server[entry.server] += entry.amount;
    if (policy == Policy::kSingle) {
      NodeId& first = first_server[entry.client];
      if (first == kInvalidNode) first = entry.server;
      if (first != entry.server) split_clients.push_back(entry.client);
    }
  }

  // 3. Completeness: every client fully served (clients with r_i = 0 are
  // trivially complete and need no entries).
  for (NodeId client : tree.Clients()) {
    const Requests needed = tree.RequestsOf(client);
    const Requests served = served_of_client[client];
    if (served != needed) {
      report.Fail("client " + std::to_string(client) + " served " + std::to_string(served) +
                  " of " + std::to_string(needed) + " requests");
    }
  }

  // 4. Single policy: one server per client. Only a client that failed in
  // step 2 has its distinct servers counted, for the error text, over its
  // sorted (client, server) pairs.
  if (!split_clients.empty()) {
    std::sort(split_clients.begin(), split_clients.end());
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (const ServiceEntry& entry : solution.assignment) {
      if (entry.server < tree.Size() && entry.amount > 0 &&
          std::binary_search(split_clients.begin(), split_clients.end(), entry.client)) {
        pairs.emplace_back(entry.client, entry.server);
      }
    }
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    for (std::size_t i = 0, j = 0; i < pairs.size(); i = j) {
      while (j < pairs.size() && pairs[j].first == pairs[i].first) ++j;
      report.Fail("Single policy: client " + std::to_string(pairs[i].first) + " uses " +
                  std::to_string(j - i) + " servers");
    }
  }

  // 5. Capacity.
  for (NodeId server = 0; server < tree.Size(); ++server) {
    if (load_of_server[server] > instance.Capacity()) {
      report.Fail("server " + std::to_string(server) + " overloaded: " +
                  std::to_string(load_of_server[server]) +
                  " > W=" + std::to_string(instance.Capacity()));
    }
  }

  // 6. Optional: idle replicas.
  if (forbid_idle_replicas) {
    for (NodeId replica = 0; replica < tree.Size(); ++replica) {
      if (is_replica[replica] && load_of_server[replica] == 0) {
        report.Fail("idle replica: " + std::to_string(replica));
      }
    }
  }

  return report;
}

bool IsFeasible(const Instance& instance, Policy policy, const Solution& solution) {
  return ValidateSolution(instance, policy, solution).ok;
}

}  // namespace rpt

