#include "incremental/incremental_solver.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>

#include "multiple/multiple_nod_dp.hpp"
#include "single/single_nod.hpp"

namespace rpt::incremental {

const char* EngineName(Engine engine) noexcept {
  return engine == Engine::kIncremental ? "incremental" : "full-resolve";
}

IncrementalSolver::IncrementalSolver(const Instance& instance, Options options)
    : IncrementalSolver(instance, TreeOverlay(instance.GetTree()), instance.Capacity(), options) {}

IncrementalSolver::IncrementalSolver(const Instance& base, TreeOverlay restored,
                                     Requests capacity, Options options)
    : overlay_(std::move(restored)), options_(options), capacity_(capacity) {
  RPT_REQUIRE(!base.HasDistanceConstraint(),
              "incremental: only valid without distance constraints (NoD)");
  RPT_REQUIRE(capacity_ > 0, "incremental: restored capacity must be positive");
  if (options_.engine == Engine::kIncremental && options_.policy == Policy::kMultiple) {
    engine_.emplace(View(), capacity_);
  }
  Resolve({}, /*full=*/true);
}

// Writes each client's demand into the overlay's request column, falls
// first: the column's running total then never passes the larger of its
// starting and final totals, so SetRequests's overflow guard cannot reject a
// state whose totals both fit, whatever order the clients come in.
static void WriteRequests(TreeOverlay& overlay, std::span<const NodeId> clients,
                          std::span<const Requests> demand) {
  for (const NodeId client : clients) {
    if (demand[client] < overlay.RequestsOf(client)) overlay.SetRequests(client, demand[client]);
  }
  for (const NodeId client : clients) overlay.SetRequests(client, demand[client]);
}

IncrementalSolver::Materialized IncrementalSolver::MaterializeCompact() const {
  TreeOverlay::CompactResult compact = overlay_.Compact();
  return Materialized{Instance(std::move(compact.tree), capacity_), std::move(compact.remap)};
}

Instance IncrementalSolver::MaterializeInstance() const {
  return MaterializeCompact().instance;
}

// Magnitude of a signed delta as an unsigned value, defined for the whole
// int64 range (a bare -delta is UB at INT64_MIN, which would let one
// pathological event wrap validation itself).
static Requests NegMagnitude(std::int64_t delta) noexcept {
  return static_cast<Requests>(-(delta + 1)) + 1;
}

// Every batch runs one staging loop. Events apply in order to a copy of the
// demand column and to a local capacity; topology events apply to a clone of
// the overlay, which only a batch with a topology event makes. Each event is
// checked before it is staged, so an InvalidArgument anywhere in the batch
// leaves the solver untouched. The projected total is guarded wider than
// Requests: a wrapped demand would silently corrupt every DP table bound.
bool IncrementalSolver::Apply(std::span<const UpdateEvent> events) {
  constexpr Requests kMaxDemand = std::numeric_limits<Requests>::max();
  const auto topology_events =
      static_cast<std::uint64_t>(std::ranges::count_if(events, &UpdateEvent::IsTopology));
  std::optional<TreeOverlay> next;
  if (topology_events > 0) next.emplace(overlay_);
  const TopologyView view = next ? TopologyView(*next) : View();
  std::vector<Requests> demand(Demands().begin(), Demands().end());
  unsigned __int128 total = TotalDemand();
  Requests capacity = capacity_;
  std::vector<NodeId> seeds;             // dirty-chain seeds, filtered to live at commit
  std::vector<NodeId> children_changed;  // parents whose child list shrank/reordered
  std::vector<NodeId> removed;           // ids tombstoned by this batch

  const auto stage_demand = [&](NodeId client, Requests value) {
    const Requests old = demand[client];
    total = total - old + value;
    RPT_REQUIRE(total <= kMaxDemand, "incremental: batch would overflow the total demand");
    demand[client] = value;
    if (next) next->SetRequests(client, value);
    // A topology batch seeds every client a demand event names; a
    // demand-only batch seeds only the clients whose demand changes.
    if (next || value != old) seeds.push_back(client);
  };
  const auto require_live = [&](NodeId node, const char* what) {
    RPT_REQUIRE(node < view.Size() && view.IsLive(node), what);
  };

  for (const UpdateEvent& event : events) {
    if (!event.IsTopology() && event.kind != UpdateEvent::Kind::kCapacity) {
      RPT_REQUIRE(event.client < view.Size() && view.IsLive(event.client) &&
                      view.IsClient(event.client),
                  "incremental: update events must target a live client leaf");
    }
    switch (event.kind) {
      case UpdateEvent::Kind::kDemandDelta: {
        const Requests current = demand[event.client];
        if (event.delta < 0) {
          const Requests magnitude = NegMagnitude(event.delta);
          RPT_REQUIRE(current >= magnitude,
                      "incremental: demand delta would drop a client below zero");
          stage_demand(event.client, current - magnitude);
        } else {
          const Requests magnitude = static_cast<Requests>(event.delta);
          RPT_REQUIRE(current <= kMaxDemand - magnitude,
                      "incremental: demand delta would wrap through unsigned Requests");
          stage_demand(event.client, current + magnitude);
        }
        break;
      }
      case UpdateEvent::Kind::kClientAdd:
        RPT_REQUIRE(demand[event.client] == 0,
                    "incremental: kClientAdd targets a client that is already active");
        RPT_REQUIRE(event.value > 0, "incremental: kClientAdd needs a positive demand");
        stage_demand(event.client, event.value);
        break;
      case UpdateEvent::Kind::kClientRemove:
        stage_demand(event.client, 0);  // idle remove is a no-op
        break;
      case UpdateEvent::Kind::kCapacity:
        RPT_REQUIRE(event.value > 0, "incremental: capacity must stay positive");
        capacity = event.value;
        break;
      case UpdateEvent::Kind::kAttachSubtree: {
        const NodeId first = next->AttachSubtree(event.client, event.spec);
        demand.resize(next->Size(), 0);
        for (NodeId id = first; id < next->Size(); ++id) {
          demand[id] = next->RequestsOf(id);
          total += demand[id];
          seeds.push_back(id);  // fresh ids have no tables yet — always dirty
        }
        break;
      }
      case UpdateEvent::Kind::kDetachSubtree: {
        require_live(event.client, "incremental: detach targets a dead or out-of-range node");
        const NodeId parent = next->Parent(event.client);
        std::vector<NodeId> dead;
        next->DetachSubtree(event.client, &dead);  // rejects the root itself
        for (const NodeId id : dead) {
          total -= demand[id];
          demand[id] = 0;
        }
        removed.insert(removed.end(), dead.begin(), dead.end());
        seeds.push_back(parent);
        children_changed.push_back(parent);
        break;
      }
      case UpdateEvent::Kind::kMigrateSubtree: {
        require_live(event.client, "incremental: migrate targets a dead or out-of-range node");
        const NodeId old_parent = next->Parent(event.client);
        next->MigrateSubtree(event.client, event.parent, event.value);
        seeds.push_back(old_parent);
        seeds.push_back(event.parent);
        // The moved root keeps valid tables, but it must still be seeded:
        // the engines' prefix-reuse scan assumes every child APPENDED to a
        // parent's list is dirty (true for attach — fresh ids have no
        // tables). A clean migrated-in child would let the scan start past
        // its index against stored prefixes that never folded it in.
        seeds.push_back(event.client);
        // The old parent's child list lost a middle entry (stored prefixes
        // index the old list) and needs a stamped full rebuild; the new
        // parent only appended a now-dirty child, which the exact scan
        // handles.
        children_changed.push_back(old_parent);
        break;
      }
      case UpdateEvent::Kind::kLinkCapacity:
        require_live(event.client, "incremental: link event targets a dead or out-of-range node");
        next->SetLinkDelta(event.client, event.value);
        // No seeds: F tables depend on subtree demands and W only, never on
        // edge lengths — the placement is unchanged.
        break;
    }
  }

  // Commit. Nothing below throws on valid input: WriteRequests stays within
  // the current and staged totals, both of which fit.
  const bool capacity_changed = capacity != capacity_;
  capacity_ = capacity;
  stats_.events_applied += events.size();
  stats_.topology_events += topology_events;
  if (next) {
    overlay_ = std::move(*next);
    // Later events in the batch may have killed nodes an earlier event
    // recorded (attach-then-detach, detach below a detach): drop dead
    // entries — a dead seed's chain is either gone or re-seeded via its
    // parent.
    const auto drop_dead = [this](std::vector<NodeId>& ids) {
      std::erase_if(ids, [this](NodeId id) { return !overlay_.IsLive(id); });
    };
    drop_dead(seeds);
    drop_dead(children_changed);
    if (engine_) engine_->ApplyTopology(View(), children_changed, removed);
  } else {
    // A demand-only batch never clones the overlay: it writes the changed
    // clients into the live request column.
    WriteRequests(overlay_, seeds, demand);
  }
  Resolve(seeds, /*full=*/capacity_changed);
  return feasible_;
}

void IncrementalSolver::Resolve(std::span<const NodeId> touched, bool full) {
  ++stats_.resolves;
  const TopologyView view = View();

  if (options_.policy == Policy::kSingle) {
    // The batch pass over the current view, under either engine.
    ++stats_.full_recomputes;
    stats_.nodes_recomputed += view.LiveCount();
    // Single-nod needs every demand to fit one server (r_i <= W); above
    // that the state is infeasible — a state, not an error.
    for (const NodeId client : view.Clients()) {
      if (view.RequestsOf(client) > capacity_) {
        feasible_ = false;
        solution_ = Solution{};
        return;
      }
    }
    feasible_ = true;
    solution_ = single::SolveSingleNod(view, capacity_).solution;
    solution_.Canonicalize();
    return;
  }

  if (options_.engine == Engine::kFullResolve) {
    // The oracle: exactly what a caller without the incremental engine
    // would run — compact the current state through TreeBuilder::Build,
    // solve from scratch, and translate the solution back into view ids.
    ++stats_.full_recomputes;
    stats_.nodes_recomputed += view.LiveCount();
    const Materialized materialized = MaterializeCompact();
    auto result = multiple::SolveMultipleNodDp(materialized.instance);
    feasible_ = result.feasible;
    if (!feasible_) {
      solution_ = Solution{};
      return;
    }
    if (!HasTopologyChanges()) {
      solution_ = std::move(result.solution);  // identity map, already canonical
      return;
    }
    // remap is view id -> compact id; the solution needs the inverse.
    std::vector<NodeId> inverse(materialized.instance.GetTree().Size(), kInvalidNode);
    for (NodeId view_id = 0; view_id < materialized.remap.size(); ++view_id) {
      if (materialized.remap[view_id] != kInvalidNode) {
        inverse[materialized.remap[view_id]] = view_id;
      }
    }
    solution_ = MapNodeIds(result.solution, inverse);
    solution_.Canonicalize();  // view ids sort differently than compact ids
    return;
  }

  // Incremental Multiple-NoD: dirty-chain recompute, full pass only when
  // forced (initial solve, capacity change).
  RPT_CHECK(engine_.has_value());
  if (full) {
    engine_->SetCapacity(capacity_);
    engine_->ComputeAll();
    ++stats_.full_recomputes;
  } else {
    engine_->RecomputeDirty(touched);
  }
  stats_.nodes_recomputed += engine_->LastPassNodes();
  stats_.nodes_reused += view.LiveCount() - engine_->LastPassNodes();
  feasible_ = engine_->Feasible();
  solution_ = feasible_ ? engine_->Backtrack() : Solution{};
}

}  // namespace rpt::incremental
