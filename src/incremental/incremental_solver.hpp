// IncrementalSolver — re-solving a placement against a stream of demand,
// capacity, and topology updates without re-optimizing the world per event.
//
// The batch solvers answer "given this instance, where do replicas go?".
// Streaming workloads ask a different question: the instance barely changes
// between consecutive solves, so how much of the previous solve survives?
// For the Multiple-NoD DP the answer is structural: node j's tables depend
// only on subtree(j), so a demand change at client i invalidates exactly the
// root path of i — and a topology change (attach/detach/migrate) invalidates
// exactly the root paths of the old and new attachment points. The solver
// owns a long-lived NodDpEngine (topology view + DP tables + prefix tables),
// applies each UpdateEvent batch, and re-runs the forward pass on the union
// of dirty root chains — every untouched subtree's tables are reused
// verbatim, and independent dirty chains recompute in parallel
// (ParallelForChunked on the process-wide SolverPool()).
//
// Topology and demand: the solver owns a TreeOverlay (tree/tree_overlay.hpp)
// from construction — a delta view with appended ids and tombstones — and
// the overlay's request column is its one demand state. Every batch runs one
// staging loop: its events apply in order to a copy of the demand column
// and, when the batch has a topology event, to a clone of the overlay; a
// throwing event discards the copies and leaves the solver untouched. A
// demand-only batch never clones the overlay: its commit writes the changed
// clients into the live one, falls first, so no write passes the staged total.
// View() exposes the current topology and demand; ids are stable for the
// solver's lifetime (attach appends fresh ids, detach tombstones forever).
//
// Guarantees:
//  * Equivalence — after every Apply() the solution is byte-identical
//    (canonical form, cost, and hash) to a from-scratch solve of the
//    current state: construct a second solver with Engine::kFullResolve
//    (which compacts the overlay through TreeBuilder::Build and maps the
//    solution back to view ids) and compare. Enforced by
//    tests/test_incremental.cpp at solver-pool widths 1 and 4.
//  * Determinism — solutions and all stats except wall time are identical
//    at any thread count (the engine's level sweeps are deterministic).
//  * Atomicity — Apply() stages the whole batch before committing anything;
//    on InvalidArgument the solver state is unchanged.
//
// Policies: Policy::kMultiple runs the incremental DP (or its from-scratch
// oracle under Engine::kFullResolve). Policy::kSingle re-runs the single-nod
// bundle pass (single/single_nod.hpp) over the current view on every
// re-solve, under either engine, and counts each one as a full recompute:
// the pass is near-linear, and a re-solve must rebuild and canonicalize the
// whole solution anyway, so per-node caches of the pass would save little.
// Both policies require a NoD instance (no distance constraint).
//
// Ownership/lifetime: the overlay copies what it needs out of the instance's
// Tree, so the Instance passed to a constructor may be destroyed once the
// constructor returns. Not thread-safe: one solver per thread of control.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "incremental/update_event.hpp"
#include "model/instance.hpp"
#include "model/solution.hpp"
#include "multiple/nod_dp_engine.hpp"
#include "tree/topology_view.hpp"
#include "tree/tree_overlay.hpp"

namespace rpt::incremental {

/// Cumulative counters over a solver's lifetime. Everything here is
/// deterministic (thread-count invariant); wall time is deliberately absent.
struct IncrementalStats {
  std::uint64_t events_applied = 0;   ///< events across all Apply() batches
  std::uint64_t topology_events = 0;  ///< attach/detach/migrate/link events among them
  std::uint64_t resolves = 0;         ///< Apply() batches processed (incl. the initial solve)
  std::uint64_t full_recomputes = 0;  ///< re-solves that processed every node (all kSingle ones)
  std::uint64_t nodes_recomputed = 0; ///< DP nodes re-processed across all re-solves
  std::uint64_t nodes_reused = 0;     ///< DP nodes whose tables were reused verbatim
};

/// Execution options for IncrementalSolver.
struct SolverOptions {
  Engine engine = Engine::kIncremental;
  Policy policy = Policy::kMultiple;
};

class IncrementalSolver {
 public:
  using Options = SolverOptions;

  /// Solves `instance` from scratch (the warm state every later Apply()
  /// updates). Requires no distance constraint; throws InvalidArgument
  /// otherwise.
  explicit IncrementalSolver(const Instance& instance, Options options = {});

  /// Restore constructor (the crash-recovery path): seeds the solver from a
  /// previously exported overlay — see ExportOverlay() — instead of the
  /// base instance's own topology/demands. `base` is only checked for a
  /// distance constraint, and `capacity` is the current W, which may have
  /// diverged from the instance's via kCapacity events. Solves the restored
  /// state from scratch, so the DP tables are warm before the WAL tail
  /// replays.
  IncrementalSolver(const Instance& base, TreeOverlay restored,
                    Requests capacity, Options options = {});

  IncrementalSolver(const IncrementalSolver&) = delete;
  IncrementalSolver& operator=(const IncrementalSolver&) = delete;

  /// Applies one batch of events atomically (events within a batch apply in
  /// order; an InvalidArgument anywhere in the batch leaves the solver
  /// unchanged), then re-solves. Returns Feasible() for the new state — an
  /// infeasible state is not an error (e.g. a chain too short to absorb a
  /// giant demand); the next batch may make it feasible again.
  bool Apply(std::span<const UpdateEvent> events);

  /// True iff the current state admits a feasible placement.
  [[nodiscard]] bool Feasible() const noexcept { return feasible_; }

  /// The current optimal (Multiple) / 2-approx (Single) placement in view
  /// ids, canonical form; empty when infeasible.
  [[nodiscard]] const Solution& Current() const noexcept { return solution_; }

  /// The current topology and demand: the solver's overlay. Valid until
  /// the next Apply().
  [[nodiscard]] TopologyView View() const noexcept { return overlay_; }
  /// True iff the overlay has seen a topology event (or was deserialized).
  [[nodiscard]] bool HasTopologyChanges() const noexcept {
    return overlay_.TopologyVersion() > 0;
  }
  [[nodiscard]] Requests Capacity() const noexcept { return capacity_; }
  /// The whole per-node demand column (indexed by view NodeId; internal and
  /// dead entries 0) of the current state — the snapshot-export hook for the
  /// serve layer: a serve::PlacementSnapshot is built from exactly (View(),
  /// Capacity(), Demands(), Current()). Valid until the next Apply(); copy
  /// before publishing across threads (PlacementSnapshot::Build does).
  [[nodiscard]] std::span<const Requests> Demands() const noexcept {
    return overlay_.RequestsColumn();
  }
  [[nodiscard]] Requests TotalDemand() const noexcept { return overlay_.TotalRequests(); }
  [[nodiscard]] const IncrementalStats& Stats() const noexcept { return stats_; }
  [[nodiscard]] const Options& GetOptions() const noexcept { return options_; }

  /// Snapshot of the current (topology, demands, capacity) state as a
  /// standalone Instance plus the id translation into it: the overlay
  /// compacted through TreeBuilder::Build (remap[view_id] == instance id,
  /// kInvalidNode for tombstones; the identity until the first topology
  /// event). This is exactly what the kFullResolve oracle solves.
  struct Materialized {
    Instance instance;
    std::vector<NodeId> remap;
  };
  [[nodiscard]] Materialized MaterializeCompact() const;

  /// MaterializeCompact().instance — kept for callers that only need the
  /// instance (note the ids are compacted ids once topology has changed).
  [[nodiscard]] Instance MaterializeInstance() const;

  /// Self-contained copy of the current (topology, demand) state keyed by
  /// VIEW ids — tombstones and appended slots preserved, so later events
  /// recorded against these ids replay unchanged against a solver rebuilt
  /// via the restore constructor. This is what a serve-layer checkpoint
  /// persists (capacity travels separately). O(|view|).
  [[nodiscard]] TreeOverlay ExportOverlay() const { return overlay_; }

 private:
  void Resolve(std::span<const NodeId> touched, bool capacity_changed);

  /// Topology plus the one demand column. A topology batch stages into a
  /// clone and move-assigns it back, so the engine's view keeps its address.
  TreeOverlay overlay_;
  Options options_;
  Requests capacity_;
  /// Long-lived DP tables; engaged only for (kMultiple, kIncremental) — the
  /// full-resolve oracle and the single policy keep no warm state, so they
  /// skip the engine's O(n) columns entirely.
  std::optional<multiple::NodDpEngine> engine_;
  Solution solution_;
  bool feasible_ = false;
  IncrementalStats stats_;
};

}  // namespace rpt::incremental
