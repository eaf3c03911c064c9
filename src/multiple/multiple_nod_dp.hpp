// Exact solver for Multiple-NoD (Multiple policy, no distance constraints)
// on arbitrary trees, via a tree knapsack DP.
//
// The paper cites [3] (Benoit, Rehn-Sonigo, Robert, TPDS 2008) for a
// polynomial-time optimal Multiple-NoD algorithm. We substitute an
// equivalent-result tree knapsack DP (see docs/ARCHITECTURE.md): for each
// node j and each forwarded amount u, F_j(u) = minimum number of replicas in
// subtree(j) such that at most u requests are forwarded above j. The
// optimum is F_root(0). With a uniform W every F_j is convex, so it is
// stored by cost rather than by u: a table has at most (nodes below it + 1)
// entries, whatever the demand, and merging two tables is linear in their
// lengths, so the whole run is linear in the summed table lengths.
//
// Unlike multiple-bin, this solver allows r_i > W (a client may split its
// own requests between itself and ancestors), works for any arity, and is
// exact — we use it both as a baseline for the policy-gap experiments and to
// cross-check multiple-bin on NoD binary instances at sizes the brute-force
// solver cannot reach.
// The forward pass is level-synchronous: all subtree merges at one tree
// depth are independent, so they run as parallel chunks on the process-wide
// solver pool (SolverPool()). Outputs are byte-identical to the serial pass
// at any thread count.
// The DP core itself (tables, step merge, level sweep) lives in
// multiple/nod_dp_engine.hpp — this header keeps the batch-solve entry
// point; the incremental re-solver (src/incremental/) drives the same engine
// across update batches.
#pragma once

#include <cstddef>
#include <cstdint>

#include "model/instance.hpp"
#include "model/solution.hpp"
#include "multiple/nod_dp_engine.hpp"

namespace rpt::multiple {

/// Counters describing the work and footprint of one DP run.
struct MultipleNodDpStats {
  /// Cost-domain entries (8 bytes each) written across the F and prefix
  /// tables; the footprint is the engine's NodDpWork::storage_entries.
  std::uint64_t table_entries = 0;
  /// Entries written by the child merges, the dominant arithmetic of the
  /// forward pass.
  std::uint64_t convolve_cells = 0;
};

/// Result of the Multiple-NoD DP.
struct MultipleNodDpResult {
  /// True iff a feasible Multiple-NoD solution exists (it may not, e.g. a
  /// chain too short to absorb a giant client demand).
  bool feasible = false;
  /// The optimal solution (empty when infeasible).
  Solution solution;
  /// Work/footprint counters of the run (filled even when infeasible).
  MultipleNodDpStats stats;
};

/// Runs the DP and reconstructs an optimal placement plus routing.
/// Requires no distance constraint; throws InvalidArgument otherwise.
/// Runtime and memory grow with the summed table lengths, never with the
/// demand: at most (nodes below + 1) entries per table.
[[nodiscard]] MultipleNodDpResult SolveMultipleNodDp(const Instance& instance);

}  // namespace rpt::multiple
