// Algorithm 2 of the paper: `single-nod`, a 2-approximation for Single-NoD
// (no distance constraints), Theorem 4. Time O((∆log∆ + |C|)·|T|).
//
// The algorithm keeps, per internal node j, a list L_j of pending *bundles*.
// A bundle is rooted at some node j' of the subtree and aggregates requests
// of one or more clients below j'; placing a replica at j' can serve the
// whole bundle (no distance constraints, j' is an ancestor of all its
// clients). When the bundles at j exceed W, j becomes a server and greedily
// absorbs the smallest bundles; the first bundle that overflows gets its own
// server at its root (the jmin of the paper); the remaining bundles are
// re-parented to L_parent(j) unchanged.
//
// Deviation from the pseudo-code (documented in DESIGN.md): at the root, a
// replica is only placed when unserved requests remain; the paper's listing
// adds the root unconditionally, which would waste a replica on an
// all-zero-requests instance.
#pragma once

#include "model/instance.hpp"
#include "model/solution.hpp"
#include "tree/topology_view.hpp"

namespace rpt::single {

/// Breakdown matching the R1/R2/R3 sets in the proof of Theorem 4.
struct SingleNodStats {
  std::uint64_t overflow_servers = 0;  ///< R1: servers placed at overflowing nodes (line 11)
  std::uint64_t extra_servers = 0;     ///< R2: the jmin companion servers (line 16); |R2| == |R1|
  std::uint64_t root_spill_servers = 0;  ///< R3: bundles left at the root (line 25)
  bool root_server = false;              ///< whether the final root replica was placed
};

/// Result of running single-nod.
struct SingleNodResult {
  Solution solution;
  SingleNodStats stats;
};

/// Ablation knobs (benchmark E9). Defaults reproduce the paper's algorithm.
struct SingleNodOptions {
  /// Order in which an overflowing node absorbs pending bundles. The paper
  /// sorts non-decreasing (smallest first, line 13-17 of Algorithm 2); the
  /// largest-first ablation loses the Theorem 4 guarantee.
  enum class BundleOrder : std::uint8_t { kSmallestFirst, kLargestFirst };
  BundleOrder order = BundleOrder::kSmallestFirst;
};

/// Runs Algorithm 2. Requires no distance constraint on the instance and
/// r_i <= W for every client; throws InvalidArgument otherwise. Returns a
/// feasible Single solution, with at most 2x the optimal replica count under
/// the default options.
[[nodiscard]] SingleNodResult SolveSingleNod(const Instance& instance,
                                             const SingleNodOptions& options = {});

/// View form over either backend (base Tree or mutated TreeOverlay): client
/// i issues the view's own RequestsOf(i), and dead overlay ids are skipped
/// entirely. Requires capacity > 0, every client demand <= capacity, and 0 on
/// every internal and dead entry of the view's request column; throws
/// InvalidArgument otherwise. Over a base Tree this is byte-identical to the
/// Instance form. It is the pass IncrementalSolver's single policy runs on
/// every re-solve, with no instance materialized.
[[nodiscard]] SingleNodResult SolveSingleNod(TopologyView view, Requests capacity,
                                             const SingleNodOptions& options = {});

}  // namespace rpt::single
