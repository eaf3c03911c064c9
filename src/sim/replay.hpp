// Discrete-time replay of a placement under stochastic demand — static
// (fixed plan) or streaming (the plan tracks a demand-update trace through
// the incremental re-solve engine).
//
// The paper's model is static: r_i requests per time unit, servers of
// capacity W per time unit, distance = QoS bound. This module closes the
// loop to the motivating applications (VoD/ISP delivery, paper §1). Each
// tick every client draws a Poisson demand with mean r_i * demand_factor,
// splits it over its assigned servers proportionally to the planned
// routing, and each server drains up to W requests per tick from a FIFO
// backlog. The report captures utilization, backlog dynamics and queueing
// delay, and the request-weighted service distance (the QoS the dmax
// constraint was buying).
//
// Two modes share that tick loop:
//  * Static — Replay(instance, solution, config) with an empty trace: the
//    plan is fixed for the whole run, exactly the paper's setting. With
//    demand_factor <= 1 a valid placement never builds sustained backlog;
//    factors > 1 model surges and expose where the placement saturates.
//  * Streaming — Replay(instance, config) with config.trace non-empty: at
//    the start of each tick the tick's UpdateEvent batch is applied to an
//    incremental::IncrementalSolver and the placement is re-planned, so
//    routing follows the demand stream. The default engine re-solves only
//    the dirty ancestor chains (Engine::kIncremental); Engine::kFullResolve
//    is the from-scratch oracle kept for cross-checking — both produce
//    byte-identical placements, so the replay outcome is engine-invariant.
//    Streaming requires a NoD instance (the re-planning solvers have no
//    distance constraint) and a trace that keeps every tick feasible.
//
// Determinism: everything in ReplayReport except replan_ms is a pure
// function of (instance, solution/trace, config) — arrivals are drawn in
// ascending client-id order from a seeded Rng, and the re-planning engines
// are thread-count invariant.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "incremental/update_event.hpp"
#include "model/instance.hpp"
#include "model/solution.hpp"
#include "support/rng.hpp"

namespace rpt::incremental {
class IncrementalSolver;
}  // namespace rpt::incremental

namespace rpt::sim {

/// Simulation parameters.
struct ReplayConfig {
  std::uint64_t ticks = 100;    ///< simulated time units
  double demand_factor = 1.0;   ///< mean demand multiplier (1.0 = planned load)
  std::uint64_t seed = 1;       ///< RNG seed (deterministic replay)
  /// Streaming mode: one event batch per tick, applied before the tick's
  /// arrivals. Empty = static replay. Non-empty requires exactly
  /// trace.size() == ticks — a mismatch throws instead of silently
  /// truncating either side.
  incremental::UpdateTrace trace;
  /// Re-planning engine for streaming mode (ignored when trace is empty).
  incremental::Engine engine = incremental::Engine::kIncremental;
  /// Re-planning policy for streaming mode: kMultiple (incremental DP) or
  /// kSingle (the single-nod batch pass, re-run on every batch). Ignored
  /// when trace is empty.
  Policy policy = Policy::kMultiple;
  /// Streaming-mode hook fired exactly when the plan may have changed: once
  /// after the initial solve (tick = 0, before any arrivals) and once after
  /// every successfully applied per-tick batch (with that tick's index).
  /// This is the churn seam the serve layer plugs into — the callback can
  /// export (GetTree, Capacity, Demands, Current) into a
  /// serve::PlacementSnapshot and publish it while the replay keeps driving
  /// demand. Called from the replay thread; keep it cheap or the replay
  /// stalls (publishing a snapshot is one O(|T|) build). Ignored in static
  /// mode.
  std::function<void(const incremental::IncrementalSolver&, std::uint64_t)> on_replan;
};

/// Per-server outcome. In streaming mode a server appears here if any plan
/// of the run placed a replica on it; planned_load reflects the *final*
/// plan (0 when the last plan dropped the replica).
struct ServerReport {
  NodeId server = kInvalidNode;
  Requests planned_load = 0;      ///< load assigned by the (final) plan per tick
  std::uint64_t arrived = 0;      ///< requests that arrived over the run
  std::uint64_t served = 0;       ///< requests drained over the run
  std::uint64_t peak_backlog = 0; ///< worst queue length observed
  std::uint64_t final_backlog = 0;
  double utilization = 0.0;       ///< served / sum over ticks of W_t
};

/// Whole-run outcome.
struct ReplayReport {
  std::uint64_t ticks = 0;
  std::uint64_t arrived = 0;
  std::uint64_t served = 0;
  std::uint64_t peak_backlog_total = 0;  ///< max over ticks of summed backlogs
  double mean_wait_ticks = 0.0;          ///< queueing delay per served request
  double mean_service_distance = 0.0;    ///< request-weighted client->server distance
  Distance max_service_distance = 0;     ///< worst distance in any plan (<= dmax)
  std::vector<ServerReport> servers;

  // Streaming-mode re-planning statistics (zero in static mode). All
  // deterministic except replan_ms.
  std::uint64_t resolves = 0;          ///< solver passes, including the initial solve
  std::uint64_t events_applied = 0;    ///< events consumed from the trace
  std::uint64_t nodes_recomputed = 0;  ///< DP nodes re-processed across the run
  std::uint64_t nodes_reused = 0;      ///< DP nodes reused from warm tables
  double mean_replicas = 0.0;          ///< tick-averaged placement size
  double replan_ms = 0.0;              ///< wall time spent re-planning (nondeterministic)

  /// True iff the run ended with empty queues everywhere.
  [[nodiscard]] bool Drained() const noexcept { return arrived == served; }
};

/// Static replay: replays `solution` on `instance` under a fixed plan. The
/// solution must be feasible for the Multiple policy (Single solutions are
/// a special case); throws InvalidArgument otherwise — the replay trusts
/// the plan it is given. config.trace must be empty (use the streaming
/// overload below for traces).
[[nodiscard]] ReplayReport Replay(const Instance& instance, const Solution& solution,
                                  const ReplayConfig& config);

/// Streaming replay: solves `instance` from scratch, then follows
/// config.trace tick by tick, re-planning through the configured engine
/// before each tick's arrivals. Requires a NoD instance, a non-empty trace
/// with trace.size() == ticks, and a trace that keeps every tick feasible
/// (throws InvalidArgument otherwise).
[[nodiscard]] ReplayReport Replay(const Instance& instance, const ReplayConfig& config);

/// Draws a Poisson-distributed integer with the given mean (Knuth's method
/// for small means, normal approximation above 64). Deterministic in `rng`.
[[nodiscard]] std::uint64_t DrawPoisson(Rng& rng, double mean);

/// Splits `demand` into |weights| integer parts proportional to the weights
/// using largest-remainder rounding: every part is the floor of its exact
/// proportional quota, and the leftover units (fewer than |weights|) go to
/// the parts with the largest fractional remainders, ties broken by index so
/// the split is deterministic. The parts always sum to `demand` exactly;
/// 128-bit intermediates keep demand * weight exact even when both are
/// large. Requires a non-empty weight vector with a positive sum.
[[nodiscard]] std::vector<std::uint64_t> SplitLargestRemainder(
    std::uint64_t demand, const std::vector<Requests>& weights);

}  // namespace rpt::sim
