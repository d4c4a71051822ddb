// Droplet routing on a (possibly faulty, possibly reconfigured) array.
//
// Two levels:
//  * Router — single-droplet BFS shortest path over *usable* cells (healthy
//    primaries plus explicitly activated spares, minus explicit obstacles).
//    After local reconfiguration the matched spares are activated, so routes
//    transparently detour through replacement cells — this is the
//    operational payoff of interstitial redundancy. Callers that only need
//    route lengths use fluidics::HopBoard (hop_board.hpp), a word-parallel
//    BFS that labels many targets per wave and builds no paths.
//  * MultiDropletRouter — prioritised space-time routing for concurrent
//    droplets: each droplet gets a timed route (cell per time step, waits
//    allowed) that respects the static and dynamic fluidic constraints
//    against all previously routed droplets.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "biochip/hex_array.hpp"
#include "fluidics/constraints.hpp"
#include "reconfig/local_reconfig.hpp"

namespace dmfb::fluidics {

/// Cells a droplet may use.
class UsableCells {
 public:
  /// Healthy primaries are usable; spares only if activated.
  explicit UsableCells(const biochip::HexArray& array);

  /// Activates one spare (e.g. from a reconfiguration plan).
  void activate_spare(hex::CellIndex spare);
  /// Activates all replacement spares of `plan`.
  void activate_plan(const reconfig::ReconfigPlan& plan);

  /// Adds a temporary obstacle (e.g. a parked droplet's exclusion zone).
  void block(hex::CellIndex cell);
  void unblock(hex::CellIndex cell);

  bool usable(hex::CellIndex cell) const;

  const biochip::HexArray& array() const noexcept { return array_; }

 private:
  // Per-cell flag bits; health is read live from the array.
  static constexpr std::uint8_t kSpare = 1;
  static constexpr std::uint8_t kActivated = 2;
  static constexpr std::uint8_t kBlocked = 4;

  const biochip::HexArray& array_;
  std::vector<std::uint8_t> flags_;
};

/// Single-droplet shortest-path router (all hops cost 1).
class Router {
 public:
  explicit Router(const UsableCells& usable);

  /// Shortest route from `from` to `to`, inclusive; empty when unreachable.
  /// BFS, so the exact path depends on neighbour order.
  std::vector<hex::CellIndex> shortest_route(hex::CellIndex from,
                                             hex::CellIndex to) const;

  /// True iff `to` is reachable from `from` over usable cells.
  bool reachable(hex::CellIndex from, hex::CellIndex to) const;

 private:
  const UsableCells& usable_;
};

/// One droplet's routing request, in priority order.
struct RouteRequest {
  DropletId droplet = 0;
  hex::CellIndex from = hex::kInvalidCell;
  hex::CellIndex to = hex::kInvalidCell;
  /// Droplets this one may touch (merge targets) — constraints are waived
  /// against them.
  std::vector<DropletId> exempt;
};

/// A routed droplet trajectory: cells[t] is the position at time t.
/// Once arrived the droplet parks at its destination.
struct TimedRoute {
  DropletId droplet = 0;
  std::vector<hex::CellIndex> cells;

  hex::CellIndex at(std::int64_t t) const;
  std::int64_t arrival_time() const noexcept {
    return static_cast<std::int64_t>(cells.size()) - 1;
  }
};

/// Prioritised space-time router.
class MultiDropletRouter {
 public:
  MultiDropletRouter(const UsableCells& usable, std::int32_t horizon = 512);

  /// Routes the requests in order; each respects constraints against all
  /// earlier (already routed) droplets. Returns nullopt when any droplet
  /// cannot reach its goal within the horizon.
  std::optional<std::vector<TimedRoute>> route(
      const std::vector<RouteRequest>& requests) const;

 private:
  const UsableCells& usable_;
  std::int32_t horizon_;
};

}  // namespace dmfb::fluidics
