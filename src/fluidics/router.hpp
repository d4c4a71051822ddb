// Droplet routing on a (possibly faulty, possibly reconfigured) array.
//
// Router is a single-droplet BFS shortest path over *usable* cells (healthy
// primaries plus explicitly activated spares, minus explicit obstacles).
// After local reconfiguration the matched spares are activated, so routes
// transparently detour through replacement cells — this is the operational
// payoff of interstitial redundancy. Callers that only need route lengths
// use fluidics::HopBoard (hop_board.hpp), a word-parallel BFS that labels
// many targets per wave and builds no paths.
#pragma once

#include <cstdint>
#include <vector>

#include "biochip/hex_array.hpp"
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

}  // namespace dmfb::fluidics
