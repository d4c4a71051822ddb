#include "fluidics/router.hpp"

#include <algorithm>
#include <limits>
#include <cstdlib>
#include <queue>
#include <span>

#include "common/contracts.hpp"
#include "hexgrid/hex_coord.hpp"

namespace dmfb::fluidics {

UsableCells::UsableCells(const biochip::HexArray& array)
    : array_(array), flags_(static_cast<std::size_t>(array.cell_count()), 0) {
  for (const hex::CellIndex spare : array.spares()) {
    flags_[static_cast<std::size_t>(spare)] = kSpare;
  }
}

void UsableCells::activate_spare(hex::CellIndex spare) {
  DMFB_EXPECTS(array_.role(spare) == biochip::CellRole::kSpare);
  flags_[static_cast<std::size_t>(spare)] |= kActivated;
}

void UsableCells::activate_plan(const reconfig::ReconfigPlan& plan) {
  for (const reconfig::Replacement& replacement : plan.replacements) {
    // Unused-primary replacements (combined pool) are usable already.
    if (array_.role(replacement.spare) == biochip::CellRole::kSpare) {
      activate_spare(replacement.spare);
    }
  }
}

void UsableCells::deactivate_plan(const reconfig::ReconfigPlan& plan) {
  for (const reconfig::Replacement& replacement : plan.replacements) {
    if (array_.role(replacement.spare) == biochip::CellRole::kSpare) {
      flags_[static_cast<std::size_t>(replacement.spare)] &=
          static_cast<std::uint8_t>(~kActivated);
    }
  }
}

// Cells outside the array are never usable, so (un)blocking one is a no-op.
void UsableCells::block(hex::CellIndex cell) {
  if (cell < 0 || cell >= array_.cell_count()) return;
  flags_[static_cast<std::size_t>(cell)] |= kBlocked;
}

void UsableCells::unblock(hex::CellIndex cell) {
  if (cell < 0 || cell >= array_.cell_count()) return;
  flags_[static_cast<std::size_t>(cell)] &=
      static_cast<std::uint8_t>(~kBlocked);
}

bool UsableCells::usable(hex::CellIndex cell) const {
  if (cell < 0 || cell >= array_.cell_count()) return false;
  const std::uint8_t flags = flags_[static_cast<std::size_t>(cell)];
  if ((flags & kBlocked) != 0) return false;
  if ((flags & kSpare) != 0 && (flags & kActivated) == 0) return false;
  return array_.health(cell) != biochip::CellHealth::kFaulty;
}

Router::Router(const UsableCells& usable) : usable_(usable) {}

std::vector<hex::CellIndex> Router::shortest_route(hex::CellIndex from,
                                                   hex::CellIndex to) const {
  if (!usable_.usable(from) || !usable_.usable(to)) return {};
  const auto& array = usable_.array();
  std::vector<std::int32_t> parent(
      static_cast<std::size_t>(array.cell_count()), -2);
  std::queue<hex::CellIndex> frontier;
  parent[static_cast<std::size_t>(from)] = -1;
  frontier.push(from);
  while (!frontier.empty() && parent[static_cast<std::size_t>(to)] == -2) {
    const hex::CellIndex v = frontier.front();
    frontier.pop();
    for (const hex::CellIndex u : array.neighbors_of(v)) {
      if (parent[static_cast<std::size_t>(u)] != -2) continue;
      if (!usable_.usable(u)) continue;
      parent[static_cast<std::size_t>(u)] = v;
      frontier.push(u);
    }
  }
  if (parent[static_cast<std::size_t>(to)] == -2) return {};
  std::vector<hex::CellIndex> route;
  for (hex::CellIndex v = to; v != -1;
       v = parent[static_cast<std::size_t>(v)]) {
    route.push_back(v);
  }
  std::reverse(route.begin(), route.end());
  return route;
}

bool Router::reachable(hex::CellIndex from, hex::CellIndex to) const {
  return !shortest_route(from, to).empty();
}

std::int32_t Router::hop_count(hex::CellIndex from, hex::CellIndex to) {
  if (!usable_.usable(from) || !usable_.usable(to)) return -1;
  if (from == to) return 0;
  const auto& array = usable_.array();
  const std::span<const hex::HexCoord> coords = array.region().cells();
  if (g_.empty()) {  // first search: size the buffers to the array
    g_.assign(coords.size(), 0);
    stamp_.assign(coords.size(), 0);
  }
  if (++epoch_ == 0) {  // wrapped: forget every stale stamp
    std::fill(stamp_.begin(), stamp_.end(), 0U);
    epoch_ = 1;
  }
  const hex::HexCoord goal = coords[static_cast<std::size_t>(to)];
  // Hex distance to the goal: admissible and consistent for unit hops.
  const auto h = [&](hex::CellIndex cell) {
    const hex::HexCoord at = coords[static_cast<std::size_t>(cell)];
    const std::int32_t dq = at.q - goal.q;
    const std::int32_t dr = at.r - goal.r;
    return (std::abs(dq) + std::abs(dr) + std::abs(dq + dr)) / 2;
  };
  const auto g_of = [&](hex::CellIndex cell) {
    const auto i = static_cast<std::size_t>(cell);
    return stamp_[i] == epoch_ ? g_[i]
                               : std::numeric_limits<std::int32_t>::max();
  };

  // A hop changes h by at most 1, so f = g + h grows by 0, 1 or 2 and the
  // open list needs only the buckets at f, f + 1 and f + 2 (indexed by
  // f mod 3). A cell whose g improved after it was queued leaves a stale
  // entry, skipped because its f no longer matches the bucket.
  for (auto& bucket : open_) bucket.clear();
  std::size_t pending = 1;
  std::int32_t f = h(from);
  stamp_[static_cast<std::size_t>(from)] = epoch_;
  g_[static_cast<std::size_t>(from)] = 0;
  open_[static_cast<std::size_t>(f % 3)].push_back(from);
  for (; pending > 0; ++f) {
    auto& bucket = open_[static_cast<std::size_t>(f % 3)];
    while (!bucket.empty()) {
      const hex::CellIndex v = bucket.back();
      bucket.pop_back();
      --pending;
      const std::int32_t g = g_[static_cast<std::size_t>(v)];
      if (g + h(v) != f) continue;  // stale
      for (const hex::CellIndex u : array.neighbors_of(v)) {
        // Consistency makes the goal's first g final: v holds the least f
        // in the open list and lies one hop from the goal.
        if (u == to) return g + 1;
        if (g + 1 >= g_of(u) || !usable_.usable(u)) continue;
        const auto i = static_cast<std::size_t>(u);
        stamp_[i] = epoch_;
        g_[i] = g + 1;
        open_[static_cast<std::size_t>((g + 1 + h(u)) % 3)].push_back(u);
        ++pending;
      }
    }
  }
  return -1;
}

hex::CellIndex TimedRoute::at(std::int64_t t) const {
  DMFB_EXPECTS(!cells.empty());
  if (t < 0) t = 0;
  const auto last = static_cast<std::int64_t>(cells.size()) - 1;
  return cells[static_cast<std::size_t>(std::min(t, last))];
}

MultiDropletRouter::MultiDropletRouter(const UsableCells& usable,
                                       std::int32_t horizon)
    : usable_(usable), horizon_(horizon) {
  DMFB_EXPECTS(horizon > 0);
}

std::optional<std::vector<TimedRoute>> MultiDropletRouter::route(
    const std::vector<RouteRequest>& requests) const {
  const auto& array = usable_.array();
  const auto coord = [&](hex::CellIndex c) { return array.region().coord_at(c); };

  std::vector<TimedRoute> routed;
  for (const RouteRequest& request : requests) {
    DMFB_EXPECTS(request.from != hex::kInvalidCell);
    DMFB_EXPECTS(request.to != hex::kInvalidCell);
    const auto exempt = [&](DropletId other) {
      return std::find(request.exempt.begin(), request.exempt.end(), other) !=
             request.exempt.end();
    };

    // A transition prev -> cell arriving at time `t` is legal iff, against
    // every earlier routed droplet r:
    //   static          : dist(cell, r.at(t))   >= 2
    //   dynamic (ours)  : dist(cell, r.at(t-1)) >= 2   (we sweep past r)
    //   dynamic (theirs): dist(prev, r.at(t))   >= 2   (r sweeps past us)
    // Exempt (merge-destined) pairs may come adjacent, but must never
    // occupy the same cell at the same time — the actual merge is an
    // explicit scheduler step, not a routing accident.
    const auto legal = [&](hex::CellIndex prev, hex::CellIndex cell,
                           std::int64_t t) {
      for (const TimedRoute& r : routed) {
        if (exempt(r.droplet)) {
          if (cell == r.at(t)) return false;
          continue;
        }
        if (hex::distance(coord(cell), coord(r.at(t))) <= 1) return false;
        if (t > 0 && hex::distance(coord(cell), coord(r.at(t - 1))) <= 1) {
          return false;
        }
        if (prev != hex::kInvalidCell &&
            hex::distance(coord(prev), coord(r.at(t))) <= 1) {
          return false;
        }
      }
      return true;
    };

    // BFS over (cell, time) states; waiting in place is a legal move.
    const auto n = static_cast<std::size_t>(array.cell_count());
    // parent[(t * n) + cell] = previous cell (or -1 at the start state).
    std::vector<std::int32_t> parent(
        n * static_cast<std::size_t>(horizon_ + 1), -2);
    const auto state = [&](std::int64_t t, hex::CellIndex c) {
      return static_cast<std::size_t>(t) * n + static_cast<std::size_t>(c);
    };
    if (!usable_.usable(request.from) || !usable_.usable(request.to)) {
      return std::nullopt;
    }
    if (!legal(hex::kInvalidCell, request.from, 0)) return std::nullopt;
    std::queue<std::pair<std::int64_t, hex::CellIndex>> frontier;
    parent[state(0, request.from)] = -1;
    frontier.push({0, request.from});
    std::int64_t arrival = -1;
    while (!frontier.empty()) {
      const auto [t, cell] = frontier.front();
      frontier.pop();
      // Arrival requires the droplet to be able to PARK: once arrived it
      // stays, so the goal must stay legal forever. We accept on reaching
      // the goal and rely on later requests checking against the parked
      // position; earlier droplets are already fixed, so verify the park
      // against them for a grace window.
      if (cell == request.to) {
        bool can_park = true;
        for (std::int64_t tp = t; tp <= t + 2 && can_park; ++tp) {
          can_park = legal(cell, cell, tp);
        }
        // Also ensure no earlier droplet later drives adjacent to the
        // parked cell.
        for (const TimedRoute& r : routed) {
          if (exempt(r.droplet)) continue;
          for (std::int64_t tp = t; tp <= r.arrival_time() + 1; ++tp) {
            if (hex::distance(coord(cell), coord(r.at(tp))) <= 1) {
              can_park = false;
              break;
            }
          }
          if (!can_park) break;
        }
        if (can_park) {
          arrival = t;
          break;
        }
      }
      if (t >= horizon_) continue;
      // Wait or move to a usable neighbour.
      const auto try_step = [&](hex::CellIndex next) {
        if (parent[state(t + 1, next)] != -2) return;
        if (!usable_.usable(next)) return;
        if (!legal(cell, next, t + 1)) return;
        parent[state(t + 1, next)] = cell;
        frontier.push({t + 1, next});
      };
      try_step(cell);  // wait
      for (const hex::CellIndex next : array.neighbors_of(cell)) {
        try_step(next);
      }
    }
    if (arrival < 0) return std::nullopt;

    TimedRoute timed;
    timed.droplet = request.droplet;
    timed.cells.resize(static_cast<std::size_t>(arrival) + 1);
    hex::CellIndex cursor = request.to;
    for (std::int64_t t = arrival; t >= 0; --t) {
      timed.cells[static_cast<std::size_t>(t)] = cursor;
      cursor = parent[state(t, cursor)];
    }
    DMFB_ASSERT(cursor == -1);
    routed.push_back(std::move(timed));
  }
  return routed;
}

}  // namespace dmfb::fluidics
