#include "fluidics/router.hpp"

#include <algorithm>
#include <queue>

#include "common/contracts.hpp"

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

}  // namespace dmfb::fluidics
