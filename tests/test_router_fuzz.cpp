// Fuzz-style property tests: router output must always replay cleanly on
// the constraint-checking simulator, across random arrays, faults, and
// requests. The simulator is the independent auditor — any constraint bug
// in the router surfaces as a FluidicViolation here. A second family pins
// Router::hop_count (A*) to the BFS route length on the same usable set.
#include <gtest/gtest.h>

#include "assay/multiplexed_chip.hpp"
#include "biochip/dtmb.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "fluidics/actuation.hpp"
#include "fluidics/router.hpp"
#include "fluidics/simulator.hpp"
#include "reconfig/local_reconfig.hpp"

namespace dmfb::fluidics {
namespace {

using biochip::CellHealth;

/// Picks a random usable cell at distance >= 2 from all `taken`.
hex::CellIndex pick_clear_cell(const biochip::HexArray& array,
                               const UsableCells& usable,
                               const std::vector<hex::CellIndex>& taken,
                               Rng& rng) {
  for (int attempt = 0; attempt < 300; ++attempt) {
    const auto cell = static_cast<hex::CellIndex>(
        rng.uniform_below(static_cast<std::uint64_t>(array.cell_count())));
    if (!usable.usable(cell)) continue;
    bool clear = true;
    for (const auto other : taken) {
      if (hex::distance(array.region().coord_at(cell),
                        array.region().coord_at(other)) < 2) {
        clear = false;
        break;
      }
    }
    if (clear) return cell;
  }
  return hex::kInvalidCell;
}

TEST(RouterFuzz, RoutesAlwaysReplayCleanly) {
  Rng rng(0xF022);
  int routed_cases = 0;
  for (int trial = 0; trial < 60; ++trial) {
    auto array =
        biochip::make_dtmb_array(biochip::DtmbKind::kDtmb2_6, 10, 10);
    fault::FixedCountInjector(rng.uniform_int(0, 8)).inject(array, rng);
    const auto plan = reconfig::LocalReconfigurer().plan(array);
    UsableCells usable(array);
    if (plan.success) usable.activate_plan(plan);

    // 1-3 droplets with random distinct, mutually clear endpoints.
    const int droplet_count = rng.uniform_int(1, 3);
    std::vector<hex::CellIndex> sources;
    std::vector<hex::CellIndex> goals;
    for (int i = 0; i < droplet_count; ++i) {
      const auto source = pick_clear_cell(array, usable, sources, rng);
      if (source == hex::kInvalidCell) break;
      sources.push_back(source);
    }
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const auto goal = pick_clear_cell(array, usable, goals, rng);
      if (goal == hex::kInvalidCell) break;
      goals.push_back(goal);
    }
    if (goals.size() != sources.size() || sources.empty()) continue;

    DropletSimulator sim(usable);
    std::vector<RouteRequest> requests;
    bool dispensed_ok = true;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      try {
        const auto id = sim.dispense(sources[i], 1.0, {});
        requests.push_back({id, sources[i], goals[i], {}});
      } catch (const FluidicViolation&) {
        dispensed_ok = false;  // random sources happened to conflict
        break;
      }
    }
    if (!dispensed_ok) continue;

    const MultiDropletRouter router(usable, 256);
    const auto routes = router.route(requests);
    if (!routes) continue;  // blocked instances are legitimate
    ++routed_cases;

    // The property: replay NEVER throws, droplets land on their goals, and
    // the compiled actuation program validates.
    ASSERT_NO_THROW(sim.run_routes(*routes)) << "trial " << trial;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      EXPECT_EQ(sim.droplet(requests[i].droplet).cell, requests[i].to);
    }
    const auto program = compile_routes(*routes);
    EXPECT_EQ(validate_program(program, *routes, array),
              ActuationFault::kNone);
  }
  EXPECT_GT(routed_cases, 20) << "fuzz sweep must exercise real routings";
}

TEST(RouterFuzz, RoutesNeverTouchFaultyOrReservedCells) {
  Rng rng(0xF023);
  for (int trial = 0; trial < 40; ++trial) {
    auto array =
        biochip::make_dtmb_array(biochip::DtmbKind::kDtmb3_6, 9, 9);
    fault::FixedCountInjector(6).inject(array, rng);
    UsableCells usable(array);  // no reconfiguration: spares all reserved
    const Router router(usable);
    const auto from = pick_clear_cell(array, usable, {}, rng);
    const auto to = pick_clear_cell(array, usable, {}, rng);
    if (from == hex::kInvalidCell || to == hex::kInvalidCell) continue;
    const auto route = router.shortest_route(from, to);
    for (const auto cell : route) {
      EXPECT_EQ(array.health(cell), CellHealth::kHealthy);
      EXPECT_EQ(array.role(cell), biochip::CellRole::kPrimary);
    }
  }
}

TEST(RouterFuzz, ShortestRouteNeverLongerThanDetourBound) {
  // On a fault-free open array the route length equals hex distance + 1;
  // with k faults it can grow, but never beyond cell_count.
  Rng rng(0xF024);
  for (int trial = 0; trial < 40; ++trial) {
    biochip::HexArray array(
        hex::Region::parallelogram(9, 9),
        [](hex::HexCoord) { return biochip::CellRole::kPrimary; });
    fault::FixedCountInjector(rng.uniform_int(0, 10)).inject(array, rng);
    UsableCells usable(array);
    const Router router(usable);
    const auto from = pick_clear_cell(array, usable, {}, rng);
    const auto to = pick_clear_cell(array, usable, {}, rng);
    if (from == hex::kInvalidCell || to == hex::kInvalidCell) continue;
    const auto route = router.shortest_route(from, to);
    if (route.empty()) continue;
    const auto lower_bound = hex::distance(array.region().coord_at(from),
                                           array.region().coord_at(to));
    EXPECT_GE(static_cast<std::int32_t>(route.size()), lower_bound + 1);
    EXPECT_LE(static_cast<std::int32_t>(route.size()), array.cell_count());
  }
}

// ------------------------------------------- hop_count vs BFS shortest_route

/// The BFS length hop_count must reproduce: route.size() - 1, so -1 when
/// the route is empty.
std::int32_t bfs_hops(const Router& router, hex::CellIndex from,
                      hex::CellIndex to) {
  return static_cast<std::int32_t>(router.shortest_route(from, to).size()) - 1;
}

/// Queries `pairs` random endpoint pairs (any cell, usable or not, plus
/// the a == b case) through one warm router and checks each against BFS.
/// Returns how many pairs were reachable.
int expect_hop_counts_match(const biochip::HexArray& array, Router& router,
                            int pairs, Rng& rng) {
  const auto cells = static_cast<std::uint64_t>(array.cell_count());
  int reachable = 0;
  for (int i = 0; i < pairs; ++i) {
    const auto from = static_cast<hex::CellIndex>(rng.uniform_below(cells));
    const auto to = i % 8 == 0
                        ? from
                        : static_cast<hex::CellIndex>(rng.uniform_below(cells));
    const std::int32_t expected = bfs_hops(router, from, to);
    EXPECT_EQ(router.hop_count(from, to), expected)
        << "from " << from << " to " << to;
    if (expected >= 0) ++reachable;
  }
  return reachable;
}

TEST(RouterFuzz, HopCountMatchesBfsOnRandomDtmbArrays) {
  Rng rng(0xF025);
  int reachable = 0;
  int severed = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const biochip::DtmbKind kind = biochip::kAllDtmbKinds[rng.uniform_below(
        std::size(biochip::kAllDtmbKinds))];
    auto array = biochip::make_dtmb_array(kind, rng.uniform_int(3, 14),
                                          rng.uniform_int(3, 14));
    fault::FixedCountInjector(rng.uniform_int(0, array.cell_count() / 4))
        .inject(array, rng);
    // Partial plans activate spares too: the kernel routes over whatever
    // the plan assigned, repaired or not.
    const auto plan = reconfig::LocalReconfigurer().plan(array);
    UsableCells usable(array);
    usable.activate_plan(plan);
    const int blocked = rng.uniform_int(0, 4);
    for (int b = 0; b < blocked; ++b) {
      usable.block(static_cast<hex::CellIndex>(rng.uniform_below(
          static_cast<std::uint64_t>(array.cell_count()))));
    }
    Router router(usable);
    const int hits = expect_hop_counts_match(array, router, 40, rng);
    reachable += hits;
    severed += 40 - hits;
  }
  EXPECT_GT(reachable, 1000) << "sweep must compare real routes";
  EXPECT_GT(severed, 100) << "sweep must compare unreachable pairs";
}

TEST(RouterFuzz, HopCountMatchesBfsOnTheFaultyMultiplexedChip) {
  const assay::MultiplexedChip chip = assay::make_multiplexed_chip();
  Rng rng(0xF026);
  auto array = chip.array;
  UsableCells usable(array);
  // One router across every fault set: its buffers stay warm while the
  // array's health and the activated spares change underneath it.
  Router router(usable);
  for (int trial = 0; trial < 60; ++trial) {
    array.reset_health();
    fault::FixedCountInjector(rng.uniform_int(0, 60)).inject(array, rng);
    const auto plan = reconfig::LocalReconfigurer(
                          reconfig::CoveragePolicy::kUsedFaultyPrimaries)
                          .plan(array);
    usable.activate_plan(plan);
    std::vector<hex::CellIndex> blocked;
    for (int b = rng.uniform_int(0, 3); b > 0; --b) {
      blocked.push_back(static_cast<hex::CellIndex>(rng.uniform_below(
          static_cast<std::uint64_t>(array.cell_count()))));
      usable.block(blocked.back());
    }
    expect_hop_counts_match(array, router, 60, rng);
    usable.deactivate_plan(plan);
    for (const hex::CellIndex cell : blocked) usable.unblock(cell);
  }
  // Everything undone: no spare is usable, every healthy primary is.
  array.reset_health();
  for (const hex::CellIndex spare : array.spares()) {
    EXPECT_FALSE(usable.usable(spare));
  }
  for (const hex::CellIndex primary : array.primaries()) {
    EXPECT_TRUE(usable.usable(primary));
  }
}

TEST(RouterFuzz, HopCountEdgeCases) {
  auto array = biochip::make_dtmb_array(biochip::DtmbKind::kDtmb2_6, 6, 6);
  UsableCells usable(array);
  Router router(usable);
  const hex::CellIndex primary = array.primaries().front();
  const hex::CellIndex spare = array.spares().front();
  EXPECT_EQ(router.hop_count(primary, primary), 0);
  // Unusable endpoints: reserved spare, out of range, faulty, blocked.
  EXPECT_EQ(router.hop_count(spare, spare), -1);
  EXPECT_EQ(router.hop_count(primary, spare), -1);
  EXPECT_EQ(router.hop_count(hex::kInvalidCell, primary), -1);
  EXPECT_EQ(router.hop_count(primary, array.cell_count()), -1);
  usable.activate_spare(spare);
  EXPECT_EQ(router.hop_count(spare, spare), 0);
  EXPECT_EQ(router.hop_count(primary, spare),
            bfs_hops(router, primary, spare));
  usable.block(spare);
  EXPECT_EQ(router.hop_count(primary, spare), -1);
  usable.unblock(spare);
  array.set_health(primary, CellHealth::kFaulty);
  EXPECT_EQ(router.hop_count(primary, spare), -1);
}

}  // namespace
}  // namespace dmfb::fluidics
