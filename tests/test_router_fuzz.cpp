// Fuzz-style property tests over random arrays and faults: Router routes
// stay on usable cells and within their length bounds, and
// HopBoard::hop_counts (word-parallel BFS on a bitboard) matches the BFS
// route length on the same usable set.
#include <gtest/gtest.h>

#include "assay/multiplexed_chip.hpp"
#include "biochip/dtmb.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "fluidics/hop_board.hpp"
#include "fluidics/router.hpp"
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

// ------------------------------------------ HopBoard vs BFS shortest_route

/// The BFS length hop_counts must reproduce: route.size() - 1, so -1 when
/// the route is empty.
std::int32_t bfs_hops(const Router& router, hex::CellIndex from,
                      hex::CellIndex to) {
  return static_cast<std::int32_t>(router.shortest_route(from, to).size()) - 1;
}

/// (source, target) pairs checked, by outcome.
struct HopTally {
  int reachable = 0;
  int severed = 0;  ///< unreachable or an unusable endpoint
};

/// Runs `queries` searches through one warm board, each from a random cell
/// to 1-4 random targets (any cell, usable or not, the source itself every
/// eighth query), and checks every answer against BFS over `router`'s
/// usable set.
HopTally expect_hop_counts_match(const biochip::HexArray& array,
                                 const Router& router, HopBoard& board,
                                 int queries, Rng& rng) {
  const auto cells = static_cast<std::uint64_t>(array.cell_count());
  HopTally tally;
  std::vector<hex::CellIndex> targets;
  std::vector<std::int32_t> hops;
  for (int i = 0; i < queries; ++i) {
    const auto from = static_cast<hex::CellIndex>(rng.uniform_below(cells));
    targets.clear();
    if (i % 8 == 0) targets.push_back(from);
    for (int t = rng.uniform_int(1, 4); t > 0; --t) {
      targets.push_back(static_cast<hex::CellIndex>(rng.uniform_below(cells)));
    }
    hops.assign(targets.size(), -2);
    board.hop_counts(from, targets, hops);
    for (std::size_t t = 0; t < targets.size(); ++t) {
      const std::int32_t expected = bfs_hops(router, from, targets[t]);
      EXPECT_EQ(hops[t], expected) << "from " << from << " to " << targets[t];
      ++(expected >= 0 ? tally.reachable : tally.severed);
    }
  }
  return tally;
}

/// Blocks `count` random cells of `usable` (the HopBoard snapshot maps
/// them to impassable bits).
void block_random_cells(const biochip::HexArray& array, UsableCells& usable,
                        int count, Rng& rng) {
  for (; count > 0; --count) {
    usable.block(static_cast<hex::CellIndex>(rng.uniform_below(
        static_cast<std::uint64_t>(array.cell_count()))));
  }
}

TEST(RouterFuzz, HopCountMatchesBfsOnRandomDtmbArrays) {
  Rng rng(0xF025);
  HopTally total;
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
    block_random_cells(array, usable, rng.uniform_int(0, 4), rng);
    const Router router(usable);
    HopBoard board(usable);
    const HopTally tally =
        expect_hop_counts_match(array, router, board, 40, rng);
    total.reachable += tally.reachable;
    total.severed += tally.severed;
  }
  EXPECT_GT(total.reachable, 1000) << "sweep must compare real routes";
  EXPECT_GT(total.severed, 100) << "sweep must compare unreachable pairs";
}

TEST(RouterFuzz, HopCountMatchesBfsOnWideRegions) {
  // W = width + 1 runs from 64 to 131, so the board's one multi-word
  // shift, W - 1, is just under a word (63, 127), whole words (64, 128) or
  // a word and a remainder (70, 130).
  Rng rng(0xF027);
  int reachable = 0;
  for (const std::int32_t width : {63, 64, 70, 127, 128, 130}) {
    for (int trial = 0; trial < 4; ++trial) {
      const biochip::DtmbKind kind = biochip::kAllDtmbKinds[rng.uniform_below(
          std::size(biochip::kAllDtmbKinds))];
      auto array = biochip::make_dtmb_array(kind, width, rng.uniform_int(2, 6));
      fault::FixedCountInjector(rng.uniform_int(0, array.cell_count() / 6))
          .inject(array, rng);
      const auto plan = reconfig::LocalReconfigurer().plan(array);
      UsableCells usable(array);
      usable.activate_plan(plan);
      block_random_cells(array, usable, rng.uniform_int(0, 6), rng);
      const Router router(usable);
      HopBoard board(usable);
      reachable +=
          expect_hop_counts_match(array, router, board, 30, rng).reachable;
    }
  }
  EXPECT_GT(reachable, 300) << "sweep must compare real routes";
}

TEST(RouterFuzz, HopCountMatchesBfsOnTheFaultyMultiplexedChip) {
  const assay::MultiplexedChip chip = assay::make_multiplexed_chip();
  Rng rng(0xF026);
  auto array = chip.array;
  // One board across every fault set, built from the healthy chip the way
  // the operational kernel builds it: each trial blocks the faulty cells,
  // opens the plan's spares and blocks a few more cells, then restores.
  HopBoard board{UsableCells(array)};
  HopTally total;
  for (int trial = 0; trial < 60; ++trial) {
    array.reset_health();
    fault::FixedCountInjector(rng.uniform_int(0, 60)).inject(array, rng);
    const auto plan = reconfig::LocalReconfigurer(
                          reconfig::CoveragePolicy::kUsedFaultyPrimaries)
                          .plan(array);
    UsableCells usable(array);
    usable.activate_plan(plan);
    std::vector<hex::CellIndex> changed;
    for (hex::CellIndex cell = 0; cell < array.cell_count(); ++cell) {
      if (array.health(cell) == CellHealth::kFaulty) {
        board.block(cell);
        changed.push_back(cell);
      }
    }
    for (const reconfig::Replacement& replacement : plan.replacements) {
      board.open(replacement.spare);
      changed.push_back(replacement.spare);
    }
    for (int b = rng.uniform_int(0, 3); b > 0; --b) {
      changed.push_back(static_cast<hex::CellIndex>(rng.uniform_below(
          static_cast<std::uint64_t>(array.cell_count()))));
      usable.block(changed.back());
      board.block(changed.back());
    }
    const Router router(usable);
    const HopTally tally =
        expect_hop_counts_match(array, router, board, 60, rng);
    total.reachable += tally.reachable;
    total.severed += tally.severed;
    for (const hex::CellIndex cell : changed) board.restore(cell);
  }
  EXPECT_GT(total.reachable, 1000) << "sweep must compare real routes";
  EXPECT_GT(total.severed, 100) << "sweep must compare unreachable pairs";
  // Everything restored: no spare is passable, every primary is.
  for (const hex::CellIndex spare : array.spares()) {
    EXPECT_FALSE(board.passable(spare));
  }
  for (const hex::CellIndex primary : array.primaries()) {
    EXPECT_TRUE(board.passable(primary));
  }
}

TEST(RouterFuzz, HopCountEdgeCases) {
  auto array = biochip::make_dtmb_array(biochip::DtmbKind::kDtmb2_6, 6, 6);
  UsableCells usable(array);
  const Router router(usable);
  HopBoard board(usable);
  const hex::CellIndex primary = array.primaries().front();
  const hex::CellIndex far = array.primaries().back();
  const hex::CellIndex spare = array.spares().front();
  const auto hops_to = [&](hex::CellIndex from,
                           std::vector<hex::CellIndex> targets) {
    std::vector<std::int32_t> out(targets.size(), -2);
    board.hop_counts(from, targets, out);
    return out;
  };
  using Hops = std::vector<std::int32_t>;
  EXPECT_EQ(hops_to(primary, {primary}), Hops{0});
  EXPECT_EQ(hops_to(primary, {}), Hops{});
  // Unusable endpoints: reserved spare, out of range, faulty, blocked.
  EXPECT_EQ(hops_to(spare, {spare}), Hops{-1});
  EXPECT_EQ(hops_to(primary, {spare}), Hops{-1});
  EXPECT_EQ(hops_to(hex::kInvalidCell, {primary}), Hops{-1});
  EXPECT_EQ(hops_to(primary, {array.cell_count()}), Hops{-1});
  // Several targets in one wave, usable or not, repeated or not.
  EXPECT_EQ(hops_to(primary, {far, spare, primary, hex::kInvalidCell, far}),
            (Hops{bfs_hops(router, primary, far), -1, 0, -1,
                  bfs_hops(router, primary, far)}));
  EXPECT_EQ(hops_to(far, {primary})[0], hops_to(primary, {far})[0]);
  // An opened spare routes like an activated one.
  board.open(spare);
  usable.activate_spare(spare);
  EXPECT_EQ(hops_to(spare, {spare}), Hops{0});
  EXPECT_EQ(hops_to(primary, {spare}), Hops{bfs_hops(router, primary, spare)});
  EXPECT_GE(hops_to(primary, {spare})[0], 1);
  board.block(spare);
  EXPECT_EQ(hops_to(primary, {spare}), Hops{-1});
  board.restore(spare);  // back to the snapshot: a reserved spare
  EXPECT_FALSE(board.passable(spare));
  board.block(primary);  // a faulty source
  EXPECT_EQ(hops_to(primary, {far}), Hops{-1});
  board.restore(primary);
  EXPECT_EQ(hops_to(primary, {far}), Hops{bfs_hops(router, primary, far)});
}

}  // namespace
}  // namespace dmfb::fluidics
