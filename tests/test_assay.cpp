// Tests for the multiplexed diagnostics chip of the paper's Section 7: the
// exact 252/91/108 reconstruction, its four assay chains, and the
// no-redundancy yield headline.
#include <set>

#include <gtest/gtest.h>

#include "assay/multiplexed_chip.hpp"
#include "biochip/redundancy.hpp"
#include "yield/analytic.hpp"

namespace dmfb::assay {
namespace {

// -------------------------------------------------------- multiplexed chip

TEST(MultiplexedChip, PaperExactCounts) {
  const MultiplexedChip chip = make_multiplexed_chip();
  EXPECT_EQ(chip.array.primary_count(), 252);
  EXPECT_EQ(chip.array.spare_count(), 91);
  EXPECT_EQ(chip.array.cell_count(), 343);
  EXPECT_EQ(chip.array.used_count(), 108);
}

TEST(MultiplexedChip, RedundancyNearDtmb26) {
  const MultiplexedChip chip = make_multiplexed_chip();
  // 91/252 = 0.361, close to the asymptotic 1/3 of DTMB(2,6).
  EXPECT_NEAR(biochip::measured_redundancy_ratio(chip.array), 91.0 / 252.0,
              1e-12);
}

TEST(MultiplexedChip, FourChainsWithDistinctMixers) {
  const MultiplexedChip chip = make_multiplexed_chip();
  ASSERT_EQ(chip.chains.size(), 4u);
  std::set<hex::CellIndex> mixer_cells;
  for (const AssayChain& chain : chip.chains) {
    EXPECT_EQ(chain.mixer_cells.size(), 4u);
    EXPECT_EQ(chain.mix_loop.size(), 3u);
    for (const auto cell : chain.mixer_cells) {
      EXPECT_TRUE(mixer_cells.insert(cell).second) << "mixer cells overlap";
    }
  }
}

TEST(MultiplexedChip, ChainCellsAreUsedPrimaries) {
  const MultiplexedChip chip = make_multiplexed_chip();
  for (const AssayChain& chain : chip.chains) {
    std::vector<hex::CellIndex> cells = chain.route_cells;
    cells.push_back(chain.sample_source);
    cells.push_back(chain.reagent_source);
    cells.push_back(chain.detector_cell);
    cells.insert(cells.end(), chain.mixer_cells.begin(),
                 chain.mixer_cells.end());
    for (const auto cell : cells) {
      EXPECT_EQ(chip.array.role(cell), biochip::CellRole::kPrimary);
      EXPECT_EQ(chip.array.usage(cell), biochip::CellUsage::kAssayUsed);
    }
  }
}

TEST(MultiplexedChip, MixLoopIsACycle) {
  const MultiplexedChip chip = make_multiplexed_chip();
  for (const AssayChain& chain : chip.chains) {
    for (std::size_t i = 0; i < chain.mix_loop.size(); ++i) {
      const auto from = chain.mix_loop[i];
      const auto to = chain.mix_loop[(i + 1) % chain.mix_loop.size()];
      EXPECT_TRUE(hex::adjacent(chip.array.region().coord_at(from),
                                chip.array.region().coord_at(to)))
          << "chain " << chain.id;
    }
  }
}

TEST(MultiplexedChip, SamplesAndReagentsPairedAsGrid) {
  const MultiplexedChip chip = make_multiplexed_chip();
  std::set<std::pair<std::string, std::string>> pairs;
  for (const AssayChain& chain : chip.chains) {
    pairs.insert({chain.sample_port, chain.reagent_port});
  }
  const std::set<std::pair<std::string, std::string>> expected = {
      {"S1", "R1"}, {"S2", "R1"}, {"S1", "R2"}, {"S2", "R2"}};
  EXPECT_EQ(pairs, expected);
}

TEST(MultiplexedChip, InteriorKeepsDtmb26Property) {
  const MultiplexedChip chip = make_multiplexed_chip();
  const auto prop = biochip::measure_interstitial_property(chip.array);
  EXPECT_EQ(prop.s_min, 2);
  EXPECT_EQ(prop.s_max, 2);
  EXPECT_EQ(prop.p_min, 6);
  EXPECT_EQ(prop.p_max, 6);
  EXPECT_TRUE(prop.spares_mutually_nonadjacent);
}

TEST(MultiplexedChip, PaperNoRedundancyYieldHeadline) {
  // The original chip (108 used cells, no spares): 0.99^108 = 0.3378.
  const MultiplexedChip chip = make_multiplexed_chip();
  EXPECT_NEAR(yield::used_cells_yield(chip.array.used_count(), 0.99), 0.3378,
              2e-4);
}

}  // namespace
}  // namespace dmfb::assay
