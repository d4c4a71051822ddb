// The lane form of v1 Bernoulli injection (fault::bernoulli_draws_lanes)
// against its scalar reference: fault::bernoulli_draws(Rng&) with a kill
// callback that sets the cell's bit and consumes one classification draw.
// Every lane width and every compiled kernel this CPU executes must give
// each lane the reference's fault words and leave its stream where the
// reference's stops.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "fault/draws.hpp"
#include "sim/fault_model.hpp"
#include "sim/session.hpp"

namespace dmfb::fault {
namespace {

constexpr std::int32_t kCellCounts[] = {1, 63, 64, 65, 127, 481, 4099};
constexpr double kKillProbs[] = {1e-9, 0.01, 0.5, 1.0 - 0.99, 1.0 - 0.80};
constexpr std::uint64_t kSeed = 0xD0E5A11ULL;

std::size_t words_of(std::int32_t cells) {
  return static_cast<std::size_t>((cells + 63) / 64);
}

/// Lane streams: run_stream(kSeed, first_run + l), as the session seeds.
std::vector<Rng> lane_streams(std::size_t lanes, std::int32_t first_run) {
  std::vector<Rng> rngs;
  for (std::size_t l = 0; l < lanes; ++l) {
    rngs.push_back(
        sim::run_stream(kSeed, first_run + static_cast<std::int32_t>(l)));
  }
  return rngs;
}

/// The scalar reference: lane l's words at [l * W, (l + 1) * W), and each
/// rng advanced as bernoulli_draws leaves it.
std::vector<std::uint64_t> reference_words(std::vector<Rng>& rngs,
                                           std::int32_t cells,
                                           double kill_prob) {
  const std::size_t w = words_of(cells);
  std::vector<std::uint64_t> words(rngs.size() * w, 0);
  for (std::size_t l = 0; l < rngs.size(); ++l) {
    Rng& rng = rngs[l];
    bernoulli_draws(rng, cells, kill_prob, [&](std::int32_t cell) {
      words[l * w + static_cast<std::size_t>(cell) / 64] |=
          std::uint64_t{1} << (cell % 64);
      (void)sample_catastrophic_defect(rng);  // classification draw
    });
  }
  return words;
}

/// Runs `kernel` (R lanes at a time over `states`) and checks every lane
/// against the reference.
template <typename Kernel>
void expect_matches_reference(std::size_t width, Kernel&& kernel,
                              const std::string& label) {
  constexpr std::size_t kLanes = 8;
  for (const std::int32_t cells : kCellCounts) {
    for (const double kill_prob : kKillProbs) {
      SCOPED_TRACE(label + " cells=" + std::to_string(cells) +
                   " kill=" + std::to_string(kill_prob));
      std::vector<Rng> expected_rngs = lane_streams(kLanes, 17);
      const std::vector<std::uint64_t> expected =
          reference_words(expected_rngs, cells, kill_prob);
      std::vector<Rng::State> states;
      for (const Rng& rng : lane_streams(kLanes, 17)) {
        states.push_back(rng.state());
      }
      const std::size_t w = words_of(cells);
      std::vector<std::uint64_t> words(kLanes * w, ~std::uint64_t{0});
      for (std::size_t first = 0; first < kLanes; first += width) {
        kernel(states.data() + first, cells, bernoulli_threshold(kill_prob),
               words.data() + first * w);
      }
      for (std::size_t l = 0; l < kLanes; ++l) {
        for (std::size_t i = 0; i < w; ++i) {
          ASSERT_EQ(words[l * w + i], expected[l * w + i])
              << "lane " << l << " word " << i;
        }
        Rng resumed(states[l]);
        EXPECT_EQ(resumed(), expected_rngs[l]()) << "lane " << l;
      }
    }
  }
}

TEST(BernoulliLanes, ThresholdIsExactlyTheUniformComparison) {
  for (const double q : {1e-300, 1e-9, 0.01, 0.1, 0.2, 0.5,
                         std::nextafter(1.0, 0.0), 0.3 + 1e-17}) {
    const std::uint64_t threshold = bernoulli_threshold(q);
    for (const std::uint64_t k :
         {threshold - 1, threshold, threshold + 1, std::uint64_t{0}}) {
      if (k >= (std::uint64_t{1} << 53)) continue;
      const bool uniform_kills = static_cast<double>(k) * 0x1.0p-53 < q;
      EXPECT_EQ(k < threshold, uniform_kills) << "q=" << q << " k=" << k;
    }
  }
}

TEST(BernoulliLanes, DegenerateProbabilitiesStayOnTheScalarPath) {
  EXPECT_THROW((void)bernoulli_threshold(0.0), ContractViolation);
  EXPECT_THROW((void)bernoulli_threshold(1.0), ContractViolation);
  EXPECT_FALSE(sim::lane_injectable(sim::FaultModel::bernoulli(1.0)));
  EXPECT_FALSE(sim::lane_injectable(sim::FaultModel::bernoulli(0.0)));
  EXPECT_TRUE(sim::lane_injectable(sim::FaultModel::bernoulli(0.9)));
  EXPECT_FALSE(sim::lane_injectable(sim::FaultModel::fixed_count(3)));
  std::vector<Rng> rngs = lane_streams(2, 0);
  std::vector<std::uint64_t> words(2);
  EXPECT_THROW(bernoulli_draws_lanes(rngs, 64, 0.0, words),
               ContractViolation);
  EXPECT_THROW(bernoulli_draws_lanes(rngs, 64, 1.0, words),
               ContractViolation);
}

TEST(BernoulliLanes, EveryTemplateWidthMatchesTheScalarDraws) {
  expect_matches_reference(1, bernoulli_draws_lanes<1>, "R=1");
  expect_matches_reference(4, bernoulli_draws_lanes<4>, "R=4");
  expect_matches_reference(8, bernoulli_draws_lanes<8>, "R=8");
}

TEST(BernoulliLanes, EveryKernelThisCpuRunsMatchesTheScalarDraws) {
  const std::span<const BernoulliLaneKernel> kernels =
      bernoulli_lane_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.back().isa, "baseline");
  for (const BernoulliLaneKernel& kernel : kernels) {
    ASSERT_GT(kernel.lanes, 0);
    ASSERT_LE(kernel.lanes, kMaxBernoulliLanes);
    expect_matches_reference(static_cast<std::size_t>(kernel.lanes),
                             kernel.run, kernel.isa);
  }
}

TEST(BernoulliLanes, DispatchedGroupsOfEverySizeMatchTheScalarDraws) {
  // 1..kMaxBernoulliLanes streams: a group narrower than the kernel pads
  // its spare lanes and must neither write past its runs' words nor move
  // any stream it was not given.
  for (const std::int32_t cells : {65, 481}) {
    for (const double kill_prob : {0.01, 1.0 - 0.80}) {
      for (std::size_t lanes = 1;
           lanes <= static_cast<std::size_t>(kMaxBernoulliLanes); ++lanes) {
        SCOPED_TRACE("cells=" + std::to_string(cells) +
                     " lanes=" + std::to_string(lanes));
        std::vector<Rng> expected_rngs = lane_streams(lanes, 1000);
        const std::vector<std::uint64_t> expected =
            reference_words(expected_rngs, cells, kill_prob);
        std::vector<Rng> rngs = lane_streams(lanes, 1000);
        const std::uint64_t sentinel = 0x5a5a5a5a5a5a5a5aULL;
        std::vector<std::uint64_t> words(expected.size() + 1, sentinel);
        bernoulli_draws_lanes(rngs, cells, kill_prob,
                              std::span(words).first(expected.size()));
        EXPECT_EQ(words.back(), sentinel);
        words.pop_back();
        EXPECT_EQ(words, expected);
        for (std::size_t l = 0; l < lanes; ++l) {
          EXPECT_EQ(rngs[l](), expected_rngs[l]()) << "lane " << l;
        }
      }
    }
  }
}

TEST(BernoulliLanes, RngStateRoundTripsThroughItsConstructor) {
  Rng rng = sim::run_stream(kSeed, 5);
  (void)rng();
  Rng copy(rng.state());
  for (int i = 0; i < 16; ++i) EXPECT_EQ(copy(), rng());
}

}  // namespace
}  // namespace dmfb::fault
