// Session's v1 Bernoulli lane loop against a per-run reference loop.
//
// Session draws v1 Bernoulli runs in lane groups (sim::inject_lanes) and
// repairs them in run order. The reference here is the loop it replaced:
// one FaultState, one sim::inject per run from run_stream(seed, run), and
// the batch Hopcroft-Karp verdict. Estimates must agree bit for bit at
// every run count (full groups, short last groups, batch and adaptive
// chunk boundaries), at threads 1 and 4, under both the batch and the
// incremental (engine = auto) plans; the stable fault.* counters must
// agree too.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>

#include "biochip/dtmb.hpp"
#include "common/stats.hpp"
#include "obs/metrics.hpp"
#include "sim/session.hpp"

namespace dmfb::sim {
namespace {

using biochip::DtmbKind;

constexpr std::int32_t kRunCounts[] = {1, 7, 9, 63, 65, 500, 1000};
constexpr double kSurvival[] = {0.80, 0.92, 0.99};

/// The per-run loop: inject, batch verdict, reset; with adaptive stopping
/// checked at the same chunk boundaries Session uses.
YieldEstimate reference_estimate(
    const std::shared_ptr<const ChipDesign>& design, const YieldQuery& query) {
  FaultState state(design);
  const bool adaptive = query.target_ci_half_width > 0.0;
  const std::int32_t chunk = adaptive ? kAdaptiveChunkRuns : query.runs;
  std::int64_t successes = 0;
  std::int32_t done = 0;
  while (done < query.runs) {
    const std::int32_t end = std::min(query.runs, done + chunk);
    for (std::int32_t run = done; run < end; ++run) {
      Rng rng = run_stream(query.seed, run);
      inject(query.fault, state, rng);
      if (state.repairable(query.policy, graph::MatchingEngine::kHopcroftKarp,
                           query.pool)) {
        ++successes;
      }
      state.reset();
    }
    done = end;
    if (adaptive &&
        wilson_interval(successes, done).width() / 2.0 <=
            query.target_ci_half_width) {
      break;
    }
  }
  return YieldEstimate::from_counts(successes, done);
}

void expect_bit_identical(const YieldEstimate& actual,
                          const YieldEstimate& expected) {
  EXPECT_EQ(actual.runs, expected.runs);
  EXPECT_EQ(actual.successes, expected.successes);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.value),
            std::bit_cast<std::uint64_t>(expected.value));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.ci95.lo),
            std::bit_cast<std::uint64_t>(expected.ci95.lo));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.ci95.hi),
            std::bit_cast<std::uint64_t>(expected.ci95.hi));
}

std::shared_ptr<const ChipDesign> design_of(DtmbKind kind,
                                            std::int32_t primaries) {
  return ChipDesign::make(
      biochip::make_dtmb_array_with_primaries(kind, primaries));
}

TEST(SessionLanes, EstimatesMatchThePerRunLoopBitForBit) {
  for (const auto& design : {design_of(DtmbKind::kDtmb2_6, 60),
                             design_of(DtmbKind::kDtmb4_4, 240)}) {
    for (const double p : kSurvival) {
      for (const graph::MatchingEngine engine :
           {graph::MatchingEngine::kHopcroftKarp,
            graph::MatchingEngine::kAuto}) {
        for (const std::int32_t runs : kRunCounts) {
          YieldQuery query;
          query.fault = FaultModel::bernoulli(p);
          query.runs = runs;
          query.engine = engine;
          const YieldEstimate expected = reference_estimate(design, query);
          for (const std::int32_t threads : {1, 4}) {
            SCOPED_TRACE(
                "cells=" + std::to_string(design->cell_count()) +
                " p=" + std::to_string(p) +
                " engine=" + std::to_string(static_cast<int>(engine)) +
                " runs=" + std::to_string(runs) +
                " threads=" + std::to_string(threads));
            // A fresh session per thread count: the cache ignores threads.
            Session session(design);
            query.threads = threads;
            expect_bit_identical(session.run(query), expected);
          }
        }
      }
    }
  }
}

TEST(SessionLanes, AdaptiveStoppingMatchesThePerRunLoop) {
  const auto design = design_of(DtmbKind::kDtmb3_6, 120);
  for (const graph::MatchingEngine engine :
       {graph::MatchingEngine::kHopcroftKarp, graph::MatchingEngine::kAuto}) {
    YieldQuery query;
    // Kill probability 0.12: engine = auto plans incremental repair.
    query.fault = FaultModel::bernoulli(0.88);
    query.runs = 9000;
    query.target_ci_half_width = 0.015;
    query.engine = engine;
    const YieldEstimate expected = reference_estimate(design, query);
    // Stops after several chunks and before the cap, so the chunk
    // boundaries are exercised.
    ASSERT_GT(expected.runs, kAdaptiveChunkRuns);
    ASSERT_LT(expected.runs, query.runs);
    for (const std::int32_t threads : {1, 4}) {
      Session session(design);
      query.threads = threads;
      expect_bit_identical(session.run(query), expected);
    }
  }
}

TEST(SessionLanes, StableFaultCountersMatchThePerRunLoop) {
  const auto design = design_of(DtmbKind::kDtmb2_6, 120);
  constexpr obs::Metric kFaultCounters[] = {
      obs::Metric::kInjectRuns, obs::Metric::kInjectCellsFaulted,
      obs::Metric::kInjectCellTrials, obs::Metric::kInjectClassificationDraws};
  YieldQuery query;
  query.fault = FaultModel::bernoulli(0.88);
  query.runs = 65;

  obs::Snapshot expected;
  {
    obs::Registry registry;
    registry.install();
    (void)reference_estimate(design, query);
    registry.uninstall();
    expected = registry.snapshot();
  }
  ASSERT_EQ(expected.counter(obs::Metric::kInjectRuns), query.runs);
  for (const std::int32_t threads : {1, 4}) {
    obs::Registry registry;
    registry.install();
    Session session(design);
    query.threads = threads;
    (void)session.run(query);
    registry.uninstall();
    const obs::Snapshot actual = registry.snapshot();
    for (const obs::Metric metric : kFaultCounters) {
      EXPECT_EQ(actual.counter(metric), expected.counter(metric))
          << "metric " << static_cast<int>(metric) << " threads " << threads;
    }
  }
}

TEST(SessionLanes, OtherKindsAndDegenerateSurvivalKeepThePerRunLoop) {
  // Not lane-injectable, so Session runs inject() per run; the estimates
  // still equal the reference loop's.
  const auto design = design_of(DtmbKind::kDtmb2_6, 60);
  for (const FaultModel& fault :
       {FaultModel::bernoulli(1.0), FaultModel::bernoulli(0.0),
        FaultModel::fixed_count(4)}) {
    EXPECT_FALSE(lane_injectable(fault));
    YieldQuery query;
    query.fault = fault;
    query.runs = 65;
    Session session(design);
    expect_bit_identical(session.run(query),
                         reference_estimate(design, query));
  }
}

}  // namespace
}  // namespace dmfb::sim
