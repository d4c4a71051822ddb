// Integration tests: the full defect-tolerance pipeline of the paper, end
// to end — manufacture (inject) -> test (stimulus droplets) -> reconfigure
// (bipartite matching) -> operate (the multiplexed assay re-scheduled and
// re-routed by the operational kernel) — plus the paper's headline numbers
// wired through the real objects.
#include <gtest/gtest.h>

#include "assay/multiplexed_chip.hpp"
#include "biochip/dtmb.hpp"
#include "common/rng.hpp"
#include "core/defect_tolerant_biochip.hpp"
#include "core/design_advisor.hpp"
#include "fault/injector.hpp"
#include "io/ascii_render.hpp"
#include "io/table.hpp"
#include "reconfig/local_reconfig.hpp"
#include "sim/assay_workload.hpp"
#include "testplan/stimulus_test.hpp"
#include "yield/analytic.hpp"
#include "yield/monte_carlo.hpp"

namespace dmfb {
namespace {

using biochip::CellHealth;
using biochip::DtmbKind;

TEST(Pipeline, InjectTestReconfigureAgreeOnFaults) {
  // The faults localised by stimulus testing are exactly the injected ones
  // (when nothing is cut off), and reconfiguration based on the *tested*
  // fault map succeeds exactly when based on the true fault map.
  Rng rng(0x5EED);
  int checked = 0;
  for (int trial = 0; trial < 25; ++trial) {
    auto array = biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 10, 10);
    const auto injected = fault::FixedCountInjector(6).inject(array, rng);
    if (array.health(0) == CellHealth::kFaulty) continue;
    const auto session = testplan::run_test_session(array, 0);
    if (!session.untestable.empty()) continue;  // disconnected draw
    ++checked;
    auto found = session.faults_found;
    auto truth = injected.cells();
    std::sort(truth.begin(), truth.end());
    EXPECT_EQ(found, truth);
  }
  EXPECT_GT(checked, 10);
}

TEST(Pipeline, ReconfiguredChipRunsAssaysAfterRandomFaults) {
  // Fig. 12 narrative as a live run: random faults on the diagnostics chip,
  // local reconfiguration, then the operational kernel re-schedules and
  // re-routes the multiplexed assay on the repaired array.
  const auto workload = sim::AssayWorkload::multiplexed();
  sim::OperationalState state(workload);
  Rng rng(0xD1A6);
  int attempted = 0;
  int successes = 0;
  for (int trial = 0; trial < 20; ++trial) {
    assay::MultiplexedChip chip = assay::make_multiplexed_chip();
    Rng trial_rng = rng.split();
    const auto faults =
        fault::FixedCountInjector(10).inject(chip.array, trial_rng);
    const auto plan =
        reconfig::LocalReconfigurer(
            reconfig::CoveragePolicy::kUsedFaultyPrimaries)
            .plan(chip.array);
    if (!plan.success) continue;
    // Skip draws that kill a placed module (port, mixer, detector); those
    // need module re-placement, not cell-level replacement.
    bool module_hit = false;
    for (const sim::WorkloadModule& module : workload->modules()) {
      for (const auto cell : module.cells) {
        module_hit |= chip.array.health(cell) == CellHealth::kFaulty;
      }
    }
    if (module_hit) continue;
    ++attempted;
    state.reset();
    for (const auto cell : faults.cells()) state.faults().set_faulty(cell);
    const sim::OperationalRun run = state.evaluate(
        reconfig::CoveragePolicy::kUsedFaultyPrimaries,
        graph::MatchingEngine::kHopcroftKarp,
        reconfig::ReplacementPool::kSparesOnly);
    EXPECT_TRUE(run.structural) << "trial " << trial;
    if (run.operational) ++successes;
  }
  // Every trial whose modules survived must run to completion on the
  // reconfigured chip; the sweep must actually exercise several.
  EXPECT_EQ(successes, attempted);
  EXPECT_GE(attempted, 5);
}

TEST(Pipeline, PaperFig13Headline35FaultsYieldAtLeast90Percent) {
  // The paper's Fig. 13 claim: the DTMB(2,6)-based diagnostics chip keeps
  // yield >= 0.90 with up to 35 random cell failures. Our reconstructed
  // layout brackets that claim (see EXPERIMENTS.md): spare-only
  // reconfiguration crosses 0.90 around m = 31; adding the unused-primary
  // pool (the paper's category-1 reconfiguration, visible in Fig. 12's
  // legend) holds >= 0.90 well past m = 35.
  assay::MultiplexedChip chip = assay::make_multiplexed_chip();
  yield::McOptions options;
  options.runs = 4000;
  options.policy = reconfig::CoveragePolicy::kUsedFaultyPrimaries;
  const auto spares_m30 = yield::mc_yield_fixed_faults(chip.array, 30, options);
  EXPECT_GE(spares_m30.value, 0.90);
  const auto spares_m35 = yield::mc_yield_fixed_faults(chip.array, 35, options);
  EXPECT_GE(spares_m35.value, 0.85);

  options.pool = reconfig::ReplacementPool::kSparesAndUnusedPrimaries;
  const auto combined_m35 =
      yield::mc_yield_fixed_faults(chip.array, 35, options);
  EXPECT_GE(combined_m35.value, 0.90)
      << "CI [" << combined_m35.ci95.lo << ", " << combined_m35.ci95.hi << "]";
  EXPECT_GE(combined_m35.value, spares_m35.value);
}

TEST(Pipeline, PaperSection7NoRedundancyYield) {
  // 0.99^108 = 0.3378: the first-generation chip is not manufacturable.
  const assay::MultiplexedChip chip = assay::make_multiplexed_chip();
  EXPECT_NEAR(yield::used_cells_yield(chip.array.used_count(), 0.99), 0.3378,
              2e-4);
}

TEST(Pipeline, RedundantChipBeatsBareChipAtEveryP) {
  assay::MultiplexedChip chip = assay::make_multiplexed_chip();
  yield::McOptions options;
  options.runs = 2000;
  options.policy = reconfig::CoveragePolicy::kUsedFaultyPrimaries;
  for (const double p : {0.97, 0.98, 0.99}) {
    const double redundant =
        yield::mc_yield_bernoulli(chip.array, p, options).value;
    const double bare = yield::used_cells_yield(108, p);
    EXPECT_GT(redundant, bare) << "p = " << p;
  }
}

TEST(Pipeline, RenderShowsReplacements) {
  auto array = biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 9, 9);
  const auto faulty = array.region().index_of({3, 3});
  array.set_health(faulty, CellHealth::kFaulty);
  const auto plan = reconfig::LocalReconfigurer().plan(array);
  ASSERT_TRUE(plan.success);
  const std::string picture = io::render_hex(array, &plan);
  EXPECT_NE(picture.find('X'), std::string::npos);  // the fault
  EXPECT_NE(picture.find('@'), std::string::npos);  // its replacement spare
  EXPECT_NE(picture.find('o'), std::string::npos);  // untouched spares
}

TEST(Pipeline, RenderMarksUnrepairable) {
  auto array = biochip::make_dtmb_array(DtmbKind::kDtmb2_6, 9, 9);
  const auto faulty = array.region().index_of({3, 3});
  array.set_health(faulty, CellHealth::kFaulty);
  for (const auto spare : array.spare_neighbors_of(faulty)) {
    array.set_health(spare, CellHealth::kFaulty);
  }
  const auto plan = reconfig::LocalReconfigurer().plan(array);
  ASSERT_FALSE(plan.success);
  const std::string picture = io::render_hex(array, &plan);
  EXPECT_NE(picture.find('!'), std::string::npos);
  EXPECT_NE(picture.find('x'), std::string::npos);  // dead spares
}

TEST(Pipeline, TableFormatterRoundTrip) {
  io::Table table({"design", "RR", "yield"});
  table.row(4).cell("DTMB(1,6)").cell(1.0 / 6.0).cell(0.9731);
  table.row(4).cell("DTMB(4,4)").cell(1.0).cell(0.9992);
  const std::string text = table.to_text();
  EXPECT_NE(text.find("DTMB(1,6)"), std::string::npos);
  EXPECT_NE(text.find("0.1667"), std::string::npos);
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("design,RR,yield"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Pipeline, EffectiveYieldCrossoverExists) {
  // Fig. 10's qualitative shape: the best-effective-yield design at low p
  // carries strictly more redundancy than the best at high p (high
  // redundancy pays at low p, cheap designs win at high p).
  core::DesignAdvisor advisor(100, [] {
    yield::McOptions options;
    options.runs = 1500;
    return options;
  }());
  const auto low = advisor.assess(0.85);
  const auto high = advisor.assess(0.995);
  EXPECT_GT(low.best_effective_yield().redundancy_ratio,
            high.best_effective_yield().redundancy_ratio);
  // And at rock-bottom p, DTMB(4,4) is the best raw-yield design (paper:
  // "a microfluidic structure with the higher level of redundancy, such as
  // DTMB(4,4), is suitable for small values of p").
  const auto bottom = advisor.assess(0.80);
  ASSERT_TRUE(bottom.best_yield().kind.has_value());
  EXPECT_EQ(*bottom.best_yield().kind, DtmbKind::kDtmb4_4);
}

TEST(Pipeline, ClusterYieldFormulaMatchesPaperFig7Shape) {
  // Fig. 7's qualitative content: DTMB(1,6) strictly dominates
  // no-redundancy, and its *relative* advantage grows monotonically as p
  // drops (the absolute gap eventually shrinks because both tend to zero).
  double previous_ratio = 1.0;
  for (const double p : {0.99, 0.98, 0.97, 0.96, 0.95}) {
    const double redundant = yield::dtmb16_yield(120, p);
    const double bare = yield::no_redundancy_yield(120, p);
    EXPECT_GT(redundant, bare);
    const double ratio = redundant / bare;
    EXPECT_GT(ratio, previous_ratio);
    previous_ratio = ratio;
  }
}

}  // namespace
}  // namespace dmfb
