// Micro-benchmarks for the session-based Monte-Carlo engine (Google
// Benchmark harness, skipped at configure time when the library is absent).
//
// The before/after pair the CI regression gate watches:
//   BM_McYieldRun_Legacy   — one Monte-Carlo run on the legacy path: inject
//                            into a HexArray, LocalReconfigurer::feasible
//                            (fresh bipartite graph + hash map per run).
//   BM_McYieldRun_Session  — the same run on the sim path: inject into a
//                            FaultState bitmap, filter the pre-built
//                            ChipDesign skeleton, matched with reused
//                            buffers.
// Both kernels replay the identical (seed, run)-derived fault streams, so
// they do the same matching work and differ only in engine overhead.
//
// The sweep pair scales the comparison to a fig9-sized grid (the paper's
// design x size x p cross product) at reduced runs.
//
// Emit machine-readable results with tools/bench_mc_yield.sh, which wraps
//   bench_sim_session --benchmark_out=BENCH_mc_yield.json
// and is what CI diffs against bench/baselines/BENCH_mc_yield.json.
#include <benchmark/benchmark.h>

#include "biochip/dtmb.hpp"
#include "campaign/builtin.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "reconfig/local_reconfig.hpp"
#include "sim/assay_workload.hpp"
#include "sim/session.hpp"
#include "yield/monte_carlo.hpp"

namespace {

using namespace dmfb;

constexpr double kSurvivalP = 0.92;
constexpr std::uint64_t kSeed = sim::kDefaultSeed;

biochip::HexArray bench_array() {
  // The fig9 mid-size point: DTMB(2,6) at >= 120 primaries.
  return biochip::make_dtmb_array_with_primaries(biochip::DtmbKind::kDtmb2_6,
                                                 120);
}

biochip::HexArray dtmb16_array() {
  // The paper's standard design: DTMB(1,6) at >= 120 primaries.
  return biochip::make_dtmb_array_with_primaries(biochip::DtmbKind::kDtmb1_6,
                                                 120);
}

biochip::HexArray dtmb16_large_array() {
  // DTMB(1,6) at 2x fig9's largest size — the scale-out point the sparse
  // v1-vs-v2 injection pair is quoted on: v1 injection cost grows with the
  // cell count, v2's with the fault count (~6 faults at p = 0.99 here), so
  // this is where the O(cells)-vs-O(faults) separation is measured.
  return biochip::make_dtmb_array_with_primaries(biochip::DtmbKind::kDtmb1_6,
                                                 480);
}

void BM_McYieldRun_Legacy(benchmark::State& state) {
  auto array = bench_array();
  const fault::BernoulliInjector injector(kSurvivalP);
  const reconfig::LocalReconfigurer reconfigurer;
  std::int32_t run = 0;
  for (auto _ : state) {
    Rng rng = sim::run_stream(kSeed, run++);
    injector.inject(array, rng);
    benchmark::DoNotOptimize(reconfigurer.feasible(array));
    array.reset_health();
  }
}
BENCHMARK(BM_McYieldRun_Legacy);

void BM_McYieldRun_Session(benchmark::State& state) {
  const auto design = sim::ChipDesign::make(bench_array());
  sim::FaultState fault_state(design);
  const sim::FaultModel model = sim::FaultModel::bernoulli(kSurvivalP);
  std::int32_t run = 0;
  for (auto _ : state) {
    Rng rng = sim::run_stream(kSeed, run++);
    sim::inject(model, fault_state, rng);
    benchmark::DoNotOptimize(fault_state.repairable(
        reconfig::CoveragePolicy::kAllFaultyPrimaries,
        graph::MatchingEngine::kHopcroftKarp,
        reconfig::ReplacementPool::kSparesOnly));
    fault_state.reset();
  }
}
BENCHMARK(BM_McYieldRun_Session);

// The session kernel with an obs::Registry installed — the observability
// overhead probe. Compare against BM_McYieldRun_Session: the gap is the
// full per-run metrics cost (the injection-counter flush plus the TLS
// epoch checks). The gated ratio kernels above run with observability
// disabled, so the existing two-sided gate also enforces that merely
// *linking* obs stays free.
void BM_McYieldRun_SessionMetrics(benchmark::State& state) {
  obs::Registry registry;
  registry.install();
  const auto design = sim::ChipDesign::make(bench_array());
  sim::FaultState fault_state(design);
  const sim::FaultModel model = sim::FaultModel::bernoulli(kSurvivalP);
  std::int32_t run = 0;
  for (auto _ : state) {
    Rng rng = sim::run_stream(kSeed, run++);
    sim::inject(model, fault_state, rng);
    benchmark::DoNotOptimize(fault_state.repairable(
        reconfig::CoveragePolicy::kAllFaultyPrimaries,
        graph::MatchingEngine::kHopcroftKarp,
        reconfig::ReplacementPool::kSparesOnly));
    fault_state.reset();
  }
  registry.uninstall();
}
BENCHMARK(BM_McYieldRun_SessionMetrics);

// Repair-path variants of the session kernel (not part of the CI ratio
// gate): the same fault stream checked by the diff-based incremental repair
// path, and at the low-density operating point where the incremental diff
// should pay (p = 0.99 leaves ~2 faults per run, so consecutive runs differ
// in a handful of cells). The batch check is always Hopcroft-Karp, which
// BM_McYieldRun_Session already times.

void BM_McYieldRun_Incremental(benchmark::State& state) {
  const auto design = sim::ChipDesign::make(bench_array());
  sim::FaultState fault_state(design);
  const sim::FaultModel model = sim::FaultModel::bernoulli(kSurvivalP);
  std::int32_t run = 0;
  for (auto _ : state) {
    Rng rng = sim::run_stream(kSeed, run++);
    sim::inject(model, fault_state, rng);
    benchmark::DoNotOptimize(fault_state.repairable_incremental(
        reconfig::CoveragePolicy::kAllFaultyPrimaries,
        reconfig::ReplacementPool::kSparesOnly));
    fault_state.reset();
  }
}
BENCHMARK(BM_McYieldRun_Incremental);

void BM_McYieldRun_IncrementalSparse(benchmark::State& state) {
  const auto design = sim::ChipDesign::make(bench_array());
  sim::FaultState fault_state(design);
  const sim::FaultModel model = sim::FaultModel::bernoulli(0.99);
  std::int32_t run = 0;
  for (auto _ : state) {
    Rng rng = sim::run_stream(kSeed, run++);
    sim::inject(model, fault_state, rng);
    benchmark::DoNotOptimize(fault_state.repairable_incremental(
        reconfig::CoveragePolicy::kAllFaultyPrimaries,
        reconfig::ReplacementPool::kSparesOnly));
    fault_state.reset();
  }
}
BENCHMARK(BM_McYieldRun_IncrementalSparse);

// The standard DTMB(1,6) query (the paper's principal design) under the
// auto-planned path, against its legacy counterpart: the pair the ROADMAP
// item-2 kernel target is quoted on.

void BM_McYieldRun_Dtmb16_Legacy(benchmark::State& state) {
  auto array = dtmb16_array();
  const fault::BernoulliInjector injector(kSurvivalP);
  const reconfig::LocalReconfigurer reconfigurer;
  std::int32_t run = 0;
  for (auto _ : state) {
    Rng rng = sim::run_stream(kSeed, run++);
    injector.inject(array, rng);
    benchmark::DoNotOptimize(reconfigurer.feasible(array));
    array.reset_health();
  }
}
BENCHMARK(BM_McYieldRun_Dtmb16_Legacy);

void BM_McYieldRun_Dtmb16_Auto(benchmark::State& state) {
  const auto design = sim::ChipDesign::make(dtmb16_array());
  sim::FaultState fault_state(design);
  const sim::FaultModel model = sim::FaultModel::bernoulli(kSurvivalP);
  sim::YieldQuery query;
  query.fault = model;
  query.engine = graph::MatchingEngine::kAuto;
  const sim::EnginePlan plan = sim::plan_engine(query, *design);
  std::int32_t run = 0;
  for (auto _ : state) {
    Rng rng = sim::run_stream(kSeed, run++);
    sim::inject(model, fault_state, rng);
    const bool ok =
        plan.incremental
            ? fault_state.repairable_incremental(
                  reconfig::CoveragePolicy::kAllFaultyPrimaries,
                  reconfig::ReplacementPool::kSparesOnly)
            : fault_state.repairable(
                  reconfig::CoveragePolicy::kAllFaultyPrimaries, plan.engine,
                  reconfig::ReplacementPool::kSparesOnly);
    benchmark::DoNotOptimize(ok);
    fault_state.reset();
  }
}
BENCHMARK(BM_McYieldRun_Dtmb16_Auto);

// v2 draw-contract kernels (rng_version = v2): the same work as their v1
// counterparts, but injection draws come from counter-based per-cell
// streams with geometric skip-sampling — O(faults) draws instead of
// O(cells). check_bench_regression.py maps each BM_McYieldRun_InjectV2*
// kernel to its v1 counterpart (V2_COUNTERPARTS) so the ratio table reads
// "v2 vs v1" instead of "n/a". The sparse DTMB(1,6) pair below is where
// the contract must pay: at p = 0.99 the v1 kernel burns ~99% of its
// injection draws on cells that never fault.

void BM_McYieldRun_Dtmb16Sparse(benchmark::State& state) {
  // v1 baseline for the sparse pair: DTMB(1,6), p = 0.99, incremental
  // repair (the plan the session would pick for this query).
  const auto design = sim::ChipDesign::make(dtmb16_large_array());
  sim::FaultState fault_state(design);
  const sim::FaultModel model = sim::FaultModel::bernoulli(0.99);
  std::int32_t run = 0;
  for (auto _ : state) {
    Rng rng = sim::run_stream(kSeed, run++);
    sim::inject(model, fault_state, rng);
    benchmark::DoNotOptimize(fault_state.repairable_incremental(
        reconfig::CoveragePolicy::kAllFaultyPrimaries,
        reconfig::ReplacementPool::kSparesOnly));
    fault_state.reset();
  }
}
BENCHMARK(BM_McYieldRun_Dtmb16Sparse);

void BM_McYieldRun_InjectV2(benchmark::State& state) {
  const auto design = sim::ChipDesign::make(bench_array());
  sim::FaultState fault_state(design);
  const sim::FaultModel model = sim::FaultModel::bernoulli(kSurvivalP);
  std::int32_t run = 0;
  for (auto _ : state) {
    CounterStream stream = sim::run_stream_v2(kSeed, run++);
    sim::inject_v2(model, fault_state, stream);
    benchmark::DoNotOptimize(fault_state.repairable(
        reconfig::CoveragePolicy::kAllFaultyPrimaries,
        graph::MatchingEngine::kHopcroftKarp,
        reconfig::ReplacementPool::kSparesOnly));
    fault_state.reset();
  }
}
BENCHMARK(BM_McYieldRun_InjectV2);

void BM_McYieldRun_InjectV2_Dtmb16Sparse(benchmark::State& state) {
  const auto design = sim::ChipDesign::make(dtmb16_large_array());
  sim::FaultState fault_state(design);
  const sim::FaultModel model = sim::FaultModel::bernoulli(0.99);
  std::int32_t run = 0;
  for (auto _ : state) {
    CounterStream stream = sim::run_stream_v2(kSeed, run++);
    sim::inject_v2(model, fault_state, stream);
    benchmark::DoNotOptimize(fault_state.repairable_incremental(
        reconfig::CoveragePolicy::kAllFaultyPrimaries,
        reconfig::ReplacementPool::kSparesOnly));
    fault_state.reset();
  }
}
BENCHMARK(BM_McYieldRun_InjectV2_Dtmb16Sparse);

void BM_McYieldRun_InjectV2_Parametric(benchmark::State& state) {
  const auto design = sim::ChipDesign::make(bench_array());
  sim::FaultState fault_state(design);
  const sim::FaultModel model = sim::FaultModel::parametric(1.2);
  std::int32_t run = 0;
  for (auto _ : state) {
    CounterStream stream = sim::run_stream_v2(kSeed, run++);
    sim::inject_v2(model, fault_state, stream);
    benchmark::DoNotOptimize(fault_state.repairable(
        reconfig::CoveragePolicy::kAllFaultyPrimaries,
        graph::MatchingEngine::kHopcroftKarp,
        reconfig::ReplacementPool::kSparesOnly));
    fault_state.reset();
  }
}
BENCHMARK(BM_McYieldRun_InjectV2_Parametric);

void BM_McYieldRun_InjectV2_Mixture(benchmark::State& state) {
  const auto design = sim::ChipDesign::make(bench_array());
  sim::FaultState fault_state(design);
  const sim::FaultModel model = sim::FaultModel::mixture(
      {sim::FaultModel::bernoulli(kSurvivalP),
       sim::FaultModel::parametric(1.2),
       sim::FaultModel::clustered(0.5, {1, 0.9, 0.3})});
  std::int32_t run = 0;
  for (auto _ : state) {
    CounterStream stream = sim::run_stream_v2(kSeed, run++);
    sim::inject_v2(model, fault_state, stream);
    benchmark::DoNotOptimize(fault_state.repairable(
        reconfig::CoveragePolicy::kAllFaultyPrimaries,
        graph::MatchingEngine::kHopcroftKarp,
        reconfig::ReplacementPool::kSparesOnly));
    fault_state.reset();
  }
}
BENCHMARK(BM_McYieldRun_InjectV2_Mixture);

// Composable-model kernels (not part of the CI ratio gate): the parametric
// injector's per-cell Gaussian sampling dominates its run cost, and the
// mixture kernel stacks all three mechanism families per run.

void BM_McYieldRun_Parametric(benchmark::State& state) {
  const auto design = sim::ChipDesign::make(bench_array());
  sim::FaultState fault_state(design);
  const sim::FaultModel model = sim::FaultModel::parametric(1.2);
  std::int32_t run = 0;
  for (auto _ : state) {
    Rng rng = sim::run_stream(kSeed, run++);
    sim::inject(model, fault_state, rng);
    benchmark::DoNotOptimize(fault_state.repairable(
        reconfig::CoveragePolicy::kAllFaultyPrimaries,
        graph::MatchingEngine::kHopcroftKarp,
        reconfig::ReplacementPool::kSparesOnly));
    fault_state.reset();
  }
}
BENCHMARK(BM_McYieldRun_Parametric);

void BM_McYieldRun_Mixture(benchmark::State& state) {
  const auto design = sim::ChipDesign::make(bench_array());
  sim::FaultState fault_state(design);
  const sim::FaultModel model = sim::FaultModel::mixture(
      {sim::FaultModel::bernoulli(kSurvivalP),
       sim::FaultModel::parametric(1.2),
       sim::FaultModel::clustered(0.5, {1, 0.9, 0.3})});
  std::int32_t run = 0;
  for (auto _ : state) {
    Rng rng = sim::run_stream(kSeed, run++);
    sim::inject(model, fault_state, rng);
    benchmark::DoNotOptimize(fault_state.repairable(
        reconfig::CoveragePolicy::kAllFaultyPrimaries,
        graph::MatchingEngine::kHopcroftKarp,
        reconfig::ReplacementPool::kSparesOnly));
    fault_state.reset();
  }
}
BENCHMARK(BM_McYieldRun_Mixture);

// Operational-workload kernel (not part of the CI ratio gate): one full
// operational run on the Section-7 multiplexed workload — inject, build the
// reconfiguration plan from the design's matching skeleton, look up the
// degraded schedule for the surviving module pool (memoised per pool, so
// warm iterations mostly hit), and measure the droplet transports with one
// HopBoard BFS wave per endpoint group (about four per run). Several times
// heavier than the structural kernel, with routing its largest layer;
// tracked so the fig13_operational campaign cost stays visible.

void BM_McYieldRun_Operational(benchmark::State& state) {
  const auto workload = sim::AssayWorkload::multiplexed();
  sim::OperationalState operational_state(workload);
  const sim::FaultModel model = sim::FaultModel::fixed_count(25);
  std::int32_t run = 0;
  for (auto _ : state) {
    Rng rng = sim::run_stream(kSeed, run++);
    sim::inject(model, operational_state.faults(), rng);
    benchmark::DoNotOptimize(operational_state.evaluate(
        reconfig::CoveragePolicy::kUsedFaultyPrimaries,
        graph::MatchingEngine::kHopcroftKarp,
        reconfig::ReplacementPool::kSparesOnly));
    operational_state.reset();
  }
}
BENCHMARK(BM_McYieldRun_Operational);

// Fig9-sized sweep (3 designs x 3 sizes x 9 p values) at reduced runs.

constexpr std::int32_t kSweepRuns = 200;

void BM_Fig9Sweep_Legacy(benchmark::State& state) {
  // The pre-campaign shape: a fresh array walk over the grid, each point
  // through the generic HexArray engine.
  for (auto _ : state) {
    std::int64_t successes = 0;
    for (const biochip::DtmbKind kind :
         {biochip::DtmbKind::kDtmb2_6, biochip::DtmbKind::kDtmb3_6,
          biochip::DtmbKind::kDtmb4_4}) {
      for (const std::int32_t primaries : {60, 120, 240}) {
        auto array = biochip::make_dtmb_array_with_primaries(kind, primaries);
        for (const double p :
             {0.80, 0.85, 0.88, 0.90, 0.92, 0.94, 0.96, 0.98, 0.99}) {
          const fault::BernoulliInjector injector(p);
          yield::McOptions options;
          options.runs = kSweepRuns;
          successes += yield::mc_yield(
                           array,
                           [&](biochip::HexArray& a, Rng& rng) {
                             injector.inject(a, rng);
                           },
                           options)
                           .successes;
        }
      }
    }
    benchmark::DoNotOptimize(successes);
  }
}
BENCHMARK(BM_Fig9Sweep_Legacy)->Unit(benchmark::kMillisecond);

void BM_Fig9Sweep_Session(benchmark::State& state) {
  // The same grid through the campaign runner's shared sessions.
  auto parsed =
      campaign::parse_campaign_spec(campaign::builtin_campaign("fig9_smoke"));
  if (!parsed.ok()) {
    state.SkipWithError("builtin fig9_smoke spec failed to parse");
    return;
  }
  campaign::CampaignSpec spec = std::move(*parsed.spec);
  spec.runs = kSweepRuns;
  spec.threads = 1;
  spec.sinks.clear();
  for (auto _ : state) {
    campaign::CampaignRunner runner(spec);
    benchmark::DoNotOptimize(runner.run().size());
  }
}
BENCHMARK(BM_Fig9Sweep_Session)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
