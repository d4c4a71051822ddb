// Contract and determinism tests for the operational workload pipeline:
// sim::AssayWorkload, the per-run OperationalState kernel, and the
// Session's Workload::kAssay query path.
//
// The load-bearing suite is the thread-invariance pin: for every
// (policy x engine x pool) combination the operational estimate — both
// yield legs, the run-order-folded mean slowdown and the worst slowdown —
// must be bit-identical at threads 1 and 4. A second pin ties the
// structural leg of an operational query to the same query asked with
// Workload::kStructural, so the two halves of the codebase agree on
// repairability run-for-run. The fig13_operational campaign CSV is pinned
// as a golden file, like fig9_smoke. An oracle test checks the kernel's
// skeleton-built plan, reusable tables, bitboard hop counts and schedule
// memo field for field against a from-scratch evaluator built on
// reconfig::LocalReconfigurer (Hopcroft-Karp) and BFS routes, under every
// engine spelling, and an engine-invariance pin requires every estimate
// field to be bit-identical under all five engine spellings.
#include <algorithm>
#include <bit>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "biochip/dtmb.hpp"
#include "campaign/builtin.hpp"
#include "campaign/runner.hpp"
#include "campaign/sink.hpp"
#include "campaign/spec.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "core/defect_tolerant_biochip.hpp"
#include "fluidics/router.hpp"
#include "sim/assay_workload.hpp"
#include "sim/fault_model.hpp"
#include "sim/session.hpp"

namespace dmfb::sim {
namespace {

using reconfig::CoveragePolicy;
using reconfig::ReplacementPool;
using graph::MatchingEngine;

/// The shared Section-7 workload: building it once keeps the suite fast
/// (chip construction + baseline routing run once, not per test).
const std::shared_ptr<const AssayWorkload>& multiplexed_workload() {
  static const std::shared_ptr<const AssayWorkload> workload =
      AssayWorkload::multiplexed();
  return workload;
}

YieldQuery operational_query(const FaultModel& model, std::int32_t runs,
                             std::int32_t threads) {
  YieldQuery query;
  query.fault = model;
  query.workload = Workload::kAssay;
  query.runs = runs;
  query.threads = threads;
  query.policy = CoveragePolicy::kUsedFaultyPrimaries;
  query.pool = ReplacementPool::kSparesOnly;
  return query;
}

// ------------------------------------------------------------ the workload

TEST(AssayWorkload, MultiplexedMatchesTheSectionSevenChip) {
  const auto& workload = multiplexed_workload();
  EXPECT_EQ(workload->design().primary_count(), 252);
  EXPECT_EQ(workload->design().spare_count(), 91);
  // 4 shared ports + 4 mixers + 4 detectors.
  EXPECT_EQ(workload->modules().size(), 12u);
  EXPECT_EQ(workload->full_pool().dispense_ports, 4);
  EXPECT_EQ(workload->full_pool().mixers, 4);
  EXPECT_EQ(workload->full_pool().detectors, 4);
  // Baseline: full-pool makespan plus routed transport overhead, strictly
  // above the resource-free critical path.
  EXPECT_GT(workload->baseline_completion_s(),
            workload->graph().critical_path());
}

TEST(AssayWorkload, RejectsForeignAndOverlappingModules) {
  const auto design = multiplexed_workload()->design_ptr();
  const CellIndex primary = design->array().primaries().front();
  const CellIndex spare = design->array().spares().front();
  // A spare cell cannot host a module.
  EXPECT_THROW(AssayWorkload::make(
                   design, assay::SequencingGraph::multiplexed_ivd(),
                   {{WorkloadModule::Kind::kPort, {spare}}}),
               ContractViolation);
  // Overlapping modules are ambiguous.
  EXPECT_THROW(
      AssayWorkload::make(design, assay::SequencingGraph::multiplexed_ivd(),
                          {{WorkloadModule::Kind::kPort, {primary}},
                           {WorkloadModule::Kind::kMixer, {primary}}}),
      ContractViolation);
}

// --------------------------------------------------------- per-run kernel

TEST(OperationalState, HealthyChipCompletesAtBaseline) {
  OperationalState state(multiplexed_workload());
  const OperationalRun run =
      state.evaluate(CoveragePolicy::kUsedFaultyPrimaries,
                     MatchingEngine::kHopcroftKarp,
                     ReplacementPool::kSparesOnly);
  EXPECT_TRUE(run.structural);
  EXPECT_TRUE(run.operational);
  EXPECT_DOUBLE_EQ(run.completion_s,
                   multiplexed_workload()->baseline_completion_s());
  EXPECT_DOUBLE_EQ(run.slowdown, 1.0);
}

TEST(OperationalState, LostMixerDegradesGracefully) {
  const auto& workload = multiplexed_workload();
  OperationalState state(workload);
  // Kill one whole mixer AND its adjacent spares, so no replacement exists:
  // structural repair fails, but the assay re-schedules on 3 mixers.
  const WorkloadModule* mixer = nullptr;
  for (const WorkloadModule& module : workload->modules()) {
    if (module.kind == WorkloadModule::Kind::kMixer) {
      mixer = &module;
      break;
    }
  }
  ASSERT_NE(mixer, nullptr);
  for (const CellIndex cell : mixer->cells) {
    state.faults().set_faulty(cell);
    for (const CellIndex spare :
         workload->design().array().spare_neighbors_of(cell)) {
      state.faults().set_faulty(spare);
    }
  }
  const OperationalRun run =
      state.evaluate(CoveragePolicy::kUsedFaultyPrimaries,
                     MatchingEngine::kHopcroftKarp,
                     ReplacementPool::kSparesOnly);
  EXPECT_FALSE(run.structural);
  EXPECT_TRUE(run.operational);  // 3 mixers still serve the 4 chains
  EXPECT_GT(run.slowdown, 1.0);

  // The hop board restores itself: after reset the healthy baseline is back.
  state.reset();
  const OperationalRun healthy =
      state.evaluate(CoveragePolicy::kUsedFaultyPrimaries,
                     MatchingEngine::kHopcroftKarp,
                     ReplacementPool::kSparesOnly);
  EXPECT_DOUBLE_EQ(healthy.slowdown, 1.0);
}

TEST(OperationalState, AssayFailsWhenAWholeResourceClassDies) {
  const auto& workload = multiplexed_workload();
  OperationalState state(workload);
  // Kill every detector and its spare neighbourhood: no detect op can run.
  for (const WorkloadModule& module : workload->modules()) {
    if (module.kind != WorkloadModule::Kind::kDetector) continue;
    for (const CellIndex cell : module.cells) {
      state.faults().set_faulty(cell);
      for (const CellIndex spare :
           workload->design().array().spare_neighbors_of(cell)) {
        state.faults().set_faulty(spare);
      }
    }
  }
  const OperationalRun run =
      state.evaluate(CoveragePolicy::kUsedFaultyPrimaries,
                     MatchingEngine::kHopcroftKarp,
                     ReplacementPool::kSparesOnly);
  EXPECT_FALSE(run.structural);
  EXPECT_FALSE(run.operational);
}

// ----------------------------------------------------- from-scratch oracle

/// The operational kernel rebuilt from scratch for every run: a fresh
/// array and plan, a fresh ListScheduler, transports measured as BFS route
/// lengths. Shares no table, buffer or memo with OperationalState. Plans
/// with Hopcroft-Karp, the one engine the kernel runs.
OperationalRun reference_evaluate(const AssayWorkload& workload,
                                  std::span<const CellIndex> faulty,
                                  CoveragePolicy policy,
                                  ReplacementPool pool) {
  biochip::HexArray array = workload.design().array();
  for (const CellIndex cell : faulty) {
    array.set_health(cell, biochip::CellHealth::kFaulty);
  }
  const reconfig::ReconfigPlan plan =
      reconfig::LocalReconfigurer(policy, MatchingEngine::kHopcroftKarp, pool)
          .plan(array);
  OperationalRun run;
  run.structural = plan.success;

  const auto operator_of = [&](CellIndex cell) {
    return array.health(cell) == biochip::CellHealth::kFaulty
               ? plan.replacement_for(cell)
               : cell;
  };
  std::vector<const WorkloadModule*> alive[3];
  for (const WorkloadModule& module : workload.modules()) {
    if (std::all_of(module.cells.begin(), module.cells.end(),
                    [&](CellIndex cell) {
                      return operator_of(cell) != hex::kInvalidCell;
                    })) {
      alive[static_cast<std::size_t>(module.kind)].push_back(&module);
    }
  }
  const auto alive_of = [&](assay::ResourceClass rc) -> const auto& {
    switch (rc) {
      case assay::ResourceClass::kPort:
        return alive[static_cast<std::size_t>(WorkloadModule::Kind::kPort)];
      case assay::ResourceClass::kMixer:
        return alive[static_cast<std::size_t>(WorkloadModule::Kind::kMixer)];
      default:
        return alive[static_cast<std::size_t>(
            WorkloadModule::Kind::kDetector)];
    }
  };
  assay::ResourcePool surviving;
  surviving.dispense_ports =
      static_cast<std::int32_t>(alive_of(assay::ResourceClass::kPort).size());
  surviving.mixers =
      static_cast<std::int32_t>(alive_of(assay::ResourceClass::kMixer).size());
  surviving.detectors = static_cast<std::int32_t>(
      alive_of(assay::ResourceClass::kDetector).size());
  for (const assay::AssayOp& op : workload.graph().ops()) {
    if (assay::capacity_of(surviving, assay::resource_class(op.kind)) < 1) {
      return run;
    }
  }
  const assay::Schedule schedule =
      assay::ListScheduler(surviving).schedule(workload.graph());

  fluidics::UsableCells usable(array);
  usable.activate_plan(plan);
  const fluidics::Router router(usable);
  std::vector<CellIndex> anchor(
      static_cast<std::size_t>(workload.graph().op_count()));
  std::int64_t hops = 0;
  for (const assay::AssayOp& op : workload.graph().ops()) {
    const auto id = static_cast<std::size_t>(op.id);
    const assay::ResourceClass rc = assay::resource_class(op.kind);
    anchor[id] =
        rc == assay::ResourceClass::kNone
            ? anchor[static_cast<std::size_t>(op.inputs.front())]
            : operator_of(alive_of(rc)[static_cast<std::size_t>(
                                           schedule.of(op.id).resource_index)]
                              ->cells.front());
    for (const std::int32_t input : op.inputs) {
      const std::vector<CellIndex> route = router.shortest_route(
          anchor[static_cast<std::size_t>(input)], anchor[id]);
      if (route.empty()) return run;
      hops += static_cast<std::int64_t>(route.size()) - 1;
    }
  }
  run.operational = true;
  run.completion_s =
      schedule.makespan() + kTransportSecondsPerHop * static_cast<double>(hops);
  run.slowdown = run.completion_s / workload.baseline_completion_s();
  return run;
}

TEST(OperationalState, MatchesTheFromScratchOracleOnShuffledFaultSets) {
  const auto& workload = multiplexed_workload();
  struct Case {
    std::vector<CellIndex> faulty;
    CoveragePolicy policy;
    ReplacementPool pool;
    MatchingEngine engine;
  };
  // Every engine spelling must plan the spares LocalReconfigurer plans
  // under Hopcroft-Karp, so the cases rotate through all of them.
  constexpr MatchingEngine kEngines[] = {
      MatchingEngine::kHopcroftKarp, MatchingEngine::kKuhn,
      MatchingEngine::kDinic, MatchingEngine::kPushRelabel,
      MatchingEngine::kAuto};
  // 2400 fixed_count fault sets over m in [0, 60], each under both pools,
  // alternating coverage policies, engines in turn; drawn in m order,
  // evaluated shuffled.
  std::vector<Case> cases;
  Rng rng(0x0AC1E);
  FaultState draw(workload->design_ptr());
  for (int i = 0; i < 2400; ++i) {
    inject(FaultModel::fixed_count(i % 61), draw, rng);
    const std::vector<CellIndex> faulty(draw.faulty_cells().begin(),
                                        draw.faulty_cells().end());
    draw.reset();
    const CoveragePolicy policy = i % 2 == 0
                                      ? CoveragePolicy::kUsedFaultyPrimaries
                                      : CoveragePolicy::kAllFaultyPrimaries;
    for (const ReplacementPool pool :
         {ReplacementPool::kSparesOnly,
          ReplacementPool::kSparesAndUnusedPrimaries}) {
      cases.push_back(
          {faulty, policy, pool, kEngines[cases.size() % std::size(kEngines)]});
    }
  }
  rng.shuffle(cases);

  // One state for every case: its dense tables and warm memo must carry
  // no history from one fault set to the next.
  OperationalState state(workload);
  int operational = 0;
  int severed = 0;
  int slowed = 0;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const Case& run_case = cases[c];
    state.reset();
    for (const CellIndex cell : run_case.faulty) {
      state.faults().set_faulty(cell);
    }
    const OperationalRun got =
        state.evaluate(run_case.policy, run_case.engine, run_case.pool);
    const OperationalRun want =
        reference_evaluate(*workload, run_case.faulty, run_case.policy,
                           run_case.pool);
    ASSERT_EQ(got.structural, want.structural) << "case " << c;
    ASSERT_EQ(got.operational, want.operational) << "case " << c;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.completion_s),
              std::bit_cast<std::uint64_t>(want.completion_s))
        << "case " << c;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.slowdown),
              std::bit_cast<std::uint64_t>(want.slowdown))
        << "case " << c;
    if (got.operational) {
      ++operational;
      if (got.slowdown > 1.0) ++slowed;
    } else {
      ++severed;
    }
  }
  // The sweep must reach every branch of the kernel.
  EXPECT_GT(operational, 1000);
  EXPECT_GT(severed, 30);
  EXPECT_GT(slowed, 100);
}

// ------------------------------------------------- determinism (acceptance)

TEST(SimOperational, BitIdenticalAcrossThreadsForEveryEngineCombination) {
  const auto& workload = multiplexed_workload();
  // One session per thread count: `threads` is not part of the cache key,
  // so a shared session would serve the threads=4 leg from cache.
  Session serial_session(workload);
  Session parallel_session(workload);
  for (const FaultModel& model :
       {FaultModel::fixed_count(25), FaultModel::bernoulli(0.97)}) {
    for (const CoveragePolicy policy :
         {CoveragePolicy::kAllFaultyPrimaries,
          CoveragePolicy::kUsedFaultyPrimaries}) {
      for (const MatchingEngine engine :
           {MatchingEngine::kHopcroftKarp, MatchingEngine::kKuhn,
            MatchingEngine::kDinic}) {
        for (const ReplacementPool pool :
             {ReplacementPool::kSparesOnly,
              ReplacementPool::kSparesAndUnusedPrimaries}) {
          YieldQuery query = operational_query(model, 192, 1);
          query.policy = policy;
          query.engine = engine;
          query.pool = pool;
          const OperationalEstimate serial =
              serial_session.run_operational(query);
          query.threads = 4;
          const OperationalEstimate parallel =
              parallel_session.run_operational(query);
          EXPECT_EQ(parallel.structural.successes,
                    serial.structural.successes)
              << "policy=" << static_cast<int>(policy)
              << " engine=" << static_cast<int>(engine)
              << " pool=" << static_cast<int>(pool);
          EXPECT_EQ(parallel.operational.successes,
                    serial.operational.successes);
          // The slowdown fold is floating-point: bit-identity here proves
          // the run-order fold really is thread-count independent.
          EXPECT_DOUBLE_EQ(parallel.mean_slowdown, serial.mean_slowdown);
          EXPECT_DOUBLE_EQ(parallel.worst_slowdown, serial.worst_slowdown);
        }
      }
    }
  }
}

void expect_bit_identical(const YieldEstimate& got, const YieldEstimate& want,
                          const std::string& where) {
  EXPECT_EQ(got.runs, want.runs) << where;
  EXPECT_EQ(got.successes, want.successes) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value),
            std::bit_cast<std::uint64_t>(want.value))
      << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.ci95.lo),
            std::bit_cast<std::uint64_t>(want.ci95.lo))
      << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.ci95.hi),
            std::bit_cast<std::uint64_t>(want.ci95.hi))
      << where;
}

TEST(SimOperational, EveryEngineSpellingGivesBitIdenticalEstimates) {
  // One engine computes every plan and verdict, so the engine token must
  // not move any estimate field, structural or operational, at any thread
  // count. The Bernoulli points sit on both sides of kAuto's incremental
  // density split; the fixed-count faults give Kuhn and Dinic plans other
  // than Hopcroft-Karp's, if the kernel ever ran them.
  constexpr MatchingEngine kSpellings[] = {
      MatchingEngine::kHopcroftKarp, MatchingEngine::kKuhn,
      MatchingEngine::kDinic, MatchingEngine::kPushRelabel,
      MatchingEngine::kAuto};
  const auto design = ChipDesign::make(biochip::make_dtmb_array_with_primaries(
      biochip::DtmbKind::kDtmb2_6, 120));
  const auto& workload = multiplexed_workload();
  for (const double p : {0.80, 0.95}) {
    YieldQuery query;
    query.fault = FaultModel::bernoulli(p);
    query.runs = 512;
    const YieldEstimate reference = Session(design).run(query);
    for (const MatchingEngine engine : kSpellings) {
      for (const std::int32_t threads : {1, 4}) {
        // A session per (engine, threads): the cache key ignores threads.
        query.engine = engine;
        query.threads = threads;
        expect_bit_identical(Session(design).run(query), reference,
                             "structural p=" + std::to_string(p) +
                                 " engine=" + to_string(engine) +
                                 " threads=" + std::to_string(threads));
      }
    }
  }
  for (const ReplacementPool pool :
       {ReplacementPool::kSparesOnly,
        ReplacementPool::kSparesAndUnusedPrimaries}) {
    YieldQuery query = operational_query(FaultModel::fixed_count(40), 512, 1);
    query.pool = pool;
    const OperationalEstimate reference =
        Session(workload).run_operational(query);
    EXPECT_GT(reference.operational.successes, 0);
    for (const MatchingEngine engine : kSpellings) {
      for (const std::int32_t threads : {1, 4}) {
        query.engine = engine;
        query.threads = threads;
        const OperationalEstimate got =
            Session(workload).run_operational(query);
        const std::string where = "pool=" +
                                  std::to_string(static_cast<int>(pool)) +
                                  " engine=" + to_string(engine) +
                                  " threads=" + std::to_string(threads);
        expect_bit_identical(got.structural, reference.structural, where);
        expect_bit_identical(got.operational, reference.operational, where);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.mean_slowdown),
                  std::bit_cast<std::uint64_t>(reference.mean_slowdown))
            << where;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.worst_slowdown),
                  std::bit_cast<std::uint64_t>(reference.worst_slowdown))
            << where;
      }
    }
  }
}

TEST(SimOperational, StructuralLegMatchesStructuralWorkloadRunForRun) {
  const auto& workload = multiplexed_workload();
  Session session(workload);
  YieldQuery query = operational_query(FaultModel::fixed_count(30), 400, 2);
  const OperationalEstimate operational = session.run_operational(query);

  YieldQuery structural = query;
  structural.workload = Workload::kStructural;
  const YieldEstimate direct = session.run(structural);
  EXPECT_EQ(operational.structural.successes, direct.successes);
  EXPECT_DOUBLE_EQ(operational.structural.value, direct.value);
}

TEST(SimOperational, AdaptiveStoppingIsThreadInvariant) {
  const auto& workload = multiplexed_workload();
  Session serial_session(workload);
  Session parallel_session(workload);
  YieldQuery query = operational_query(FaultModel::fixed_count(40), 20000, 1);
  query.target_ci_half_width = 0.05;
  const OperationalEstimate serial = serial_session.run_operational(query);
  EXPECT_LT(serial.operational.runs, 20000);
  EXPECT_EQ(serial.operational.runs % kAdaptiveChunkRuns, 0);
  EXPECT_LE(serial.operational.ci95.width() / 2.0, 0.05);
  // Both legs report the same realised run count.
  EXPECT_EQ(serial.structural.runs, serial.operational.runs);

  query.threads = 4;
  const OperationalEstimate parallel =
      parallel_session.run_operational(query);
  EXPECT_EQ(parallel.operational.runs, serial.operational.runs);
  EXPECT_EQ(parallel.operational.successes, serial.operational.successes);
  EXPECT_DOUBLE_EQ(parallel.mean_slowdown, serial.mean_slowdown);
}

// ----------------------------------------------------- session integration

TEST(SimOperational, RunReturnsTheOperationalLegAndSharesTheCache) {
  Session session(multiplexed_workload());
  const YieldQuery query =
      operational_query(FaultModel::fixed_count(20), 128, 1);
  const OperationalEstimate full = session.run_operational(query);
  const YieldEstimate leg = session.run(query);
  EXPECT_EQ(leg.successes, full.operational.successes);
  EXPECT_DOUBLE_EQ(leg.value, full.operational.value);
  // The run() call was served from the operational cache.
  EXPECT_EQ(session.stats().queries, 2u);
  EXPECT_EQ(session.stats().computed, 1u);
}

TEST(SimOperational, WorkloadIsPartOfTheQueryIdentity) {
  YieldQuery structural;
  structural.fault = FaultModel::fixed_count(10);
  YieldQuery assay = structural;
  assay.workload = Workload::kAssay;
  EXPECT_NE(query_key(structural), query_key(assay));
}

TEST(SimOperational, DesignOnlySessionsRejectAssayQueries) {
  Session session(multiplexed_workload()->design_ptr());
  EXPECT_EQ(session.workload_ptr(), nullptr);
  const YieldQuery query =
      operational_query(FaultModel::fixed_count(5), 32, 1);
  EXPECT_THROW(session.run_operational(query), ContractViolation);
  EXPECT_THROW(session.run(query), ContractViolation);
}

TEST(SimOperational, RunOperationalRequiresTheAssayWorkloadKind) {
  Session session(multiplexed_workload());
  YieldQuery query = operational_query(FaultModel::fixed_count(5), 32, 1);
  query.workload = Workload::kStructural;
  EXPECT_THROW(session.run_operational(query), ContractViolation);
}

// ----------------------------------------------------------- core facade

TEST(SimOperational, CoreFacadeEntryPointAgreesWithTheSession) {
  yield::McOptions options;
  options.runs = 96;
  options.policy = reconfig::CoveragePolicy::kUsedFaultyPrimaries;
  const OperationalEstimate via_facade = core::estimate_operational_yield(
      multiplexed_workload(), FaultModel::fixed_count(15), options);

  Session session(multiplexed_workload());
  const OperationalEstimate via_session = session.run_operational(
      operational_query(FaultModel::fixed_count(15), 96, 1));
  EXPECT_EQ(via_facade.operational.successes,
            via_session.operational.successes);
  EXPECT_EQ(via_facade.structural.successes,
            via_session.structural.successes);
  EXPECT_DOUBLE_EQ(via_facade.mean_slowdown, via_session.mean_slowdown);
}

// ------------------------------------------------------------ golden file

TEST(SimOperationalGolden, Fig13OperationalCsvMatchesGoldenFile) {
  campaign::ParseResult parsed = campaign::parse_campaign_spec(
      campaign::builtin_campaign("fig13_operational"));
  ASSERT_TRUE(parsed.ok()) << parsed.error_text();
  campaign::CampaignRunner runner(std::move(*parsed.spec));
  std::ostringstream csv_out;
  campaign::CsvSink csv(csv_out);
  runner.add_sink(csv);
  runner.run();

  const std::string path =
      std::string(DMFB_SOURCE_DIR) + "/tests/golden/fig13_operational.csv";
  std::ifstream file(path);
  ASSERT_TRUE(file.is_open()) << "missing " << path;
  std::ostringstream golden;
  golden << file.rdbuf();
  EXPECT_EQ(csv_out.str(), golden.str())
      << "campaign CSV drifted from " << path
      << " (regenerate with: dmfb_campaign builtin:fig13_operational)";
}

}  // namespace
}  // namespace dmfb::sim
