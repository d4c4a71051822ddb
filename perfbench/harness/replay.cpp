// `replay`: re-runs a builtin campaign's grid run by run on one thread,
// timing every call into the fault, sim and reconfig/assay/fluidics layers.
// It prints each point's success counts, so run.py can check them against
// the campaign CSV: equal counts show the replay timed the same work.
#include <iostream>
#include <stdexcept>

#include "campaign/builtin.hpp"
#include "campaign/grid.hpp"
#include "campaign/spec.hpp"
#include "common/parse.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "sim/fault_model.hpp"
#include "sim/fault_state.hpp"

namespace perfbench {

using namespace dmfb;

namespace {

template <typename InjectRun>
ReplayCounts structural_loop(const sim::YieldQuery& query,
                             sim::FaultState& state, std::int32_t runs,
                             LayerTimes& times, InjectRun inject_run) {
  const sim::EnginePlan plan = sim::plan_engine(query, state.design());
  ReplayCounts counts;
  for (std::int32_t run = 0; run < runs; ++run) {
    const Clock::time_point t0 = Clock::now();
    inject_run(run);
    const Clock::time_point t1 = Clock::now();
    const bool ok =
        plan.incremental
            ? state.repairable_incremental(query.policy, query.pool)
            : state.repairable(query.policy, plan.engine, query.pool);
    const Clock::time_point t2 = Clock::now();
    times.inject.add(elapsed_ns(t0, t1));
    times.repair.add(elapsed_ns(t1, t2));
    if (ok) ++counts.successes;
    state.reset();
  }
  return counts;
}

/// The session query a campaign grid point resolves to. Goes through the
/// wire request, which shares the campaign vocabulary, so the mapping is
/// the shipped one rather than a copy.
sim::YieldQuery query_of(const campaign::CampaignPoint& point,
                         const campaign::CampaignSpec& spec) {
  if (point.injector == campaign::InjectorKind::kMixture) {
    throw std::invalid_argument("mixture campaigns are not replayed");
  }
  serve::ServeRequest request;
  request.design = point.design;
  request.min_primaries = point.min_primaries;
  request.injector = point.injector;
  request.param = point.param;
  request.cluster = point.cluster;
  request.workload = point.workload;
  request.rng_version = point.rng_version;
  request.runs = spec.runs;
  request.seed = spec.seed;
  request.policy = point.policy;
  request.engine = point.engine;
  request.pool = point.pool;
  return serve::query_of(request);
}

}  // namespace

ReplayCounts replay_structural(const sim::YieldQuery& query,
                               std::shared_ptr<const sim::ChipDesign> design,
                               std::int32_t runs, LayerTimes& times) {
  sim::FaultState state(std::move(design));
  if (query.rng_version == RngVersion::kV2) {
    return structural_loop(query, state, runs, times, [&](std::int32_t run) {
      CounterStream stream = sim::run_stream_v2(query.seed, run);
      sim::inject_v2(query.fault, state, stream);
    });
  }
  return structural_loop(query, state, runs, times, [&](std::int32_t run) {
    Rng rng = sim::run_stream(query.seed, run);
    sim::inject(query.fault, state, rng);
  });
}

ReplayCounts replay_operational(
    const sim::YieldQuery& query,
    std::shared_ptr<const sim::AssayWorkload> workload, std::int32_t runs,
    LayerTimes& times) {
  sim::OperationalState state(std::move(workload));
  obs::Registry registry;
  registry.install();
  ReplayCounts counts;
  for (std::int32_t run = 0; run < runs; ++run) {
    const Clock::time_point t0 = Clock::now();
    if (query.rng_version == RngVersion::kV2) {
      CounterStream stream = sim::run_stream_v2(query.seed, run);
      sim::inject_v2(query.fault, state.faults(), stream);
    } else {
      Rng rng = sim::run_stream(query.seed, run);
      sim::inject(query.fault, state.faults(), rng);
    }
    const Clock::time_point t1 = Clock::now();
    const sim::OperationalRun outcome =
        state.evaluate(query.policy, query.engine, query.pool);
    const Clock::time_point t2 = Clock::now();
    times.inject.add(elapsed_ns(t0, t1));
    times.operational.add(elapsed_ns(t1, t2));
    if (outcome.structural) ++counts.successes;
    if (outcome.operational) ++counts.op_successes;
    state.reset();
  }
  registry.uninstall();
  times.route_ns +=
      registry.snapshot().histogram(obs::Metric::kRouteNs).sum_ns;
  return counts;
}

int replay_main(const Args& args) {
  const std::string name = args.get("campaign");
  const std::optional<std::uint64_t> seed =
      common::parse_uint64(args.get("seed"));
  if (!seed) throw std::invalid_argument("--seed needs a uint64");
  const std::string_view text = campaign::builtin_campaign(name);
  if (text.empty()) throw std::invalid_argument("unknown campaign " + name);
  campaign::ParseResult parsed = campaign::parse_campaign_spec(text);
  if (!parsed.ok()) throw std::invalid_argument(parsed.error_text());
  campaign::CampaignSpec spec = std::move(*parsed.spec);
  spec.seed = *seed;

  DesignCache designs;
  LayerTimes times;
  std::vector<std::int64_t> successes;
  std::vector<std::int64_t> op_successes;
  const Clock::time_point start = Clock::now();
  for (const campaign::CampaignPoint& point : campaign::expand_grid(spec)) {
    const bool assay = point.workload == campaign::WorkloadKind::kAssay;
    const DesignCache::Built& built =
        designs.get(point.design, point.min_primaries);
    const sim::YieldQuery query = query_of(point, spec);
    const ReplayCounts counts =
        assay ? replay_operational(query, built.workload, spec.runs, times)
              : replay_structural(query, built.design, spec.runs, times);
    successes.push_back(counts.successes);
    op_successes.push_back(counts.op_successes);
  }
  const double wall_s = elapsed_s(start, Clock::now());

  std::cout << JsonObject()
                   .num("wall_s", wall_s)
                   .num("design_build_ms", designs.builds().mean_ns() * 1e-6)
                   .num("inject_ns", times.inject.mean_ns())
                   .integer("inject_calls", times.inject.calls)
                   .num("repair_ns", times.repair.mean_ns())
                   .integer("repair_calls", times.repair.calls)
                   .num("operational_run_ns", times.operational.mean_ns())
                   .integer("operational_calls", times.operational.calls)
                   .integer("route_ns_total", times.route_ns)
                   .integer("operational_ns_total", times.operational.total_ns)
                   .raw("successes", json_array(successes))
                   .raw("op_successes", json_array(op_successes))
                   .text()
            << '\n';
  return 0;
}

}  // namespace perfbench
