#include "sim/assay_workload.hpp"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "assay/multiplexed_chip.hpp"
#include "common/contracts.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dmfb::sim {

const char* to_string(WorkloadModule::Kind kind) noexcept {
  switch (kind) {
    case WorkloadModule::Kind::kPort: return "port";
    case WorkloadModule::Kind::kMixer: return "mixer";
    case WorkloadModule::Kind::kDetector: return "detector";
  }
  return "?";
}

namespace {

/// The module kind an op's resource class binds to, or nullopt for the
/// resource-free store class.
std::optional<WorkloadModule::Kind> module_kind_of(
    assay::ResourceClass rc) noexcept {
  switch (rc) {
    case assay::ResourceClass::kPort: return WorkloadModule::Kind::kPort;
    case assay::ResourceClass::kMixer: return WorkloadModule::Kind::kMixer;
    case assay::ResourceClass::kDetector:
      return WorkloadModule::Kind::kDetector;
    case assay::ResourceClass::kNone: return std::nullopt;
  }
  return std::nullopt;
}

std::size_t kind_slot(WorkloadModule::Kind kind) noexcept {
  return static_cast<std::size_t>(kind);
}

}  // namespace

AssayWorkload::AssayWorkload(std::shared_ptr<const ChipDesign> design,
                             assay::SequencingGraph graph,
                             std::vector<WorkloadModule> modules)
    : design_(std::move(design)),
      graph_(std::move(graph)),
      modules_(std::move(modules)) {}

std::shared_ptr<const AssayWorkload> AssayWorkload::make(
    std::shared_ptr<const ChipDesign> design, assay::SequencingGraph graph,
    std::vector<WorkloadModule> modules) {
  DMFB_EXPECTS(design != nullptr);
  DMFB_EXPECTS(graph.op_count() > 0);
  DMFB_EXPECTS(!modules.empty());
  const biochip::HexArray& array = design->array();
  std::unordered_set<CellIndex> taken;
  for (const WorkloadModule& module : modules) {
    DMFB_EXPECTS(!module.cells.empty());
    for (const CellIndex cell : module.cells) {
      DMFB_EXPECTS(cell >= 0 && cell < array.cell_count());
      DMFB_EXPECTS(array.role(cell) == biochip::CellRole::kPrimary);
      // Modules may not overlap — instance binding would be ambiguous.
      DMFB_EXPECTS(taken.insert(cell).second);
    }
  }

  // shared_ptr<const AssayWorkload> with a private constructor.
  auto workload = std::shared_ptr<AssayWorkload>(
      new AssayWorkload(std::move(design), std::move(graph),
                        std::move(modules)));
  workload->full_pool_ = assay::ResourcePool{0, 0, 0};  // counted, not default
  for (const WorkloadModule& module : workload->modules_) {
    switch (module.kind) {
      case WorkloadModule::Kind::kPort:
        ++workload->full_pool_.dispense_ports;
        break;
      case WorkloadModule::Kind::kMixer: ++workload->full_pool_.mixers; break;
      case WorkloadModule::Kind::kDetector:
        ++workload->full_pool_.detectors;
        break;
    }
  }

  // The healthy-array baseline must be feasible, or slowdown ratios (and
  // the workload itself) are meaningless.
  reconfig::ReconfigPlan healthy_plan;
  healthy_plan.success = true;
  const std::optional<double> baseline =
      OperationalState(workload).run_assay(healthy_plan);
  DMFB_EXPECTS(baseline.has_value());
  DMFB_EXPECTS(*baseline > 0.0);
  workload->baseline_completion_s_ = *baseline;
  return workload;
}

std::shared_ptr<const AssayWorkload> AssayWorkload::multiplexed() {
  const assay::MultiplexedChip chip = assay::make_multiplexed_chip();
  std::vector<WorkloadModule> modules;
  std::unordered_set<CellIndex> seen_ports;
  for (const assay::AssayChain& chain : chip.chains) {
    // S1/S2/R1/R2 are shared across chains; one port module per cell.
    for (const CellIndex port : {chain.sample_source, chain.reagent_source}) {
      if (seen_ports.insert(port).second) {
        modules.push_back({WorkloadModule::Kind::kPort, {port}});
      }
    }
  }
  for (const assay::AssayChain& chain : chip.chains) {
    modules.push_back({WorkloadModule::Kind::kMixer, chain.mixer_cells});
  }
  for (const assay::AssayChain& chain : chip.chains) {
    modules.push_back(
        {WorkloadModule::Kind::kDetector, {chain.detector_cell}});
  }
  return make(ChipDesign::make(chip.array),
              assay::SequencingGraph::multiplexed_ivd(), std::move(modules));
}

namespace {

std::shared_ptr<const AssayWorkload> require_workload(
    std::shared_ptr<const AssayWorkload> workload) {
  DMFB_EXPECTS(workload != nullptr);
  return workload;
}

}  // namespace

OperationalState::OperationalState(
    std::shared_ptr<const AssayWorkload> workload)
    : workload_(require_workload(std::move(workload))),
      faults_(workload_->design_ptr()),
      array_(workload_->design().array()),
      usable_(array_),
      router_(usable_),
      replacement_(static_cast<std::size_t>(array_.cell_count()),
                   hex::kInvalidCell),
      anchor_(static_cast<std::size_t>(workload_->graph_.op_count()),
              hex::kInvalidCell) {
  const assay::ResourcePool& full = workload_->full_pool_;
  schedules_.resize(static_cast<std::size_t>(full.dispense_ports + 1) *
                    static_cast<std::size_t>(full.mixers + 1) *
                    static_cast<std::size_t>(full.detectors + 1));
}

OperationalRun OperationalState::evaluate(reconfig::CoveragePolicy policy,
                                          graph::MatchingEngine engine,
                                          reconfig::ReplacementPool pool) {
  // Mirror the fault bitmap onto the private array so the reconfig and
  // fluidics layers see the drawn fault set.
  for (const CellIndex cell : faults_.faulty_cells()) {
    array_.set_health(cell, biochip::CellHealth::kFaulty);
  }
  const reconfig::ReconfigPlan plan = [&] {
    obs::ScopedSpan span("reconfig.plan", "op");
    const obs::ScopedDuration timer(obs::Metric::kReconfigPlanNs);
    return reconfig::LocalReconfigurer(policy, engine, pool).plan(array_);
  }();

  OperationalRun run;
  run.structural = plan.success;
  const std::optional<double> completion = run_assay(plan);
  run.operational = completion.has_value();
  if (completion) {
    run.completion_s = *completion;
    run.slowdown = *completion / workload_->baseline_completion_s_;
  }

  // Restore the mirror in O(#faults) for the next draw.
  for (const CellIndex cell : faults_.faulty_cells()) {
    array_.set_health(cell, biochip::CellHealth::kHealthy);
  }
  return run;
}

std::optional<double> OperationalState::run_assay(
    const reconfig::ReconfigPlan& plan) {
  for (const reconfig::Replacement& replacement : plan.replacements) {
    replacement_[static_cast<std::size_t>(replacement.faulty)] =
        replacement.spare;
  }
  const std::optional<double> completion = remapped_completion(plan);
  for (const reconfig::Replacement& replacement : plan.replacements) {
    replacement_[static_cast<std::size_t>(replacement.faulty)] =
        hex::kInvalidCell;
  }
  usable_.deactivate_plan(plan);
  return completion;
}

std::optional<double> OperationalState::remapped_completion(
    const reconfig::ReconfigPlan& plan) {
  const assay::SequencingGraph& graph = workload_->graph_;
  const std::vector<WorkloadModule>& modules = workload_->modules_;
  const auto replacement_of = [&](CellIndex cell) {
    return replacement_[static_cast<std::size_t>(cell)];
  };
  // A module survives iff every one of its cells still has an operator:
  // the cell itself when healthy, or the adjacent replacement the plan
  // assigned its duties to.
  const auto cell_operational = [&](CellIndex cell) {
    return array_.health(cell) != biochip::CellHealth::kFaulty ||
           replacement_of(cell) != hex::kInvalidCell;
  };
  for (auto& alive : alive_by_kind_) alive.clear();
  for (std::size_t m = 0; m < modules.size(); ++m) {
    const WorkloadModule& module = modules[m];
    if (std::all_of(module.cells.begin(), module.cells.end(),
                    cell_operational)) {
      alive_by_kind_[kind_slot(module.kind)].push_back(m);
    }
  }
  assay::ResourcePool surviving;
  surviving.dispense_ports = static_cast<std::int32_t>(
      alive_by_kind_[kind_slot(WorkloadModule::Kind::kPort)].size());
  surviving.mixers = static_cast<std::int32_t>(
      alive_by_kind_[kind_slot(WorkloadModule::Kind::kMixer)].size());
  surviving.detectors = static_cast<std::int32_t>(
      alive_by_kind_[kind_slot(WorkloadModule::Kind::kDetector)].size());

  // Graceful degradation ends where a resource class the assay needs has no
  // surviving instance at all.
  for (const assay::AssayOp& op : graph.ops()) {
    if (assay::capacity_of(surviving, assay::resource_class(op.kind)) < 1) {
      return std::nullopt;
    }
  }

  const assay::Schedule& schedule = [&]() -> const assay::Schedule& {
    obs::ScopedSpan span("assay.schedule", "op");
    const obs::ScopedDuration timer(obs::Metric::kAssayScheduleNs);
    return schedule_for(surviving);
  }();

  // Transport endpoints: the scheduler's instance index i binds an op to
  // the i-th surviving module of its class (module order); a faulty anchor
  // cell hands the endpoint to its replacement. Resource-free ops (store)
  // park at their producer's endpoint.
  obs::ScopedSpan route_span("fluidics.route", "op");
  const obs::ScopedDuration route_timer(obs::Metric::kRouteNs);
  usable_.activate_plan(plan);
  std::int64_t transport_hops = 0;
  for (const assay::AssayOp& op : graph.ops()) {
    const auto id = static_cast<std::size_t>(op.id);
    const auto kind = module_kind_of(assay::resource_class(op.kind));
    if (kind) {
      const auto& alive = alive_by_kind_[kind_slot(*kind)];
      const auto instance =
          static_cast<std::size_t>(schedule.of(op.id).resource_index);
      DMFB_ASSERT(instance < alive.size());
      const CellIndex cell = modules[alive[instance]].cells.front();
      anchor_[id] = array_.health(cell) == biochip::CellHealth::kFaulty
                        ? replacement_of(cell)
                        : cell;
    } else {
      DMFB_ASSERT(!op.inputs.empty());
      anchor_[id] = anchor_[static_cast<std::size_t>(op.inputs.front())];
    }
    DMFB_ASSERT(anchor_[id] != hex::kInvalidCell);
    for (const std::int32_t input : op.inputs) {
      const std::int32_t hops = router_.hop_count(
          anchor_[static_cast<std::size_t>(input)], anchor_[id]);
      if (hops < 0) return std::nullopt;  // transport severed: assay fails
      transport_hops += hops;
    }
  }
  return schedule.makespan() +
         kTransportSecondsPerHop * static_cast<double>(transport_hops);
}

const assay::Schedule& OperationalState::schedule_for(
    const assay::ResourcePool& surviving) {
  const assay::ResourcePool& full = workload_->full_pool_;
  DMFB_ASSERT(surviving.dispense_ports <= full.dispense_ports &&
              surviving.mixers <= full.mixers &&
              surviving.detectors <= full.detectors);
  const auto slot = static_cast<std::size_t>(
      (surviving.dispense_ports * (full.mixers + 1) + surviving.mixers) *
          (full.detectors + 1) +
      surviving.detectors);
  std::optional<assay::Schedule>& memo = schedules_[slot];
  if (!memo) memo = assay::ListScheduler(surviving).schedule(workload_->graph_);
  return *memo;
}

}  // namespace dmfb::sim
