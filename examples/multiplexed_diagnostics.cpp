// The paper's Section 7 case study, run end to end on the operational
// kernel.
//
// A multiplexed in-vitro diagnostics chip (2 samples x 2 reagents measures
// glucose and lactate on two physiological fluids) is manufactured with
// random defects, locally reconfigured, and then asked whether it still
// runs its assays: sim::OperationalState re-schedules the sequencing graph
// on the surviving modules and re-routes every droplet transport over the
// repaired array, the same kernel the fig13_operational campaign runs per
// Monte-Carlo draw. The chip works iff the assays still complete; the
// price of repair is the slowdown against the healthy chip.
//
// Build & run:  ./build/examples/multiplexed_diagnostics
#include <iomanip>
#include <iostream>

#include "assay/multiplexed_chip.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "io/ascii_render.hpp"
#include "reconfig/local_reconfig.hpp"
#include "sim/assay_workload.hpp"

int main() {
  using namespace dmfb;

  const auto workload = sim::AssayWorkload::multiplexed();
  auto chip = assay::make_multiplexed_chip();
  std::cout << "Multiplexed diagnostics chip: "
            << chip.array.primary_count() << " primaries ("
            << chip.array.used_count() << " used by assays), "
            << chip.array.spare_count() << " spares; "
            << workload->graph().op_count() << " assay operations on "
            << workload->modules().size() << " placed modules.\n\n";

  // Manufacture with a handful of random defects (retry until the draw
  // spares the placed ports/mixers/detectors — those need re-placement, not
  // cell-level repair).
  constexpr auto kPolicy = reconfig::CoveragePolicy::kUsedFaultyPrimaries;
  Rng rng(0xD1A60);
  fault::FaultMap faults;
  reconfig::ReconfigPlan plan;
  for (int attempt = 0;; ++attempt) {
    chip.array.reset_health();
    faults = fault::FixedCountInjector(8).inject(chip.array, rng);
    bool modules_ok = true;
    for (const sim::WorkloadModule& module : workload->modules()) {
      for (const auto cell : module.cells) {
        modules_ok &= chip.array.health(cell) == biochip::CellHealth::kHealthy;
      }
    }
    plan = reconfig::LocalReconfigurer(kPolicy).plan(chip.array);
    if (modules_ok && plan.success) break;
    if (attempt > 50) {
      std::cerr << "could not find a repairable draw\n";
      return 1;
    }
  }
  std::cout << "Injected 8 defects; " << plan.replacements.size()
            << " hit assay cells and were repaired by adjacent spares.\n"
            << io::render_hex(chip.array, &plan, {.legend = true}) << '\n';

  // Evaluate the draw on the operational kernel: plan, surviving modules,
  // degraded schedule, re-routed transports.
  sim::OperationalState state(workload);
  for (const auto cell : faults.cells()) state.faults().set_faulty(cell);
  const sim::OperationalRun run =
      state.evaluate(kPolicy, graph::MatchingEngine::kHopcroftKarp,
                     reconfig::ReplacementPool::kSparesOnly);

  std::cout << std::fixed << std::setprecision(3)
            << "healthy chip completion:     "
            << workload->baseline_completion_s() << " s\n";
  if (!run.operational) {
    std::cout << "repaired chip: the assays no longer complete ("
              << (run.structural ? "plan covers the faults"
                                 : "plan leaves faults uncovered")
              << ").\n";
    return 1;
  }
  std::cout << "repaired chip completion:    " << run.completion_s << " s\n"
            << "slowdown:                    " << run.slowdown << "x\n"
            << "\nThe reconfigured chip still runs all four assays: the "
               "faults cost only the detours through replacement spares.\n";
  return 0;
}
