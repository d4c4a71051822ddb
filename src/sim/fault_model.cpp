#include "sim/fault_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/contracts.hpp"
#include "fault/draws.hpp"
#include "fault/parametric.hpp"
#include "obs/metrics.hpp"

namespace dmfb::sim {

namespace {

/// Draw tallies for one inject() call, kept in stack locals so the loops
/// stay free of TLS lookups; flushed to obs once per call. Every field is
/// a pure function of (model, seed, run), hence a stable counter.
struct InjectTally {
  std::int64_t trials = 0;          ///< per-cell fault trials evaluated
  std::int64_t classification = 0;  ///< catastrophic-defect draws (burns)
};

// The bitmap callbacks for the kind-level draws of fault/draws.hpp. The
// bitmap keeps no records, so a callback consumes the classification or
// attribution draw the fault:: layer samples without reading it. Because
// set_faulty is idempotent, the same callbacks implement first-faulter-wins
// when a mixture component finds the state pre-faulted.

void inject_component(const FaultModel& model, FaultState& state, Rng& rng,
                      InjectTally& tally) {
  const std::int32_t cells = state.design().cell_count();
  const auto kill = [&](CellIndex cell) {
    state.set_faulty(cell);
    (void)fault::sample_catastrophic_defect(rng);  // classification draw
    ++tally.classification;
  };
  switch (model.kind) {
    case FaultModel::Kind::kBernoulli:
      tally.trials += cells;
      fault::bernoulli_draws(rng, cells, 1.0 - model.param, kill);
      return;
    case FaultModel::Kind::kFixedCount: {
      const auto count = static_cast<std::int32_t>(model.param);
      tally.trials += count;
      fault::fixed_count_draws(rng, cells, count, kill);
      return;
    }
    case FaultModel::Kind::kClustered:
      // v1 counts one trial per kill draw: the walk draws exactly for the
      // cells is_faulty turns down.
      fault::clustered_draws(
          rng, state.design().array().region(), model.param,
          model.cluster.radius, model.cluster.core_kill,
          model.cluster.edge_kill,
          [&](CellIndex cell) {
            if (state.is_faulty(cell)) return true;
            ++tally.trials;
            return false;
          },
          kill);
      return;
    case FaultModel::Kind::kParametric: {
      // Parametric faults carry no classification draw.
      const fault::ParametricInjector injector(
          fault::ProcessSpec::typical().scaled(model.param));
      tally.trials += cells;
      fault::parametric_draws(
          rng, injector, cells,
          [&](CellIndex cell, const fault::Deviation&) {
            state.set_faulty(cell);
          });
      return;
    }
    case FaultModel::Kind::kMixture:
      for (const FaultModel& component : model.components) {
        inject_component(component, state, rng, tally);
      }
      return;
  }
  DMFB_ASSERT(!"unknown fault model kind");
}

// Under v2 every fault reaching a callback counts as a trial and consumes
// one classification or attribution draw, which the bitmap skip()s.
// `pristine` selects the bulk ascending-write path: standalone skip-sampled
// kinds visit cells in strictly ascending order on an empty bitmap, so the
// set_faulty membership probe is dead weight. Mixture components (and the
// unsorted fixed-count and spot-walk cells) take the idempotent set_faulty.

void inject_component_v2(const FaultModel& model, FaultState& state,
                         CounterStream& stream, InjectTally& tally,
                         bool pristine) {
  const std::int32_t cells = state.design().cell_count();
  const auto mark = [&](bool ascending) {
    return [&state, &stream, &tally, ascending](CellIndex cell) {
      ++tally.trials;
      stream.skip(1);  // classification or attribution draw
      ++tally.classification;
      if (ascending) {
        state.set_faulty_ascending(cell);
      } else {
        state.set_faulty(cell);
      }
    };
  };
  switch (model.kind) {
    case FaultModel::Kind::kBernoulli:
      fault::bernoulli_draws(stream, cells, 1.0 - model.param, mark(pristine));
      return;
    case FaultModel::Kind::kFixedCount:
      fault::fixed_count_draws(stream, cells,
                               static_cast<std::int32_t>(model.param),
                               mark(false));
      return;
    case FaultModel::Kind::kClustered:
      fault::clustered_draws(
          stream, state.design().array().region(), model.param,
          model.cluster.radius, model.cluster.core_kill,
          model.cluster.edge_kill,
          [&](CellIndex cell) { return state.is_faulty(cell); }, mark(false));
      return;
    case FaultModel::Kind::kParametric:
      fault::parametric_draws(
          stream,
          fault::ParametricInjector(
              fault::ProcessSpec::typical().scaled(model.param)),
          cells, mark(pristine));
      return;
    case FaultModel::Kind::kMixture:
      for (const FaultModel& component : model.components) {
        inject_component_v2(component, state, stream, tally,
                            /*pristine=*/false);
      }
      return;
  }
  DMFB_ASSERT(!"unknown fault model kind");
}

}  // namespace

void validate(const FaultModel& model, const ChipDesign& design) {
  switch (model.kind) {
    case FaultModel::Kind::kBernoulli:
      DMFB_EXPECTS(model.param >= 0.0 && model.param <= 1.0);
      return;
    case FaultModel::Kind::kFixedCount: {
      const auto m = static_cast<std::int32_t>(model.param);
      DMFB_EXPECTS(static_cast<double>(m) == model.param);
      DMFB_EXPECTS(m >= 0 && m <= design.cell_count());
      return;
    }
    case FaultModel::Kind::kClustered:
      DMFB_EXPECTS(model.param >= 0.0);
      DMFB_EXPECTS(model.cluster.radius >= 0);
      DMFB_EXPECTS(model.cluster.core_kill >= 0.0 &&
                   model.cluster.core_kill <= 1.0);
      DMFB_EXPECTS(model.cluster.edge_kill >= 0.0 &&
                   model.cluster.edge_kill <= model.cluster.core_kill);
      return;
    case FaultModel::Kind::kParametric:
      DMFB_EXPECTS(std::isfinite(model.param) && model.param > 0.0);
      return;
    case FaultModel::Kind::kMixture:
      DMFB_EXPECTS(!model.components.empty());
      for (const FaultModel& component : model.components) {
        DMFB_EXPECTS(component.kind != FaultModel::Kind::kMixture);
        validate(component, design);
      }
      return;
  }
  DMFB_ASSERT(!"unknown fault model kind");
}

void inject(const FaultModel& model, FaultState& state, Rng& rng) {
  DMFB_EXPECTS(state.faulty_count() == 0);
  InjectTally tally;
  inject_component(model, state, rng, tally);
  // One flush per call keeps the per-cell loops TLS-free; the guard makes
  // the disabled default a single relaxed load.
  if (obs::enabled()) {
    obs::count(obs::Metric::kInjectRuns);
    obs::count(obs::Metric::kInjectCellsFaulted, state.faulty_count());
    obs::count(obs::Metric::kInjectCellTrials, tally.trials);
    obs::count(obs::Metric::kInjectClassificationDraws, tally.classification);
  }
}

bool lane_injectable(const FaultModel& model) {
  const double kill = 1.0 - model.param;
  return model.kind == FaultModel::Kind::kBernoulli && kill > 0.0 &&
         kill < 1.0;
}

void inject_lanes(const FaultModel& model, const ChipDesign& design,
                  std::span<Rng> rngs, std::span<std::uint64_t> words) {
  DMFB_EXPECTS(lane_injectable(model));
  const std::int32_t cells = design.cell_count();
  fault::bernoulli_draws_lanes(rngs, cells, 1.0 - model.param, words);
  if (obs::enabled()) {
    // One classification draw per kill, as inject()'s callback tallies.
    std::int64_t faulted = 0;
    for (const std::uint64_t word :
         words.first(rngs.size() * fault_word_count(cells))) {
      faulted += std::popcount(word);
    }
    const auto runs = static_cast<std::int64_t>(rngs.size());
    obs::count(obs::Metric::kInjectRuns, runs);
    obs::count(obs::Metric::kInjectCellsFaulted, faulted);
    obs::count(obs::Metric::kInjectCellTrials, runs * cells);
    obs::count(obs::Metric::kInjectClassificationDraws, faulted);
  }
}

void inject_v2(const FaultModel& model, FaultState& state,
               CounterStream& stream) {
  DMFB_EXPECTS(state.faulty_count() == 0);
  InjectTally tally;
  inject_component_v2(model, state, stream, tally, /*pristine=*/true);
  if (obs::enabled()) {
    obs::count(obs::Metric::kInjectRuns);
    obs::count(obs::Metric::kInjectCellsFaulted, state.faulty_count());
    obs::count(obs::Metric::kInjectCellTrials, tally.trials);
    obs::count(obs::Metric::kInjectClassificationDraws, tally.classification);
  }
}

double expected_fault_fraction(const FaultModel& model,
                               const ChipDesign& design) {
  const double cells = static_cast<double>(design.cell_count());
  switch (model.kind) {
    case FaultModel::Kind::kBernoulli:
      return 1.0 - model.param;  // param is the survival probability
    case FaultModel::Kind::kFixedCount:
      return cells == 0.0 ? 0.0 : model.param / cells;
    case FaultModel::Kind::kClustered: {
      // Mean-field: each spot kills ~disk-area x mean kill probability
      // cells; boundary clipping and spot overlap only lower the truth, so
      // this over-estimates — safe for an engine heuristic.
      const double radius = static_cast<double>(model.cluster.radius);
      const double disk = 1.0 + 3.0 * radius * (radius + 1.0);
      const double mean_kill =
          (model.cluster.core_kill + model.cluster.edge_kill) / 2.0;
      if (cells == 0.0) return 0.0;
      return std::min(1.0, model.param * disk * mean_kill / cells);
    }
    case FaultModel::Kind::kParametric:
      return fault::ProcessSpec::typical()
          .scaled(model.param)
          .cell_fault_probability();
    case FaultModel::Kind::kMixture: {
      // Components are conditionally independent given the design, so the
      // per-cell fault probability unions as 1 - prod(1 - f_i).
      double survive = 1.0;
      for (const FaultModel& component : model.components) {
        survive *= 1.0 - expected_fault_fraction(component, design);
      }
      return 1.0 - survive;
    }
  }
  DMFB_ASSERT(!"unknown fault model kind");
  return 0.0;
}

}  // namespace dmfb::sim
