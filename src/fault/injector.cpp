// Every fault:: injector's inject / inject_v2. The draws are the kind-level
// sequences of fault/draws.hpp; what this file adds is one first-faulter-
// wins recorder per fault class, shared by both draw contracts, standalone
// injectors and mixture components alike.
#include "fault/injector.hpp"

#include "common/contracts.hpp"
#include "fault/mixture.hpp"
#include "fault/parametric.hpp"

namespace dmfb::fault {

namespace {

/// One catastrophic kill. The classification draw is always consumed, but
/// a cell an earlier mixture component already faulted keeps its record.
template <typename Stream>
void record_catastrophic(biochip::HexArray& array, FaultMap& map,
                         hex::CellIndex cell, Stream& stream) {
  const CatastrophicDefect defect = sample_catastrophic_defect(stream);
  if (array.health(cell) == biochip::CellHealth::kFaulty) return;
  array.set_health(cell, biochip::CellHealth::kFaulty);
  FaultRecord record;
  record.cell = cell;
  record.fault_class = FaultClass::kCatastrophic;
  record.catastrophic = defect;
  map.records.push_back(record);
}

/// One parametric fault, under the same first-faulter-wins rule.
void record_parametric(biochip::HexArray& array, FaultMap& map,
                       hex::CellIndex cell, ParametricDefect parameter,
                       double deviation) {
  if (array.health(cell) == biochip::CellHealth::kFaulty) return;
  array.set_health(cell, biochip::CellHealth::kFaulty);
  FaultRecord record;
  record.cell = cell;
  record.fault_class = FaultClass::kParametric;
  record.parametric = parameter;
  record.deviation = deviation;
  map.records.push_back(record);
}

// apply() runs one component's draws on `array`, which may already carry
// earlier components' faults.

template <typename Stream>
void apply(const BernoulliInjector& injector, biochip::HexArray& array,
           FaultMap& map, Stream& stream) {
  bernoulli_draws(stream, array.cell_count(),
                  1.0 - injector.survival_probability(),
                  [&](hex::CellIndex cell) {
                    record_catastrophic(array, map, cell, stream);
                  });
}

template <typename Stream>
void apply(const FixedCountInjector& injector, biochip::HexArray& array,
           FaultMap& map, Stream& stream) {
  fixed_count_draws(stream, array.cell_count(), injector.count(),
                    [&](hex::CellIndex cell) {
                      record_catastrophic(array, map, cell, stream);
                    });
}

template <typename Stream>
void apply(const ClusteredInjector& injector, biochip::HexArray& array,
           FaultMap& map, Stream& stream) {
  clustered_draws(
      stream, array.region(), injector.mean_spots(), injector.radius(),
      injector.core_kill_prob(), injector.edge_kill_prob(),
      [&](hex::CellIndex cell) {
        return array.health(cell) == biochip::CellHealth::kFaulty;
      },
      [&](hex::CellIndex cell) {
        record_catastrophic(array, map, cell, stream);
      });
}

void apply(const ParametricInjector& injector, biochip::HexArray& array,
           FaultMap& map, Rng& rng) {
  parametric_draws(rng, injector, array.cell_count(),
                   [&](hex::CellIndex cell, const Deviation& worst) {
                     record_parametric(array, map, cell, worst.parameter,
                                       worst.value);
                   });
}

/// v2 records the attributed parameter with its tolerance as deviation.
void apply(const ParametricInjector& injector, biochip::HexArray& array,
           FaultMap& map, CounterStream& stream) {
  const ProcessSpec& spec = injector.spec();
  const std::array<double, 3> weights =
      parametric_attribution_weights_v2(spec);
  parametric_draws(stream, injector, array.cell_count(),
                   [&](hex::CellIndex cell) {
                     const ParameterSpec& param =
                         spec.parameters[pick_parametric_attribution_v2(
                             weights, stream.uniform01())];
                     record_parametric(array, map, cell, param.parameter,
                                       param.tolerance);
                   });
}

/// A standalone injection: one component on a healthy array.
template <typename Injector, typename Stream>
FaultMap inject_healthy(const Injector& injector, biochip::HexArray& array,
                        Stream& stream) {
  DMFB_EXPECTS(array.faulty_count() == 0);
  FaultMap map;
  apply(injector, array, map, stream);
  return map;
}

template <typename Stream>
FaultMap inject_mixture(
    const std::vector<MixtureInjector::Component>& components,
    biochip::HexArray& array, Stream& stream) {
  DMFB_EXPECTS(array.faulty_count() == 0);
  FaultMap map;
  for (const MixtureInjector::Component& component : components) {
    std::visit(
        [&](const auto& injector) { apply(injector, array, map, stream); },
        component);
  }
  return map;
}

}  // namespace

BernoulliInjector::BernoulliInjector(double survival_p)
    : survival_p_(survival_p) {
  DMFB_EXPECTS(survival_p >= 0.0 && survival_p <= 1.0);
}

FaultMap BernoulliInjector::inject(biochip::HexArray& array, Rng& rng) const {
  return inject_healthy(*this, array, rng);
}

FaultMap BernoulliInjector::inject_v2(biochip::HexArray& array,
                                      CounterStream& stream) const {
  return inject_healthy(*this, array, stream);
}

FixedCountInjector::FixedCountInjector(std::int32_t count) : count_(count) {
  DMFB_EXPECTS(count >= 0);
}

FaultMap FixedCountInjector::inject(biochip::HexArray& array, Rng& rng) const {
  return inject_healthy(*this, array, rng);
}

FaultMap FixedCountInjector::inject_v2(biochip::HexArray& array,
                                       CounterStream& stream) const {
  return inject_healthy(*this, array, stream);
}

ClusteredInjector::ClusteredInjector(double mean_spots, std::int32_t radius,
                                     double core_kill_prob,
                                     double edge_kill_prob)
    : mean_spots_(mean_spots),
      radius_(radius),
      core_kill_prob_(core_kill_prob),
      edge_kill_prob_(edge_kill_prob) {
  DMFB_EXPECTS(mean_spots >= 0.0);
  DMFB_EXPECTS(radius >= 0);
  DMFB_EXPECTS(core_kill_prob >= 0.0 && core_kill_prob <= 1.0);
  DMFB_EXPECTS(edge_kill_prob >= 0.0 && edge_kill_prob <= core_kill_prob);
}

FaultMap ClusteredInjector::inject(biochip::HexArray& array, Rng& rng) const {
  return inject_healthy(*this, array, rng);
}

FaultMap ClusteredInjector::inject_v2(biochip::HexArray& array,
                                      CounterStream& stream) const {
  return inject_healthy(*this, array, stream);
}

double ClusteredInjector::expected_failures_per_spot() const noexcept {
  // Sum of kill probability over the rings of an interior disk.
  double expected = core_kill_prob_;  // ring 0 (the centre)
  for (std::int32_t d = 1; d <= radius_; ++d) {
    const double t = static_cast<double>(d) / static_cast<double>(radius_);
    const double kill_prob =
        core_kill_prob_ + (edge_kill_prob_ - core_kill_prob_) * t;
    expected += 6.0 * d * kill_prob;
  }
  return expected;
}

FaultMap ParametricInjector::inject(biochip::HexArray& array, Rng& rng) const {
  return inject_healthy(*this, array, rng);
}

FaultMap ParametricInjector::inject_v2(biochip::HexArray& array,
                                       CounterStream& stream) const {
  return inject_healthy(*this, array, stream);
}

MixtureInjector::MixtureInjector(std::vector<Component> components)
    : components_(std::move(components)) {
  DMFB_EXPECTS(!components_.empty());
}

FaultMap MixtureInjector::inject(biochip::HexArray& array, Rng& rng) const {
  return inject_mixture(components_, array, rng);
}

FaultMap MixtureInjector::inject_v2(biochip::HexArray& array,
                                    CounterStream& stream) const {
  return inject_mixture(components_, array, stream);
}

}  // namespace dmfb::fault
