// Mixture (composite) fault model: an ordered list of the concrete
// injectors applied to one chip instance in sequence.
//
// The paper's Section 4 catalogs catastrophic *and* parametric fault
// mechanisms, and real dies see several at once (random spot defects plus
// process-corner deviations plus clustered contamination). A MixtureInjector
// composes any of the four single-mechanism injectors into one defect draw
// per run.
//
// Composition contract (the mixture row of the draw table in
// fault/draws.hpp; sim::FaultModel::mixture follows the same table):
//  * Components run in order on one stream, each with the draws of its
//    standalone injector. Only the spot walk looks at earlier faults: it
//    skips the kill draw of a cell already faulty, as it does standalone.
//  * First faulter wins: a cell an earlier component faulted is never
//    re-marked or re-attributed, but an absorbed kill still consumes its
//    classification or attribution draw; only the record is dropped.
// A standalone injector's inject is this class with one component.
#pragma once

#include <variant>
#include <vector>

#include "biochip/hex_array.hpp"
#include "common/rng.hpp"
#include "fault/fault_model.hpp"
#include "fault/injector.hpp"
#include "fault/parametric.hpp"

namespace dmfb::fault {

/// Applies each component injector in order (see the composition contract
/// above). The components' own constructors validate their parameters.
class MixtureInjector {
 public:
  using Component = std::variant<BernoulliInjector, FixedCountInjector,
                                 ClusteredInjector, ParametricInjector>;

  /// At least one component is required.
  explicit MixtureInjector(std::vector<Component> components);

  const std::vector<Component>& components() const noexcept {
    return components_;
  }

  /// Marks faulty cells on `array` (which must start healthy) and returns
  /// the first-faulter-wins fault map, in component order.
  FaultMap inject(biochip::HexArray& array, Rng& rng) const;

  /// v2 contract: the same composition rules on one shared counter stream.
  FaultMap inject_v2(biochip::HexArray& array, CounterStream& stream) const;

 private:
  std::vector<Component> components_;
};

}  // namespace dmfb::fault
