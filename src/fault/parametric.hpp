// Parametric (soft) fault model — geometry deviations with tolerances
// (paper Section 4: insulator thickness, electrode length, plate gap).
//
// Each cell receives independent Gaussian relative deviations for the three
// geometry parameters. A deviation is a *parametric fault* only when its
// magnitude exceeds the parameter's tolerance; per the paper, cells whose
// parametric fault causes significant performance degradation are treated
// like catastrophic ones for reconfiguration purposes.
#pragma once

#include <array>

#include "biochip/hex_array.hpp"
#include "common/rng.hpp"
#include "fault/fault_model.hpp"

namespace dmfb::fault {

/// Manufacturing spread and acceptance tolerance of one geometry parameter,
/// both as fractions of nominal (e.g. sigma = 0.03 means 3% spread).
struct ParameterSpec {
  ParametricDefect parameter;
  double sigma;      ///< std-dev of the relative deviation
  double tolerance;  ///< |deviation| beyond this is a parametric fault
};

/// Process corner for all three parameters.
struct ProcessSpec {
  std::array<ParameterSpec, 3> parameters;

  /// Defaults loosely modelled on the paper's device: 800 nm Parylene C
  /// insulator, ~1.5 mm electrode pitch, ~300 um plate gap. Tolerances are
  /// chosen so the marginal per-cell parametric fault probability is small
  /// compared to typical catastrophic rates.
  static ProcessSpec typical();

  /// This corner with every sigma multiplied by `sigma_scale` (tolerances
  /// unchanged) — a one-knob process-maturity sweep. sim::FaultModel's
  /// parametric kind is defined as typical().scaled(sigma_scale); using the
  /// same helper on both paths keeps their doubles bit-identical.
  ProcessSpec scaled(double sigma_scale) const;

  /// Probability that a single cell has at least one out-of-tolerance
  /// parameter (closed form from the Gaussian tail).
  double cell_fault_probability() const;
};

/// One sampled deviation.
struct Deviation {
  ParametricDefect parameter;
  double value = 0.0;  ///< relative deviation
  bool out_of_tolerance = false;
};

/// Samples Gaussian deviations for every cell of `array`; cells with at
/// least one out-of-tolerance parameter are marked faulty and recorded as
/// parametric faults (worst parameter attributed).
class ParametricInjector {
 public:
  explicit ParametricInjector(ProcessSpec spec);

  const ProcessSpec& spec() const noexcept { return spec_; }

  FaultMap inject(biochip::HexArray& array, Rng& rng) const;

  /// v2 contract: skip-samples faulty cells directly at the closed-form
  /// cell_fault_probability() — no Gaussian deviates, O(faults) draws. Each
  /// fault consumes one attribution draw that picks the recorded parameter
  /// in proportion to its marginal out-of-tolerance weight 2Q(tol/sigma);
  /// the recorded deviation is the signed tolerance boundary (the exact
  /// magnitude is not sampled under v2 — yield only depends on the fault
  /// bit, which the statistical-equivalence suite pins against v1).
  FaultMap inject_v2(biochip::HexArray& array, CounterStream& stream) const;

  /// Samples the three deviations of one cell: the per-cell v1 draws of
  /// fault/draws.hpp (exposed for tests).
  std::array<Deviation, 3> sample_cell(Rng& rng) const;

 private:
  ProcessSpec spec_;
};

/// v2 attribution weights: the marginal out-of-tolerance probability
/// 2Q(tolerance/sigma) of each parameter — the distribution the per-fault
/// attribution draw picks the recorded parameter from.
std::array<double, 3> parametric_attribution_weights_v2(
    const ProcessSpec& spec);

/// Maps one uniform attribution draw u in [0, 1) to a parameter index,
/// proportionally to `weights` (cumulative scan; final index on fp edge).
std::size_t pick_parametric_attribution_v2(const std::array<double, 3>& weights,
                                           double u);

/// Standard normal sample via Box-Muller (exposed for tests).
double sample_standard_normal(Rng& rng);

/// Standard normal upper-tail probability Q(x) = P(Z > x).
double normal_upper_tail(double x);

}  // namespace dmfb::fault
