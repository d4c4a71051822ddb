// Defect injection for Monte-Carlo yield simulation.
//
// Three spatial models:
//  * BernoulliInjector — every cell fails independently with probability
//    q = 1 - p. This is the paper's model (Section 6 Assumption): valid for
//    random small spot defects from imperfect materials and particles.
//  * FixedCountInjector — exactly m distinct cells fail, uniformly at
//    random. This is the Fig. 13 experiment ("we randomly introduce m cell
//    failures").
//  * ClusteredInjector — defects arrive as spatial clusters (a Poisson
//    number of spots; each spot kills the cells of a small disk with a
//    radially decaying probability). Ablation model for the independence
//    assumption; real spot defects are often correlated.
//
// Injectors mark cells faulty on the array and return the FaultMap with a
// concrete catastrophic-defect attribution (sampled from the Section 4
// taxonomy) so downstream reporting can show realistic fault mixes. Their
// draws are the kind-level sequences of fault/draws.hpp (which also holds
// sample_poisson and sample_catastrophic_defect); this layer only records.
// A standalone inject is a one-component MixtureInjector on a healthy array.
#pragma once

#include <cstdint>

#include "biochip/hex_array.hpp"
#include "common/rng.hpp"
#include "fault/draws.hpp"
#include "fault/fault_model.hpp"

namespace dmfb::fault {

/// Each cell fails independently with probability 1 - survival_p.
class BernoulliInjector {
 public:
  explicit BernoulliInjector(double survival_p);

  double survival_probability() const noexcept { return survival_p_; }

  /// Marks faulty cells on `array` (which must start healthy) and returns
  /// the fault map.
  FaultMap inject(biochip::HexArray& array, Rng& rng) const;

  /// v2 contract: geometric skip-sampling over the per-run counter stream —
  /// O(faults) draws instead of one per cell. Statistically equivalent to
  /// inject() but on a different draw trajectory (fault/draws.hpp).
  FaultMap inject_v2(biochip::HexArray& array, CounterStream& stream) const;

 private:
  double survival_p_;
};

/// Exactly `count` distinct cells fail, uniformly at random over all cells
/// (primary and spare alike) — the Fig. 13 model.
class FixedCountInjector {
 public:
  explicit FixedCountInjector(std::int32_t count);

  std::int32_t count() const noexcept { return count_; }

  FaultMap inject(biochip::HexArray& array, Rng& rng) const;

  /// v2 contract: Floyd's algorithm — O(count) draws, no index pool.
  FaultMap inject_v2(biochip::HexArray& array, CounterStream& stream) const;

 private:
  std::int32_t count_;
};

/// Spatially clustered defects: spots ~ Poisson(mean_spots); each spot picks
/// a uniformly random centre cell and kills cells within `radius` hex steps
/// with probability decaying linearly from `core_kill_prob` at the centre to
/// `edge_kill_prob` at the rim.
class ClusteredInjector {
 public:
  ClusteredInjector(double mean_spots, std::int32_t radius,
                    double core_kill_prob, double edge_kill_prob);

  double mean_spots() const noexcept { return mean_spots_; }
  std::int32_t radius() const noexcept { return radius_; }
  double core_kill_prob() const noexcept { return core_kill_prob_; }
  double edge_kill_prob() const noexcept { return edge_kill_prob_; }

  FaultMap inject(biochip::HexArray& array, Rng& rng) const;

  /// v2 contract: the same spot walk driven by the counter stream.
  FaultMap inject_v2(biochip::HexArray& array, CounterStream& stream) const;

  /// Expected number of cell failures per chip for an interior spot
  /// (ignoring boundary clipping) — used to calibrate fair comparisons
  /// against the Bernoulli model.
  double expected_failures_per_spot() const noexcept;

 private:
  double mean_spots_;
  std::int32_t radius_;
  double core_kill_prob_;
  double edge_kill_prob_;
};

}  // namespace dmfb::fault
