// sim::FaultModel — the structured defect models the session engine can
// inject directly into a FaultState bitmap.
//
// Injection runs each kind's draw sequence from fault/draws.hpp (one
// template per kind and draw contract, with its draw table) and only
// supplies the bitmap callbacks. The fault::*Injector classes drive the
// same templates with record-keeping callbacks, so a session run consumes
// the same random stream as the legacy HexArray path, faults the same
// cells and produces bit-identical success counts by construction.
// tests/test_fault_draw_digests.cpp pins every kind's trajectory.
//
// kMixture composes an ordered list of the concrete kinds into one defect
// draw per run, under the mixture row of that table: every component
// consumes the stream as it would standalone, and a cell keeps the first
// component that faulted it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "sim/fault_state.hpp"

namespace dmfb::sim {

/// Spatial cluster knobs (mirrors fault::ClusteredInjector's constructor).
struct ClusterShape {
  std::int32_t radius = 1;
  double core_kill = 0.9;
  double edge_kill = 0.3;
};

/// One structured defect model plus its parameter.
struct FaultModel {
  enum class Kind : std::uint8_t {
    kBernoulli,   ///< iid survival probability p per cell (paper Section 6)
    kFixedCount,  ///< exactly m random cell failures (Fig. 13)
    kClustered,   ///< Poisson spot clusters (independence ablation)
    kParametric,  ///< Gaussian geometry deviations vs tolerance (Section 4)
    kMixture,     ///< ordered composition of the concrete kinds above
  };

  Kind kind = Kind::kBernoulli;
  /// p (bernoulli, survival), m (fixed_count, integral), mean_spots
  /// (clustered) or sigma_scale (parametric), matching
  /// campaign::CampaignPoint::param. Unused by kMixture.
  double param = 0.99;
  ClusterShape cluster;  ///< used by kClustered only
  /// kMixture only: the concrete component models, applied in order.
  /// Nested mixtures are rejected by validate().
  std::vector<FaultModel> components;

  static FaultModel bernoulli(double p) {
    FaultModel model;
    model.kind = Kind::kBernoulli;
    model.param = p;
    return model;
  }
  static FaultModel fixed_count(std::int32_t m) {
    FaultModel model;
    model.kind = Kind::kFixedCount;
    model.param = static_cast<double>(m);
    return model;
  }
  static FaultModel clustered(double mean_spots, ClusterShape shape) {
    FaultModel model;
    model.kind = Kind::kClustered;
    model.param = mean_spots;
    model.cluster = shape;
    return model;
  }
  /// Parametric (soft) faults under fault::ProcessSpec::typical() with all
  /// sigmas multiplied by `sigma_scale` — a one-knob process-maturity axis.
  /// Draws as fault::ParametricInjector(typical().scaled(sigma_scale)).
  static FaultModel parametric(double sigma_scale) {
    FaultModel model;
    model.kind = Kind::kParametric;
    model.param = sigma_scale;
    return model;
  }
  /// Ordered composition; see the mixture contract in the header comment.
  static FaultModel mixture(std::vector<FaultModel> parts) {
    FaultModel model;
    model.kind = Kind::kMixture;
    model.param = 0.0;
    model.components = std::move(parts);
    return model;
  }
};

/// Validates `model` against `design` (throws ContractViolation on bad
/// parameters, mirroring the legacy injector constructors). For mixtures:
/// non-empty, no nested mixtures, every component valid.
void validate(const FaultModel& model, const ChipDesign& design);

/// Injects one run's faults into `state` (which must arrive reset), with
/// the v1 draws of fault/draws.hpp — the same draws and faulty cells as
/// the corresponding fault::*Injector::inject on a HexArray.
void inject(const FaultModel& model, FaultState& state, Rng& rng);

/// True iff inject_lanes() can draw `model`'s v1 runs: a Bernoulli model
/// whose kill probability 1 - p is strictly between 0 and 1. Every other
/// kind, and a degenerate p (where Rng::bernoulli draws nothing), runs
/// one inject() per run. The one place that per-kind choice is made.
bool lane_injectable(const FaultModel& model);

/// v1 injection of rngs.size() <= fault::kMaxBernoulliLanes runs of a
/// lane_injectable `model` at once (fault::bernoulli_draws_lanes): run l's
/// fault words, in FaultState::fault_words() layout for `design`, land in
/// words[l * W, (l + 1) * W) with W = fault_word_count(cell_count), and
/// rngs[l] ends where inject() would leave it. The same draws, faulty
/// cells and fault.* counters as one inject() per run.
void inject_lanes(const FaultModel& model, const ChipDesign& design,
                  std::span<Rng> rngs, std::span<std::uint64_t> words);

/// v2 (rng_version = v2) injection with the v2 draws of fault/draws.hpp:
/// the same stream draws and fault cells as fault::*Injector::inject_v2,
/// but the word-packed bitmap is marked directly (bulk ascending writes for
/// the skip-sampled kinds) and the classification/attribution draws it
/// keeps no records for are skip()ped. O(faults) for bernoulli /
/// fixed-count / parametric; O(spot area) for clustered.
void inject_v2(const FaultModel& model, FaultState& state,
               CounterStream& stream);

/// Expected fraction of `design`'s cells a single run of `model` faults,
/// in [0, 1]. Exact for bernoulli / fixed-count / parametric, a documented
/// mean-field approximation for clustered (mean spots x full-disk area x
/// average kill probability, ignoring boundary clipping and overlap), and
/// the independent-union combination for mixtures. Deterministic — it feeds
/// Session's engine auto-selection, which must never depend on sampled
/// state.
double expected_fault_fraction(const FaultModel& model,
                               const ChipDesign& design);

}  // namespace dmfb::sim
