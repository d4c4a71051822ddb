// Kind-level fault draw sequences: each fault kind's draws, written once
// per draw contract, as templates that call on_fault(cell) per kill.
//
// Two layers inject faults, and both drive these templates with their own
// callbacks: fault:: records a FaultRecord on a HexArray
// (fault/injector.cpp), sim:: sets a bit in a FaultState and tallies draws
// (sim/fault_model.cpp). Both layers therefore consume the same draws and
// fault the same cells by construction; tests/test_fault_draw_digests.cpp
// pins every (kind, contract, layer) trajectory to a fixed digest.
//
// Draw contracts. v1: one serial Rng per run (sim::run_stream). v2: one
// CounterStream per run (sim::run_stream_v2), whose skip(n) consumes draws
// without hashing them.
//
//   kind        v1 draws                        v2 draws
//   ----------  ------------------------------  ------------------------------
//   bernoulli   one Bernoulli per cell, in      geometric skip-sampling: one
//               cell order                      per fault + one overshoot
//   fixed_count Rng::sample_without_replacement Floyd: one uniform_below per
//               (partial Fisher-Yates)          pick (Lemire retries count)
//   clustered   spot walk (same on both): Poisson spot count; per spot a
//               uniform centre, then one kill Bernoulli per in-bounds cell of
//               the disk that is not yet faulty, linear core->edge decay
//   parametric  three Box-Muller Gaussians per  skip-sampling at the closed-
//               cell; faulty iff any is out of  form cell_fault_probability()
//               tolerance (worst one reported)
//   mixture     components in declaration order on the one stream; each
//               consumes its full sequence whatever earlier ones faulted
//
// Callback draws. A catastrophic kill's on_fault consumes exactly one
// classification draw (sample_catastrophic_defect) right after the kill:
// fault:: samples it, sim:: burns it (v1) or skip(1)s it (v2). A v2
// parametric fault's on_fault likewise consumes one attribution draw. A v1
// parametric fault consumes none; its deviations arrive with the call.
//
// Mixtures. A cell already faulty keeps the record of the component that
// faulted it first, but a later kill of it still consumes its callback
// draw. The spot walk alone asks is_faulty(cell) and skips the kill draw of
// faulty cells, standalone and in a mixture alike.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "fault/fault_model.hpp"
#include "fault/parametric.hpp"
#include "hexgrid/hex_coord.hpp"
#include "hexgrid/region.hpp"

namespace dmfb::fault {

/// Relative frequencies of the three catastrophic defect mechanisms.
/// Dielectric breakdown dominates in electrowetting devices (high-voltage
/// stress), shorts and opens split the remainder (open-connection weight is
/// the 0.2 remainder).
inline constexpr double kBreakdownWeight = 0.5;
inline constexpr double kShortWeight = 0.3;

/// The classification draw: samples a catastrophic defect type with the
/// weights above (breakdown : short : open), consuming one uniform draw.
template <typename Stream>
CatastrophicDefect sample_catastrophic_defect(Stream& stream) {
  const double u = stream.uniform01();
  if (u < kBreakdownWeight) return CatastrophicDefect::kDielectricBreakdown;
  if (u < kBreakdownWeight + kShortWeight) {
    return CatastrophicDefect::kElectrodeShort;
  }
  return CatastrophicDefect::kOpenConnection;
}

/// Poisson sampler. Knuth's product method for means up to 700; above
/// that, exp(-mean) underflows (past ~745) and the direct loop would only
/// stop once the uniform product itself underflows, a heavily biased
/// sample, so e^mean is folded into the product in representable chunks
/// instead: stop at the first k + 1 draws with u_1 ... u_{k+1} e^mean < 1,
/// the same stopping rule.
template <typename Stream>
std::int32_t sample_poisson(double mean, Stream& stream) {
  DMFB_EXPECTS(mean >= 0.0);
  // exp(-700) is still a normal double, well clear of the underflow edge.
  constexpr double kDirectMeanLimit = 700.0;
  if (mean == 0.0) return 0;
  if (mean <= kDirectMeanLimit) {
    const double limit = std::exp(-mean);
    std::int32_t k = 0;
    double product = 1.0;
    do {
      ++k;
      product *= stream.uniform01();
    } while (product > limit);
    return k - 1;
  }
  std::int32_t k = 0;
  double product = 1.0;
  double pending_exponent = mean;
  for (;;) {
    product *= stream.uniform01();
    while (product < 1.0 && pending_exponent > 0.0) {
      const double step = std::min(pending_exponent, kDirectMeanLimit);
      product *= std::exp(step);
      pending_exponent -= step;
    }
    if (pending_exponent <= 0.0 && product <= 1.0) return k;
    ++k;
  }
}

/// Bernoulli v1: every cell of [0, cells) fails with `kill_prob`, one draw
/// per cell in cell order.
template <typename OnFault>
void bernoulli_draws(Rng& rng, std::int32_t cells, double kill_prob,
                     OnFault&& on_fault) {
  for (std::int32_t cell = 0; cell < cells; ++cell) {
    if (rng.bernoulli(kill_prob)) on_fault(cell);
  }
}

/// Bernoulli v2: the same law by geometric skip-sampling, O(faults) draws;
/// cells arrive in ascending order.
template <typename OnFault>
void bernoulli_draws(CounterStream& stream, std::int32_t cells,
                     double kill_prob, OnFault&& on_fault) {
  skip_sample_bernoulli(stream, cells, kill_prob, on_fault);
}

/// Fixed-count v1: exactly `count` distinct cells from [0, cells), all
/// picked before the first callback.
template <typename OnFault>
void fixed_count_draws(Rng& rng, std::int32_t cells, std::int32_t count,
                       OnFault&& on_fault) {
  DMFB_EXPECTS(count >= 0 && count <= cells);
  for (const std::int32_t cell : rng.sample_without_replacement(cells, count)) {
    on_fault(cell);
  }
}

/// Fixed-count v2: Floyd's algorithm, O(count) draws and no O(cells) index
/// pool, with each pick's callback interleaved. Membership is a linear scan
/// over the picks so far (count is small in every supported query; a hash
/// set would also trip the determinism linter).
template <typename OnFault>
void fixed_count_draws(CounterStream& stream, std::int32_t cells,
                       std::int32_t count, OnFault&& on_fault) {
  DMFB_EXPECTS(count >= 0 && count <= cells);
  std::vector<std::int32_t> chosen;
  chosen.reserve(static_cast<std::size_t>(count));
  for (std::int32_t j = cells - count; j < cells; ++j) {
    const auto t = static_cast<std::int32_t>(
        stream.uniform_below(static_cast<std::uint64_t>(j) + 1));
    bool duplicate = false;
    for (const std::int32_t c : chosen) duplicate |= (c == t);
    const std::int32_t pick = duplicate ? j : t;
    chosen.push_back(pick);
    on_fault(pick);
  }
}

/// The spot walk, for both contracts. It is serial (later spots see earlier
/// kills through is_faulty), and its cost is proportional to spot area, not
/// cell count. is_faulty(cell) reports live fault state and is asked once
/// per in-bounds disk cell; a kill draw follows exactly when it says no.
template <typename Stream, typename IsFaulty, typename OnFault>
void clustered_draws(Stream& stream, const hex::Region& region,
                     double mean_spots, std::int32_t radius, double core_kill,
                     double edge_kill, IsFaulty&& is_faulty,
                     OnFault&& on_fault) {
  const std::int32_t spots = sample_poisson(mean_spots, stream);
  for (std::int32_t spot = 0; spot < spots; ++spot) {
    const auto center_index = static_cast<std::int32_t>(stream.uniform_below(
        static_cast<std::uint64_t>(region.size())));
    const hex::HexCoord center = region.coord_at(center_index);
    for (const hex::HexCoord at : hex::disk(center, radius)) {
      const hex::CellIndex cell = region.index_of(at);
      if (cell == hex::kInvalidCell) continue;  // spot clipped by boundary
      if (is_faulty(cell)) continue;
      const double t = radius == 0
                           ? 0.0
                           : static_cast<double>(hex::distance(center, at)) /
                                 static_cast<double>(radius);
      const double kill_prob = core_kill + (edge_kill - core_kill) * t;
      if (stream.bernoulli(kill_prob)) on_fault(cell);
    }
  }
}

/// Parametric v1: three Gaussian deviations per cell (in cell order);
/// on_fault(cell, worst) for each cell with an out-of-tolerance parameter,
/// where `worst` is the out-of-tolerance deviation of largest magnitude.
template <typename OnFault>
void parametric_draws(Rng& rng, const ParametricInjector& injector,
                      std::int32_t cells, OnFault&& on_fault) {
  for (std::int32_t cell = 0; cell < cells; ++cell) {
    const std::array<Deviation, 3> deviations = injector.sample_cell(rng);
    const Deviation* worst = nullptr;
    for (const Deviation& deviation : deviations) {
      if (!deviation.out_of_tolerance) continue;
      if (worst == nullptr ||
          std::abs(deviation.value) > std::abs(worst->value)) {
        worst = &deviation;
      }
    }
    if (worst != nullptr) on_fault(cell, *worst);
  }
}

/// Parametric v2: skip-samples faulty cells at the closed-form per-cell
/// fault probability, no Gaussian deviates; on_fault(cell) consumes the
/// attribution draw.
template <typename OnFault>
void parametric_draws(CounterStream& stream,
                      const ParametricInjector& injector, std::int32_t cells,
                      OnFault&& on_fault) {
  skip_sample_bernoulli(stream, cells,
                        injector.spec().cell_fault_probability(), on_fault);
}

}  // namespace dmfb::fault
