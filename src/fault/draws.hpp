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
#include <span>
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

/// The v1 Bernoulli test in integers. For 0 < kill_prob < 1,
/// rng.bernoulli(kill_prob) is true exactly when its raw draw x has
/// (x >> 11) < bernoulli_threshold(kill_prob): uniform01() is (x >> 11)
/// times 2^-53, scaling both sides by 2^53 is exact, and an integer is
/// below a real bound iff it is below the bound's ceiling. The result is
/// in [1, 2^53).
inline std::uint64_t bernoulli_threshold(double kill_prob) {
  DMFB_EXPECTS(kill_prob > 0.0 && kill_prob < 1.0);
  return static_cast<std::uint64_t>(std::ceil(kill_prob * 0x1.0p53));
}

/// Most runs one call of bernoulli_draws_lanes(std::span<Rng>, ...) draws.
inline constexpr std::int32_t kMaxBernoulliLanes = 8;

namespace detail {
/// R 64-bit lanes as one GCC/Clang vector; element-wise operators, and
/// scalars broadcast. (A dependent vector_size must sit in a class
/// template: GCC drops it on a typedef local to a function template.)
template <int R>
struct LaneVector {
  typedef std::uint64_t type __attribute__((vector_size(8 * R)));
};
}  // namespace detail

/// Bernoulli v1 for R runs in lockstep, the multi-run form of
/// bernoulli_draws(Rng&, ...) with a kill callback that consumes one
/// classification draw. Lane l steps the xoshiro256** state states[l]:
/// per cell one draw, tested against `threshold` (bernoulli_threshold),
/// and for a killed cell a second draw, taken by a masked step instead of
/// a branch. Lane l's fault bits land in words[l * word_count, ...), cell
/// c at word c / 64, bit c % 64, where word_count = fault words of `cells`;
/// each state ends where that lane's Rng would. R is a lane count, not a
/// policy: every width draws the same bits.
template <int R>
[[gnu::always_inline]] inline void bernoulli_draws_lanes(
    Rng::State* states, std::int32_t cells, std::uint64_t threshold,
    std::uint64_t* words) {
  using Lanes = typename detail::LaneVector<R>::type;
  Lanes s0{};
  Lanes s1{};
  Lanes s2{};
  Lanes s3{};
  for (int l = 0; l < R; ++l) {
    s0[l] = states[l][0];
    s1[l] = states[l][1];
    s2[l] = states[l][2];
    s3[l] = states[l][3];
  }
  const auto word_count = static_cast<std::size_t>((cells + 63) / 64);
  for (std::size_t w = 0; w < word_count; ++w) {
    const auto first = static_cast<std::int32_t>(w * 64);
    const std::int32_t last = first + std::min(cells - first, 64);
    Lanes bits{};
    for (std::int32_t cell = first; cell < last; ++cell) {
      // Rng::operator(): the output, then the state update. Products are
      // shift-adds (x86 has no 64-bit lane multiply before AVX-512DQ), and
      // rotations are spelled out: a helper taking vectors by value would
      // be compiled for the caller's ISA only when inlined.
      const Lanes m = (s1 << 2) + s1;
      const Lanes r = (m << 7) | (m >> 57);
      const Lanes x = (r << 3) + r;
      Lanes t = s1 << 17;
      s2 ^= s0;
      s3 ^= s1;
      s1 ^= s2;
      s0 ^= s3;
      s2 ^= t;
      s3 = (s3 << 45) | (s3 >> 19);
      // (x >> 11) and threshold are below 2^53, so their difference wraps
      // (top bit set) exactly when the draw kills the cell.
      const Lanes kill = Lanes{} - (((x >> 11) - threshold) >> 63);
      bits |= kill & (std::uint64_t{1} << (cell & 63));
      // The classification draw: a full step, kept only where kill is set.
      t = s1 << 17;
      const Lanes n2 = s2 ^ s0;
      const Lanes n3 = s3 ^ s1;
      const Lanes n1 = s1 ^ n2;
      const Lanes n0 = s0 ^ n3;
      s0 = (n0 & kill) | (s0 & ~kill);
      s1 = (n1 & kill) | (s1 & ~kill);
      s2 = ((n2 ^ t) & kill) | (s2 & ~kill);
      s3 = (((n3 << 45) | (n3 >> 19)) & kill) | (s3 & ~kill);
    }
    for (int l = 0; l < R; ++l) {
      words[static_cast<std::size_t>(l) * word_count + w] = bits[l];
    }
  }
  for (int l = 0; l < R; ++l) states[l] = {s0[l], s1[l], s2[l], s3[l]};
}

/// bernoulli_draws_lanes<R> for rngs.size() <= kMaxBernoulliLanes runs at
/// once, on the widest lane kernel this CPU executes (see
/// bernoulli_lane_kernels); requires 0 < kill_prob < 1. Run l's fault bits
/// land in words[l * word_count, ...), which must hold rngs.size() *
/// word_count words, and rngs[l] ends where bernoulli_draws would leave it
/// with one classification draw per kill.
void bernoulli_draws_lanes(std::span<Rng> rngs, std::int32_t cells,
                           double kill_prob, std::span<std::uint64_t> words);

/// One compiled width of bernoulli_draws_lanes<R>: `run` draws `lanes`
/// runs, with bernoulli_draws_lanes<R>'s arguments.
struct BernoulliLaneKernel {
  const char* isa;
  std::int32_t lanes;
  void (*run)(Rng::State* states, std::int32_t cells, std::uint64_t threshold,
              std::uint64_t* words);
};

/// The lane kernels this build compiled that this CPU can execute, the
/// one bernoulli_draws_lanes(std::span<Rng>, ...) uses first. GCC on
/// x86-64 compiles an AVX-512 (8 lanes) and an AVX2 (4 lanes) kernel
/// beside the baseline-ISA one (8 lanes) and picks by CPU detection at
/// run time; other compilers and targets compile the baseline one only.
std::span<const BernoulliLaneKernel> bernoulli_lane_kernels();

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
