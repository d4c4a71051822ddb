// The compiled widths of bernoulli_draws_lanes<R> and the run-time pick
// among them. Each kernel is the same template body; only the ISA it is
// compiled for and its lane count differ, so every kernel draws the same
// bits (tests/test_fault_lanes.cpp runs each one this CPU executes).
#include <algorithm>
#include <array>
#include <vector>

#include "common/contracts.hpp"
#include "fault/draws.hpp"

namespace dmfb::fault {

namespace {

void lanes_baseline(Rng::State* states, std::int32_t cells,
                    std::uint64_t threshold, std::uint64_t* words) {
  bernoulli_draws_lanes<kMaxBernoulliLanes>(states, cells, threshold, words);
}

// GCC on x86-64: ISA-specific copies of the same body. 8 lanes fill one
// AVX-512 register per state word; AVX2 runs 4, because 8 lanes in two
// 256-bit halves spill registers and lose to 4.
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#define DMFB_LANE_DISPATCH 1

[[gnu::target("avx512f")]] void lanes_avx512(Rng::State* states,
                                              std::int32_t cells,
                                              std::uint64_t threshold,
                                              std::uint64_t* words) {
  bernoulli_draws_lanes<8>(states, cells, threshold, words);
}

[[gnu::target("avx2")]] void lanes_avx2(Rng::State* states,
                                         std::int32_t cells,
                                         std::uint64_t threshold,
                                         std::uint64_t* words) {
  bernoulli_draws_lanes<4>(states, cells, threshold, words);
}
#endif

std::vector<BernoulliLaneKernel> detect_kernels() {
  std::vector<BernoulliLaneKernel> kernels;
#ifdef DMFB_LANE_DISPATCH
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) {
    kernels.push_back({"avx512f", 8, &lanes_avx512});
  }
  if (__builtin_cpu_supports("avx2")) {
    kernels.push_back({"avx2", 4, &lanes_avx2});
  }
#endif
  kernels.push_back({"baseline", kMaxBernoulliLanes, &lanes_baseline});
  return kernels;
}

}  // namespace

std::span<const BernoulliLaneKernel> bernoulli_lane_kernels() {
  static const std::vector<BernoulliLaneKernel> kernels = detect_kernels();
  return kernels;
}

void bernoulli_draws_lanes(std::span<Rng> rngs, std::int32_t cells,
                           double kill_prob, std::span<std::uint64_t> words) {
  DMFB_EXPECTS(cells >= 0);
  DMFB_EXPECTS(rngs.size() <= static_cast<std::size_t>(kMaxBernoulliLanes));
  const auto word_count = static_cast<std::size_t>((cells + 63) / 64);
  DMFB_EXPECTS(words.size() >= rngs.size() * word_count);
  const std::uint64_t threshold = bernoulli_threshold(kill_prob);
  const BernoulliLaneKernel& kernel = bernoulli_lane_kernels().front();
  const auto width = static_cast<std::size_t>(kernel.lanes);
  // Groups of the kernel's width; a short last group fills its spare lanes
  // with an all-zero state (xoshiro's fixed point) whose bits are dropped.
  std::array<Rng::State, kMaxBernoulliLanes> states{};
  std::vector<std::uint64_t> scratch;
  for (std::size_t first = 0; first < rngs.size(); first += width) {
    const std::size_t live = std::min(width, rngs.size() - first);
    for (std::size_t l = 0; l < width; ++l) {
      states[l] = l < live ? rngs[first + l].state() : Rng::State{};
    }
    std::uint64_t* out = words.data() + first * word_count;
    if (live < width) {
      scratch.assign(width * word_count, 0);
      out = scratch.data();
    }
    kernel.run(states.data(), cells, threshold, out);
    if (live < width) {
      std::copy_n(scratch.begin(), live * word_count,
                  words.begin() +
                      static_cast<std::ptrdiff_t>(first * word_count));
    }
    for (std::size_t l = 0; l < live; ++l) rngs[first + l] = Rng(states[l]);
  }
}

}  // namespace dmfb::fault
