#include "fluidics/hop_board.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace dmfb::fluidics {

HopBoard::HopBoard(const UsableCells& usable) {
  const hex::Region& region = usable.array().region();
  const hex::Region::Bounds bounds =
      region.empty() ? hex::Region::Bounds{} : region.bounds();
  const auto width =
      static_cast<std::size_t>(bounds.max_q - bounds.min_q + 1) + 1;
  const auto rows = static_cast<std::size_t>(bounds.max_r - bounds.min_r + 1);
  diagonal_words_ = (width - 1) / 64;
  diagonal_bits_ = static_cast<unsigned>((width - 1) % 64);
  // A step reads the reached set up to diagonal_words_ + 2 words either
  // side of the words it writes.
  guard_ = diagonal_words_ + 2;
  words_ = 2 * guard_ + (rows * width + 63) / 64;
  base_.assign(words_, 0);
  bit_.resize(static_cast<std::size_t>(region.size()));
  for (hex::CellIndex cell = 0; cell < region.size(); ++cell) {
    const hex::HexCoord at = region.coord_at(cell);
    const std::size_t bit =
        guard_ * 64 +
        static_cast<std::size_t>(at.r - bounds.min_r) * width +
        static_cast<std::size_t>(at.q - bounds.min_q);
    bit_[static_cast<std::size_t>(cell)] = bit;
    if (usable.usable(cell)) base_[bit >> 6] |= std::uint64_t{1} << (bit & 63);
  }
  passable_ = base_;
  reached_.assign(words_, 0);
  next_.assign(words_, 0);
  left_.assign(words_, 0);
  right_.assign(words_, 0);
}

void HopBoard::block(hex::CellIndex cell) noexcept {
  if (!valid(cell)) return;
  const std::size_t bit = bit_[static_cast<std::size_t>(cell)];
  passable_[bit >> 6] &= ~(std::uint64_t{1} << (bit & 63));
}

void HopBoard::open(hex::CellIndex cell) noexcept {
  if (!valid(cell)) return;
  const std::size_t bit = bit_[static_cast<std::size_t>(cell)];
  passable_[bit >> 6] |= std::uint64_t{1} << (bit & 63);
}

void HopBoard::restore(hex::CellIndex cell) noexcept {
  if (!valid(cell)) return;
  const std::size_t bit = bit_[static_cast<std::size_t>(cell)];
  const std::uint64_t mask = std::uint64_t{1} << (bit & 63);
  passable_[bit >> 6] =
      (passable_[bit >> 6] & ~mask) | (base_[bit >> 6] & mask);
}

void HopBoard::hop_counts(hex::CellIndex from,
                          std::span<const hex::CellIndex> targets,
                          std::span<std::int32_t> out) {
  DMFB_EXPECTS(out.size() == targets.size());
  pending_.clear();
  const bool from_passable = passable(from);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    out[i] = -1;
    if (!from_passable || !passable(targets[i])) continue;
    if (targets[i] == from) {
      out[i] = 0;
    } else {
      pending_.push_back(i);
    }
  }
  if (pending_.empty()) return;

  // Each step grows the reached set x by its passable neighbours, the six
  // shifts of x: with L = x | x << 1 and R = x | x >> 1 (in left_ and
  // right_), next = x | ((L | R | L << (W-1) | R >> (W-1)) & passable & ~x).
  // Spreading the whole set rather than the last wave costs the same word
  // operations and needs no wave buffer. The set lives in words [lo, hi],
  // which a step widens by at most `reach` words on each side. The two
  // buffers alternate; words outside [lo, hi] stay zero in both, so only
  // that range needs clearing after.
  std::uint64_t* cur = reached_.data();
  std::uint64_t* next = next_.data();
  std::uint64_t* left = left_.data();
  std::uint64_t* right = right_.data();
  const std::uint64_t* passable = passable_.data();
  const std::size_t start = bit_[static_cast<std::size_t>(from)];
  std::size_t lo = start >> 6;
  std::size_t hi = lo;
  cur[lo] = std::uint64_t{1} << (start & 63);
  // Local copies: stores through the uint64_t buffers could alias the
  // size_t members and force a reload per word.
  const std::size_t k = diagonal_words_;
  const unsigned bits = diagonal_bits_;
  // x >> (64 - bits) and x << (64 - bits) as two shifts, so bits == 0
  // gives 0 rather than an out-of-range shift.
  const unsigned carry = 63 - bits;
  const std::size_t reach = k + 1;
  const std::size_t first = guard_;
  const std::size_t last = words_ - guard_ - 1;
  for (std::int32_t hops = 1; !pending_.empty(); ++hops) {
    lo = std::max(first, lo - reach);
    hi = std::min(last, hi + reach);
    for (std::size_t j = lo - k - 1; j <= hi + k + 1; ++j) {
      left[j] = cur[j] | (cur[j] << 1) | (cur[j - 1] >> 63);
      right[j] = cur[j] | (cur[j] >> 1) | (cur[j + 1] << 63);
    }
    std::uint64_t grew = 0;
    for (std::size_t i = lo; i <= hi; ++i) {
      const std::uint64_t spread =
          left[i] | right[i] | (left[i - k] << bits) |
          ((left[i - k - 1] >> 1) >> carry) | (right[i + k] >> bits) |
          ((right[i + k + 1] << 1) << carry);
      const std::uint64_t gained = spread & passable[i] & ~cur[i];
      next[i] = cur[i] | gained;
      grew |= gained;
    }
    std::swap(cur, next);
    if (grew == 0) break;  // the wave died: the rest is unreachable
    std::size_t kept = 0;
    for (const std::size_t t : pending_) {
      const std::size_t bit = bit_[static_cast<std::size_t>(targets[t])];
      if (((cur[bit >> 6] >> (bit & 63)) & 1) != 0) {
        out[t] = hops;
      } else {
        pending_[kept++] = t;
      }
    }
    pending_.resize(kept);
  }
  std::fill(reached_.begin() + static_cast<std::ptrdiff_t>(lo),
            reached_.begin() + static_cast<std::ptrdiff_t>(hi) + 1, 0);
  std::fill(next_.begin() + static_cast<std::ptrdiff_t>(lo),
            next_.begin() + static_cast<std::ptrdiff_t>(hi) + 1, 0);
}

}  // namespace dmfb::fluidics
