// fluidics::HopBoard — word-parallel BFS hop counts on a hex bitboard.
//
// Router::shortest_route searches cell by cell. When only route lengths
// matter (the operational Monte-Carlo kernel adds up transport hops), a
// whole BFS wave can advance at once: pack the passable cells into a
// bitboard and grow the reached set by shifting it in the six hex
// directions, 64 cells per word operation.
//
// Layout. Cell (q, r) of the array's region maps to bit
// (r - min_r) * W + (q - min_q), where W is the axial width + 1. The extra
// column is never passable, so a shift that leaves a row lands on a zero
// bit instead of wrapping into the next row. Zero guard words at both ends
// absorb shifts past the first and last row. The six axial neighbour
// offsets (+1,0), (-1,0), (0,+1), (0,-1), (-1,+1), (+1,-1) become bit shifts
// by +1, -1, +W, -W, +(W-1), -(W-1); W may exceed 64, so a shift can span
// words. With L = x | x << 1 and R = x | x >> 1, their union over a set x
// is L | R | L << (W-1) | R >> (W-1) minus x itself, so a BFS step needs
// one multi-word shift amount, W - 1, for every W.
//
// Passability is a snapshot of a UsableCells taken at construction (the
// base). block/open edit single bits for one search batch and restore puts
// a cell back to the base, so a caller can apply a fault set and a plan's
// spares and undo both in O(#changed cells).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fluidics/router.hpp"

namespace dmfb::fluidics {

class HopBoard {
 public:
  /// Lays out `usable`'s array region and snapshots its usable cells as the
  /// base passable set. Later changes to `usable` do not reach the board.
  explicit HopBoard(const UsableCells& usable);

  bool passable(hex::CellIndex cell) const noexcept {
    if (!valid(cell)) return false;
    const std::size_t bit = bit_[static_cast<std::size_t>(cell)];
    return ((passable_[bit >> 6] >> (bit & 63)) & 1) != 0;
  }
  /// Makes `cell` impassable / passable until restore(cell).
  void block(hex::CellIndex cell) noexcept;
  void open(hex::CellIndex cell) noexcept;
  /// Returns `cell` to its base passability.
  void restore(hex::CellIndex cell) noexcept;

  /// out[i] = hop count of a shortest passable route from `from` to
  /// targets[i] (0 when they coincide), or -1 when targets[i] is
  /// unreachable or either endpoint is out of range or impassable. Equal to
  /// Router::shortest_route(from, targets[i]).size() - 1 over the same
  /// usable set. One BFS wave serves every target: it advances until each
  /// target is labelled or the wave dies. Reuses the board's buffers, so a
  /// board must not serve concurrent searches.
  void hop_counts(hex::CellIndex from, std::span<const hex::CellIndex> targets,
                  std::span<std::int32_t> out);

 private:
  bool valid(hex::CellIndex cell) const noexcept {
    return cell >= 0 && static_cast<std::size_t>(cell) < bit_.size();
  }

  std::vector<std::size_t> bit_;  ///< cell -> bit, guard offset included
  std::size_t guard_ = 0;         ///< zero words before and after the rows
  std::size_t words_ = 0;         ///< total words, guards included
  std::size_t diagonal_words_ = 0;  ///< W - 1 = 64 * words + bits
  unsigned diagonal_bits_ = 0;
  std::vector<std::uint64_t> base_;
  std::vector<std::uint64_t> passable_;
  // Search scratch: the reached set, double-buffered; zero between
  // searches.
  std::vector<std::uint64_t> reached_;
  std::vector<std::uint64_t> next_;
  std::vector<std::uint64_t> left_;   ///< reached | reached << 1
  std::vector<std::uint64_t> right_;  ///< reached | reached >> 1
  std::vector<std::size_t> pending_;  ///< indices of unlabelled targets
};

}  // namespace dmfb::fluidics
