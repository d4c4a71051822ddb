#include "sim/fault_state.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/contracts.hpp"
#include "obs/metrics.hpp"

namespace dmfb::sim {

FaultState::FaultState(std::shared_ptr<const ChipDesign> design)
    : design_(std::move(design)) {
  DMFB_EXPECTS(design_ != nullptr);
  const auto n = static_cast<std::size_t>(design_->cell_count());
  words_.assign(fault_word_count(design_->cell_count()), 0);
  right_index_.assign(n, 0);
  right_stamp_.assign(n, 0);
  prev_words_.assign(words_.size(), 0);
  inc_match_primary_.assign(n, -1);
  inc_match_candidate_.assign(n, -1);
}

void FaultState::reset() noexcept {
  for (const CellIndex cell : faulty_cells_) {
    words_[static_cast<std::size_t>(cell) >> 6] = 0;
  }
  faulty_cells_.clear();
}

void FaultState::load_fault_words(std::span<const std::uint64_t> words) {
  DMFB_EXPECTS(faulty_cells_.empty());
  DMFB_EXPECTS(words.size() == words_.size());
  // Trailing bits past the last cell must stay zero (fault_words contract).
  const auto tail = static_cast<std::uint32_t>(design_->cell_count()) & 63;
  DMFB_EXPECTS(words.empty() || tail == 0 ||
               (words.back() >> tail) == 0);
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint64_t bits = words[w];
    words_[w] = bits;
    while (bits != 0) {
      faulty_cells_.push_back(static_cast<CellIndex>(
          (w << 6) + static_cast<std::size_t>(std::countr_zero(bits))));
      bits &= bits - 1;
    }
  }
}

std::int32_t FaultState::next_epoch() noexcept {
  if (++epoch_ == std::numeric_limits<std::int32_t>::max()) {
    std::fill(right_stamp_.begin(), right_stamp_.end(), 0);
    epoch_ = 1;
  }
  return epoch_;
}

template <bool kPlan>
bool FaultState::build_graph(const ChipDesign::Skeleton& skeleton) {
  next_epoch();
  graph_.clear();
  if constexpr (kPlan) {
    left_cells_.clear();
    right_cells_.clear();
  }
  // Word-parallel scan: one AND per 64 cells selects the faulty primaries
  // the policy must cover; bit extraction then visits only the set bits.
  for (std::size_t w = 0; w < words_.size(); ++w) {
    std::uint64_t bits = words_[w] & skeleton.cover_words[w];
    while (bits != 0) {
      const auto cell = static_cast<CellIndex>(
          (w << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
      const std::int32_t row =
          skeleton.cover_row_of_cell[static_cast<std::size_t>(cell)];
      graph_.open_row();
      if constexpr (kPlan) left_cells_.push_back(cell);
      for (const CellIndex candidate :
           skeleton.candidates_of(static_cast<std::size_t>(row))) {
        if (is_faulty(candidate)) continue;
        auto& stamp = right_stamp_[static_cast<std::size_t>(candidate)];
        if (stamp != epoch_) {
          stamp = epoch_;
          right_index_[static_cast<std::size_t>(candidate)] =
              graph_.right_count();
          if constexpr (kPlan) right_cells_.push_back(candidate);
        }
        graph_.add_edge(right_index_[static_cast<std::size_t>(candidate)]);
      }
      // Hall's condition fails outright for an isolated faulty primary; the
      // legacy feasibility path short-circuits identically.
      if constexpr (!kPlan) {
        if (graph_.open_row_degree() == 0) return false;
      }
    }
  }
  return true;
}

bool FaultState::repairable(reconfig::CoveragePolicy policy,
                            graph::MatchingEngine /*engine*/,
                            reconfig::ReplacementPool pool) {
  if (!build_graph<false>(design_->skeleton(policy, pool))) return false;
  if (graph_.left_count() == 0) return true;
  return matcher_.covers_all_left(graph_);
}

void FaultState::plan(reconfig::CoveragePolicy policy,
                      reconfig::ReplacementPool pool,
                      reconfig::ReconfigPlan& out) {
  build_graph<true>(design_->skeleton(policy, pool));
  out.replacements.clear();
  out.unrepairable.clear();
  if (graph_.left_count() > 0) {
    matcher_.maximum_matching_size(graph_);
    const std::span<const std::int32_t> match = matcher_.match_of_left();
    for (std::size_t a = 0; a < left_cells_.size(); ++a) {
      if (match[a] == graph::MatchingResult::kUnmatched) {
        out.unrepairable.push_back(left_cells_[a]);
      } else {
        out.replacements.push_back(
            {left_cells_[a], right_cells_[static_cast<std::size_t>(match[a])]});
      }
    }
  }
  out.success = out.unrepairable.empty();
}

// ------------------------------------------------------ incremental repair

bool FaultState::inc_augment(const ChipDesign::Skeleton& skeleton,
                             CellIndex primary) {
  const std::int32_t row =
      skeleton.cover_row_of_cell[static_cast<std::size_t>(primary)];
  for (const CellIndex candidate :
       skeleton.candidates_of(static_cast<std::size_t>(row))) {
    if (is_faulty(candidate)) continue;
    auto& stamp = right_stamp_[static_cast<std::size_t>(candidate)];
    if (stamp == epoch_) continue;
    stamp = epoch_;
    const std::int32_t back =
        inc_match_candidate_[static_cast<std::size_t>(candidate)];
    if (back < 0 || inc_augment(skeleton, back)) {
      inc_match_primary_[static_cast<std::size_t>(primary)] = candidate;
      inc_match_candidate_[static_cast<std::size_t>(candidate)] = primary;
      return true;
    }
  }
  return false;
}

bool FaultState::repairable_incremental(reconfig::CoveragePolicy policy,
                                        reconfig::ReplacementPool pool) {
  const ChipDesign::Skeleton& skeleton = design_->skeleton(policy, pool);
  const bool same_config =
      inc_valid_ && policy == inc_policy_ && pool == inc_pool_;
  inc_policy_ = policy;
  inc_pool_ = pool;

  bool rebuild = !same_config;
  if (same_config) {
    std::int32_t churn = 0;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      churn += std::popcount(words_[w] ^ prev_words_[w]);
    }
    rebuild = churn >= faulty_count() + kIncrementalChurnSlack;
  }
  // Which of the three paths serves a run depends on this FaultState's
  // history — i.e. on how runs were dealt to workers — so all three are
  // unstable counters. Their *sum* equals sim.runs on the incremental plan.
  obs::count(rebuild ? (same_config ? obs::Metric::kIncChurnBailouts
                                    : obs::Metric::kIncFullRebuilds)
                     : obs::Metric::kIncDiffRepairs);

  inc_pending_.clear();
  if (rebuild) {
    // Drop every match recorded for the previously committed fault set
    // (matched primaries are always a subset of it), then re-augment from
    // all currently covered faulty primaries — the CSR skeleton rebuild,
    // expressed in cell space.
    for (std::size_t w = 0; w < prev_words_.size(); ++w) {
      std::uint64_t bits = prev_words_[w];
      while (bits != 0) {
        const auto cell = static_cast<std::size_t>(
            (w << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
        bits &= bits - 1;
        const std::int32_t mate = inc_match_primary_[cell];
        if (mate >= 0) {
          inc_match_candidate_[static_cast<std::size_t>(mate)] = -1;
          inc_match_primary_[cell] = -1;
        }
      }
    }
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w] & skeleton.cover_words[w];
      while (bits != 0) {
        inc_pending_.push_back(static_cast<CellIndex>(
            (w << 6) + static_cast<std::size_t>(std::countr_zero(bits))));
        bits &= bits - 1;
      }
    }
  } else {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      // Departures first within the word: a primary that both lost its
      // fault and served as someone's candidate cannot exist (matched
      // candidates are healthy), so the two passes never race on a cell.
      std::uint64_t removed = prev_words_[w] & ~words_[w];
      while (removed != 0) {
        const auto cell = static_cast<std::size_t>(
            (w << 6) + static_cast<std::size_t>(std::countr_zero(removed)));
        removed &= removed - 1;
        const std::int32_t mate = inc_match_primary_[cell];
        if (mate >= 0) {  // healed primary: release its candidate
          inc_match_candidate_[static_cast<std::size_t>(mate)] = -1;
          inc_match_primary_[cell] = -1;
        }
      }
      std::uint64_t added = words_[w] & ~prev_words_[w];
      while (added != 0) {
        const auto cell = static_cast<std::size_t>(
            (w << 6) + static_cast<std::size_t>(std::countr_zero(added)));
        added &= added - 1;
        const std::int32_t primary = inc_match_candidate_[cell];
        if (primary >= 0) {  // newly-faulty candidate: kick its primary
          inc_match_candidate_[cell] = -1;
          inc_match_primary_[static_cast<std::size_t>(primary)] = -1;
          inc_pending_.push_back(primary);
        }
        if (skeleton.cover_row_of_cell[cell] >= 0) {
          inc_pending_.push_back(static_cast<CellIndex>(cell));
        }
      }
    }
  }

  // Re-augment. Kuhn's invariant makes the early exit sound: when no
  // augmenting path leaves `primary` under the current matching, no maximum
  // matching saturates it, so the run is unrepairable regardless of the
  // remaining pending vertices.
  bool feasible = true;
  for (const CellIndex primary : inc_pending_) {
    const auto i = static_cast<std::size_t>(primary);
    // A kicked primary may itself have healed in the same diff (the kick
    // can precede the departure scan of a later word), and the rebuild path
    // may enqueue a primary twice; both are benign skips here.
    if (!is_faulty(primary) || inc_match_primary_[i] >= 0) continue;
    next_epoch();
    if (!inc_augment(skeleton, primary)) {
      feasible = false;
      break;
    }
  }

  // Commit: the matching now refers to this run's fault set (even on an
  // infeasible verdict, where inc_valid_ = false forces the next call to
  // rebuild rather than diff against a partially-matched state).
  std::copy(words_.begin(), words_.end(), prev_words_.begin());
  inc_valid_ = feasible;
  return feasible;
}

std::int32_t FaultState::incremental_matched_count() const noexcept {
  std::int32_t matched = 0;
  for (std::size_t w = 0; w < prev_words_.size(); ++w) {
    std::uint64_t bits = prev_words_[w];
    while (bits != 0) {
      const auto cell = static_cast<std::size_t>(
          (w << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
      if (inc_match_primary_[cell] >= 0) ++matched;
    }
  }
  return matched;
}

bool FaultState::incremental_matching_valid() const {
  const ChipDesign::Skeleton& skeleton =
      design_->skeleton(inc_policy_, inc_pool_);
  const auto n = static_cast<std::size_t>(design_->cell_count());
  const auto committed_faulty = [&](std::size_t cell) {
    return ((prev_words_[cell >> 6] >> (cell & 63)) & 1) != 0;
  };
  for (std::size_t cell = 0; cell < n; ++cell) {
    const std::int32_t mate = inc_match_primary_[cell];
    if (mate >= 0) {
      const auto m = static_cast<std::size_t>(mate);
      // Matched primary: faulty, covered, mutually paired with a healthy
      // candidate from its skeleton row.
      if (!committed_faulty(cell) || skeleton.cover_row_of_cell[cell] < 0 ||
          committed_faulty(m) || inc_match_candidate_[m] !=
                                     static_cast<std::int32_t>(cell)) {
        return false;
      }
      const auto row = static_cast<std::size_t>(
          skeleton.cover_row_of_cell[cell]);
      const auto candidates = skeleton.candidates_of(row);
      if (std::find(candidates.begin(), candidates.end(), mate) ==
          candidates.end()) {
        return false;
      }
    }
    const std::int32_t primary = inc_match_candidate_[cell];
    if (primary >= 0 &&
        inc_match_primary_[static_cast<std::size_t>(primary)] !=
            static_cast<std::int32_t>(cell)) {
      return false;
    }
  }
  return true;
}

}  // namespace dmfb::sim
