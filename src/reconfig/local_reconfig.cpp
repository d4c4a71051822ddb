#include "reconfig/local_reconfig.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/contracts.hpp"
#include "graph/bipartite_graph.hpp"

namespace dmfb::reconfig {

const char* to_string(CoveragePolicy policy) noexcept {
  switch (policy) {
    case CoveragePolicy::kAllFaultyPrimaries:
      return "cover-all-faulty-primaries";
    case CoveragePolicy::kUsedFaultyPrimaries:
      return "cover-used-faulty-primaries";
  }
  return "?";
}

const char* to_string(ReplacementPool pool) noexcept {
  switch (pool) {
    case ReplacementPool::kSparesOnly:
      return "spares-only";
    case ReplacementPool::kSparesAndUnusedPrimaries:
      return "spares-and-unused-primaries";
  }
  return "?";
}

CellIndex ReconfigPlan::replacement_for(CellIndex faulty) const noexcept {
  for (const Replacement& replacement : replacements) {
    if (replacement.faulty == faulty) return replacement.spare;
  }
  return hex::kInvalidCell;
}

std::vector<CellIndex> cells_to_cover(const HexArray& array,
                                      CoveragePolicy policy) {
  std::vector<CellIndex> cover;
  for (const CellIndex cell : array.primaries()) {
    if (array.health(cell) != biochip::CellHealth::kFaulty) continue;
    if (policy == CoveragePolicy::kUsedFaultyPrimaries &&
        array.usage(cell) != biochip::CellUsage::kAssayUsed) {
      continue;
    }
    cover.push_back(cell);
  }
  return cover;
}

namespace {

/// True iff `cell` may host a replacement under `pool`.
bool is_replacement_candidate(const HexArray& array, CellIndex cell,
                              ReplacementPool pool) {
  if (array.health(cell) == biochip::CellHealth::kFaulty) return false;
  if (array.role(cell) == biochip::CellRole::kSpare) return true;
  return pool == ReplacementPool::kSparesAndUnusedPrimaries &&
         array.usage(cell) == biochip::CellUsage::kUnused;
}

/// Invokes `fn` on every replacement candidate adjacent to `faulty`.
template <typename Fn>
void for_each_candidate(const HexArray& array, CellIndex faulty,
                        ReplacementPool pool, Fn&& fn) {
  for (const CellIndex spare : array.spare_neighbors_of(faulty)) {
    if (is_replacement_candidate(array, spare, pool)) fn(spare);
  }
  if (pool == ReplacementPool::kSparesAndUnusedPrimaries) {
    for (const CellIndex primary : array.primary_neighbors_of(faulty)) {
      if (is_replacement_candidate(array, primary, pool)) fn(primary);
    }
  }
}

/// Builds BG(A, B, E) with A = `cover`, B = the healthy replacement
/// candidates adjacent to at least one covered cell.
struct ReconfigGraph {
  graph::BipartiteGraph graph{0, 0};
  std::vector<CellIndex> left_cells;   // A-index -> array cell
  std::vector<CellIndex> right_cells;  // B-index -> array cell
};

ReconfigGraph build_reconfig_graph(const HexArray& array,
                                   const std::vector<CellIndex>& cover,
                                   ReplacementPool pool) {
  ReconfigGraph rg;
  rg.left_cells = cover;
  std::unordered_map<CellIndex, std::int32_t> right_index;
  for (const CellIndex faulty : cover) {
    for_each_candidate(array, faulty, pool, [&](CellIndex candidate) {
      if (right_index
              .emplace(candidate,
                       static_cast<std::int32_t>(rg.right_cells.size()))
              .second) {
        rg.right_cells.push_back(candidate);
      }
    });
  }
  rg.graph = graph::BipartiteGraph(static_cast<std::int32_t>(cover.size()),
                                   static_cast<std::int32_t>(
                                       rg.right_cells.size()));
  for (std::size_t a = 0; a < cover.size(); ++a) {
    for_each_candidate(array, cover[a], pool, [&](CellIndex candidate) {
      rg.graph.add_edge(static_cast<std::int32_t>(a),
                        right_index.at(candidate));
    });
  }
  return rg;
}

}  // namespace

LocalReconfigurer::LocalReconfigurer(CoveragePolicy policy,
                                     graph::MatchingEngine engine,
                                     ReplacementPool pool)
    : policy_(policy), engine_(engine), pool_(pool) {}

ReconfigPlan LocalReconfigurer::plan(const HexArray& array) const {
  const std::vector<CellIndex> cover = cells_to_cover(array, policy_);
  ReconfigPlan result;
  if (cover.empty()) {
    result.success = true;
    return result;
  }
  const ReconfigGraph rg = build_reconfig_graph(array, cover, pool_);
  const graph::MatchingResult matching =
      graph::maximum_matching(rg.graph, engine_);
  result.success = matching.covers_all_left();
  for (std::size_t a = 0; a < cover.size(); ++a) {
    const std::int32_t b = matching.match_of_left[a];
    if (b == graph::MatchingResult::kUnmatched) {
      result.unrepairable.push_back(cover[a]);
    } else {
      result.replacements.push_back(
          {cover[a], rg.right_cells[static_cast<std::size_t>(b)]});
    }
  }
  DMFB_ENSURES(result.success == result.unrepairable.empty());
  return result;
}

bool LocalReconfigurer::feasible(const HexArray& array) const {
  const std::vector<CellIndex> cover = cells_to_cover(array, policy_);
  if (cover.empty()) return true;
  // Cheap necessary condition: every covered cell needs >= 1 candidate.
  // Rejects most infeasible instances before matching.
  for (const CellIndex faulty : cover) {
    bool has_candidate = false;
    for_each_candidate(array, faulty, pool_,
                       [&](CellIndex) { has_candidate = true; });
    if (!has_candidate) return false;
  }
  const ReconfigGraph rg = build_reconfig_graph(array, cover, pool_);
  return graph::maximum_matching(rg.graph, engine_).covers_all_left();
}

std::vector<CellIndex> replacement_neighborhood(
    const HexArray& array, std::span<const CellIndex> cells,
    ReplacementPool pool) {
  std::vector<CellIndex> neighborhood;
  std::unordered_set<CellIndex> seen;
  for (const CellIndex cell : cells) {
    for_each_candidate(array, cell, pool, [&](CellIndex candidate) {
      if (seen.insert(candidate).second) neighborhood.push_back(candidate);
    });
  }
  return neighborhood;
}

std::vector<CellIndex> hall_violator(const HexArray& array,
                                     const ReconfigPlan& plan,
                                     ReplacementPool pool) {
  if (plan.success) return {};
  // Rebuild BG(A, B, E) for the plan's cover set and replay the plan as a
  // MatchingResult, then delegate the Koenig closure to
  // graph::hall_violator — inheriting its checks that the plan is a valid
  // matching of this array state and, via its alternating BFS invariant,
  // that it is maximum (a greedy / non-maximum plan throws
  // ContractViolation instead of yielding a bogus certificate).
  std::vector<CellIndex> cover;
  cover.reserve(plan.replacements.size() + plan.unrepairable.size());
  for (const Replacement& replacement : plan.replacements) {
    cover.push_back(replacement.faulty);
  }
  cover.insert(cover.end(), plan.unrepairable.begin(),
               plan.unrepairable.end());
  std::sort(cover.begin(), cover.end());  // cells_to_cover order

  const ReconfigGraph rg = build_reconfig_graph(array, cover, pool);
  std::unordered_map<CellIndex, std::int32_t> right_index;
  for (std::size_t b = 0; b < rg.right_cells.size(); ++b) {
    right_index.emplace(rg.right_cells[b], static_cast<std::int32_t>(b));
  }
  graph::MatchingResult matching;
  matching.match_of_left.assign(cover.size(),
                                graph::MatchingResult::kUnmatched);
  matching.match_of_right.assign(rg.right_cells.size(),
                                 graph::MatchingResult::kUnmatched);
  for (std::size_t a = 0; a < cover.size(); ++a) {
    const CellIndex spare = plan.replacement_for(cover[a]);
    if (spare == hex::kInvalidCell) continue;
    const auto found = right_index.find(spare);
    // The plan must belong to this array state and pool, or its spare is
    // not a candidate of the rebuilt graph.
    DMFB_EXPECTS(found != right_index.end());
    matching.match_of_left[a] = found->second;
    matching.match_of_right[static_cast<std::size_t>(found->second)] =
        static_cast<std::int32_t>(a);
    ++matching.size;
  }

  std::vector<CellIndex> violator;
  for (const std::int32_t a : graph::hall_violator(rg.graph, matching)) {
    violator.push_back(cover[static_cast<std::size_t>(a)]);
  }
  return violator;
}

GreedyReconfigurer::GreedyReconfigurer(CoveragePolicy policy)
    : policy_(policy) {}

ReconfigPlan GreedyReconfigurer::plan(const HexArray& array) const {
  const std::vector<CellIndex> cover = cells_to_cover(array, policy_);
  ReconfigPlan result;
  std::vector<char> taken(static_cast<std::size_t>(array.cell_count()), 0);
  for (const CellIndex faulty : cover) {
    CellIndex chosen = hex::kInvalidCell;
    for (const CellIndex spare : array.spare_neighbors_of(faulty)) {
      if (array.health(spare) == biochip::CellHealth::kFaulty) continue;
      if (taken[static_cast<std::size_t>(spare)]) continue;
      chosen = spare;
      break;
    }
    if (chosen == hex::kInvalidCell) {
      result.unrepairable.push_back(faulty);
    } else {
      taken[static_cast<std::size_t>(chosen)] = 1;
      result.replacements.push_back({faulty, chosen});
    }
  }
  result.success = result.unrepairable.empty();
  return result;
}

bool GreedyReconfigurer::feasible(const HexArray& array) const {
  return plan(array).success;
}

}  // namespace dmfb::reconfig
