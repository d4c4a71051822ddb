// Maximum bipartite matching — the feasibility engine for local
// reconfiguration.
//
// The paper (Section 6, Fig. 8): faulty primary cells can all be repaired
// iff a maximum matching of the faulty-primary x healthy-spare adjacency
// graph saturates every faulty primary. The size of a maximum matching is
// unique, so the verdict does not depend on the algorithm. On the legacy
// BipartiteGraph we keep four independent engines — Hopcroft-Karp
// (default), Kuhn's augmenting paths, Dinic max-flow on the unit network,
// and the Cherkassky-Goldberg double-push (push-relabel) matcher — which
// the test suite requires to agree on every instance and the ablation bench
// compares. The simulator (sim::, on graph::CsrMatcher) computes every plan
// and verdict with Hopcroft-Karp alone; there the engine a query names is
// accepted and changes no estimate.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/bipartite_graph.hpp"

namespace dmfb::graph {

/// Which algorithm computes the matching.
enum class MatchingEngine : std::uint8_t {
  kHopcroftKarp,
  kKuhn,
  kDinic,
  kPushRelabel,
  /// Sentinel for "no preference": maximum_matching runs Hopcroft-Karp,
  /// and sim::plan_engine may pick incremental repair at low defect density.
  kAuto,
};

const char* to_string(MatchingEngine engine) noexcept;

/// A matching: match_of_left[a] is the right partner of a (or kUnmatched).
struct MatchingResult {
  static constexpr std::int32_t kUnmatched = -1;

  std::vector<std::int32_t> match_of_left;
  std::vector<std::int32_t> match_of_right;
  std::int32_t size = 0;

  /// True iff every left vertex (faulty cell) is matched — i.e. the chip is
  /// repairable by local reconfiguration.
  bool covers_all_left() const noexcept {
    return size == static_cast<std::int32_t>(match_of_left.size());
  }
};

/// Computes a maximum matching of `graph` with the chosen engine.
MatchingResult maximum_matching(const BipartiteGraph& graph,
                                MatchingEngine engine = MatchingEngine::kHopcroftKarp);

/// Verifies that `m` is a valid matching of `graph` (consistent pairing,
/// edges exist). Used by tests and by debug assertions in the reconfigurer.
bool is_valid_matching(const BipartiteGraph& graph, const MatchingResult& m);

/// When the maximum matching fails to cover the left side, returns a Hall
/// violator: a set S of left vertices with |N(S)| < |S| (the deficiency
/// witness — the cluster of faulty cells that cannot all be repaired).
/// Returns an empty vector when the matching covers all left vertices.
std::vector<std::int32_t> hall_violator(const BipartiteGraph& graph,
                                        const MatchingResult& m);

namespace detail {
MatchingResult hopcroft_karp(const BipartiteGraph& graph);
MatchingResult kuhn(const BipartiteGraph& graph);
MatchingResult dinic_matching(const BipartiteGraph& graph);
MatchingResult push_relabel_matching(const BipartiteGraph& graph);
}  // namespace detail

}  // namespace dmfb::graph
