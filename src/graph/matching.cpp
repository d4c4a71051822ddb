#include "graph/matching.hpp"

#include <algorithm>
#include <queue>

#include "common/contracts.hpp"

namespace dmfb::graph {

const char* to_string(MatchingEngine engine) noexcept {
  switch (engine) {
    case MatchingEngine::kHopcroftKarp: return "hopcroft-karp";
    case MatchingEngine::kKuhn: return "kuhn";
    case MatchingEngine::kDinic: return "dinic";
    case MatchingEngine::kPushRelabel: return "push-relabel";
    case MatchingEngine::kAuto: return "auto";
  }
  return "?";
}

MatchingResult maximum_matching(const BipartiteGraph& graph,
                                MatchingEngine engine) {
  switch (engine) {
    case MatchingEngine::kHopcroftKarp:
    case MatchingEngine::kAuto: return detail::hopcroft_karp(graph);
    case MatchingEngine::kKuhn: return detail::kuhn(graph);
    case MatchingEngine::kDinic: return detail::dinic_matching(graph);
    case MatchingEngine::kPushRelabel:
      return detail::push_relabel_matching(graph);
  }
  DMFB_ASSERT(!"unknown matching engine");
  return {};
}

bool is_valid_matching(const BipartiteGraph& graph, const MatchingResult& m) {
  if (m.match_of_left.size() != static_cast<std::size_t>(graph.left_count()) ||
      m.match_of_right.size() !=
          static_cast<std::size_t>(graph.right_count())) {
    return false;
  }
  std::int32_t count = 0;
  for (std::int32_t a = 0; a < graph.left_count(); ++a) {
    const std::int32_t b = m.match_of_left[static_cast<std::size_t>(a)];
    if (b == MatchingResult::kUnmatched) continue;
    if (b < 0 || b >= graph.right_count()) return false;
    if (m.match_of_right[static_cast<std::size_t>(b)] != a) return false;
    const auto nbrs = graph.neighbors_of_left(a);
    if (std::find(nbrs.begin(), nbrs.end(), b) == nbrs.end()) return false;
    ++count;
  }
  for (std::int32_t b = 0; b < graph.right_count(); ++b) {
    const std::int32_t a = m.match_of_right[static_cast<std::size_t>(b)];
    if (a == MatchingResult::kUnmatched) continue;
    if (a < 0 || a >= graph.left_count()) return false;
    if (m.match_of_left[static_cast<std::size_t>(a)] != b) return false;
  }
  return count == m.size;
}

std::vector<std::int32_t> hall_violator(const BipartiteGraph& graph,
                                        const MatchingResult& m) {
  DMFB_EXPECTS(is_valid_matching(graph, m));
  if (m.covers_all_left()) return {};

  // Alternating BFS from every unmatched left vertex: left->right along
  // non-matching edges, right->left along matching edges. The reachable left
  // vertices Z_L satisfy |N(Z_L)| = |Z_L| - (#unmatched roots) < |Z_L|,
  // i.e. Z_L is a Hall violator (Koenig's construction).
  std::vector<char> left_reached(static_cast<std::size_t>(graph.left_count()), 0);
  std::vector<char> right_reached(static_cast<std::size_t>(graph.right_count()), 0);
  std::queue<std::int32_t> frontier;  // left vertices to expand
  for (std::int32_t a = 0; a < graph.left_count(); ++a) {
    if (m.match_of_left[static_cast<std::size_t>(a)] ==
        MatchingResult::kUnmatched) {
      left_reached[static_cast<std::size_t>(a)] = 1;
      frontier.push(a);
    }
  }
  while (!frontier.empty()) {
    const std::int32_t a = frontier.front();
    frontier.pop();
    for (const std::int32_t b : graph.neighbors_of_left(a)) {
      if (right_reached[static_cast<std::size_t>(b)]) continue;
      right_reached[static_cast<std::size_t>(b)] = 1;
      const std::int32_t back = m.match_of_right[static_cast<std::size_t>(b)];
      // b must be matched: an unmatched reachable b would be the endpoint of
      // an augmenting path, contradicting maximality of m.
      DMFB_ASSERT(back != MatchingResult::kUnmatched);
      if (!left_reached[static_cast<std::size_t>(back)]) {
        left_reached[static_cast<std::size_t>(back)] = 1;
        frontier.push(back);
      }
    }
  }
  std::vector<std::int32_t> violator;
  for (std::int32_t a = 0; a < graph.left_count(); ++a) {
    if (left_reached[static_cast<std::size_t>(a)]) violator.push_back(a);
  }
  DMFB_ENSURES(!violator.empty());
  return violator;
}

}  // namespace dmfb::graph
