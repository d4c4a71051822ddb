// Push-relabel bipartite matching (the Cherkassky-Goldberg "double push").
//
// The unit-capacity flow network behind bipartite matching (source -> left,
// edges, right -> sink) collapses push-relabel into one combined operation
// per active left vertex: grab the minimum-label right neighbour, kick its
// previous partner (which becomes active again), and raise the grabbed
// vertex's label by 2. Right labels lower-bound the residual distance to
// the sink, so a vertex whose best neighbour's label reaches
// left + right + 1 can never be saturated by any maximum flow and retires
// unmatched. Unlike the augmenting-path engines, no path is ever traced —
// the work is a sequence of O(degree) scans.
//
// One of the four legacy BipartiteGraph engines: it serves
// maximum_matching(graph, kPushRelabel), the engine ablation bench and the
// test suites, which require it to agree in size with the augmenting-path
// engines on every instance. The simulator's CsrMatcher runs Hopcroft-Karp
// only.
#include <cstdint>
#include <vector>

#include "graph/matching.hpp"

namespace dmfb::graph::detail {

MatchingResult push_relabel_matching(const BipartiteGraph& graph) {
  constexpr std::int32_t kUnmatched = MatchingResult::kUnmatched;
  const std::int32_t left_count = graph.left_count();
  const std::int32_t right_count = graph.right_count();
  MatchingResult result;
  auto& match_left = result.match_of_left;
  auto& match_right = result.match_of_right;
  match_left.assign(static_cast<std::size_t>(left_count), kUnmatched);
  match_right.assign(static_cast<std::size_t>(right_count), kUnmatched);
  std::vector<std::int32_t> label_right(static_cast<std::size_t>(right_count),
                                        0);
  // The FIFO of active left vertices; total enqueues are bounded by
  // left + right * (cutoff + 2) / 2.
  std::vector<std::int32_t> active;
  // A label >= cutoff certifies the sink is unreachable: any simple
  // residual path to the sink has at most left + right intermediate hops.
  const std::int32_t cutoff = left_count + right_count + 1;
  for (std::int32_t a = 0; a < left_count; ++a) active.push_back(a);
  for (std::size_t head = 0; head < active.size(); ++head) {
    const std::int32_t a = active[head];
    // Relabel a to (min neighbour label) + 1 and push there in one step.
    std::int32_t best = -1;
    std::int32_t best_label = cutoff;
    for (const std::int32_t b : graph.neighbors_of_left(a)) {
      const std::int32_t label = label_right[static_cast<std::size_t>(b)];
      if (label < best_label) {
        best_label = label;
        best = b;
      }
    }
    // Retires permanently: no neighbour, or none that can still reach the
    // sink — a is unmatched in every maximum flow.
    if (best < 0 || best_label >= cutoff) continue;
    const std::int32_t prev = match_right[static_cast<std::size_t>(best)];
    match_right[static_cast<std::size_t>(best)] = a;
    match_left[static_cast<std::size_t>(a)] = best;
    // +2 keeps label validity across the new back arc and prices the grab
    // so a kicked partner prefers fresh right vertices first.
    label_right[static_cast<std::size_t>(best)] = best_label + 2;
    if (prev == kUnmatched) {
      ++result.size;
    } else {
      match_left[static_cast<std::size_t>(prev)] = kUnmatched;
      active.push_back(prev);
    }
  }
  return result;
}

}  // namespace dmfb::graph::detail
