// Tests for graph algorithms: three matching engines (cross-validated
// against each other and against brute force), max-flow, and generic graph
// utilities.
#include <algorithm>
#include <functional>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "graph/bipartite_graph.hpp"
#include "graph/graph.hpp"
#include "graph/matching.hpp"
#include "graph/max_flow.hpp"

namespace dmfb::graph {
namespace {

/// Exponential-time exact maximum matching size (for tiny graphs).
std::int32_t brute_force_matching_size(const BipartiteGraph& g) {
  std::vector<char> right_used(static_cast<std::size_t>(g.right_count()), 0);
  std::function<std::int32_t(std::int32_t)> best = [&](std::int32_t a) {
    if (a == g.left_count()) return 0;
    std::int32_t result = best(a + 1);  // leave a unmatched
    for (const std::int32_t b : g.neighbors_of_left(a)) {
      if (right_used[static_cast<std::size_t>(b)]) continue;
      right_used[static_cast<std::size_t>(b)] = 1;
      result = std::max(result, 1 + best(a + 1));
      right_used[static_cast<std::size_t>(b)] = 0;
    }
    return result;
  };
  return best(0);
}

BipartiteGraph random_bipartite(Rng& rng, std::int32_t left,
                                std::int32_t right, double edge_prob) {
  BipartiteGraph g(left, right);
  for (std::int32_t a = 0; a < left; ++a) {
    for (std::int32_t b = 0; b < right; ++b) {
      if (rng.bernoulli(edge_prob)) g.add_edge(a, b);
    }
  }
  return g;
}

// --------------------------------------------------------- BipartiteGraph

TEST(BipartiteGraph, EmptyGraph) {
  const BipartiteGraph g(0, 0);
  EXPECT_EQ(g.left_count(), 0);
  EXPECT_EQ(g.edge_count(), 0);
}

TEST(BipartiteGraph, EdgeBookkeeping) {
  BipartiteGraph g(2, 3);
  g.add_edge(0, 2);
  g.add_edge(1, 0);
  g.add_edge(1, 2);
  EXPECT_EQ(g.edge_count(), 3);
  EXPECT_EQ(g.neighbors_of_left(1).size(), 2u);
  EXPECT_EQ(g.neighbors_of_right(2).size(), 2u);
  EXPECT_EQ(g.neighbors_of_right(1).size(), 0u);
}

TEST(BipartiteGraph, RejectsOutOfRange) {
  BipartiteGraph g(2, 2);
  EXPECT_THROW(g.add_edge(2, 0), ContractViolation);
  EXPECT_THROW(g.add_edge(0, -1), ContractViolation);
  EXPECT_THROW(g.neighbors_of_left(5), ContractViolation);
}

// ------------------------------------------------------------- matching

constexpr MatchingEngine kEngines[] = {MatchingEngine::kHopcroftKarp,
                                       MatchingEngine::kKuhn,
                                       MatchingEngine::kDinic};

class MatchingEngineTest : public ::testing::TestWithParam<MatchingEngine> {};

TEST_P(MatchingEngineTest, EmptyGraphHasEmptyMatching) {
  const BipartiteGraph g(0, 0);
  const MatchingResult m = maximum_matching(g, GetParam());
  EXPECT_EQ(m.size, 0);
  EXPECT_TRUE(m.covers_all_left());
  EXPECT_TRUE(is_valid_matching(g, m));
}

TEST_P(MatchingEngineTest, SingleEdge) {
  BipartiteGraph g(1, 1);
  g.add_edge(0, 0);
  const MatchingResult m = maximum_matching(g, GetParam());
  EXPECT_EQ(m.size, 1);
  EXPECT_EQ(m.match_of_left[0], 0);
  EXPECT_TRUE(is_valid_matching(g, m));
}

TEST_P(MatchingEngineTest, IsolatedLeftVertexUnmatched) {
  BipartiteGraph g(2, 1);
  g.add_edge(0, 0);
  const MatchingResult m = maximum_matching(g, GetParam());
  EXPECT_EQ(m.size, 1);
  EXPECT_FALSE(m.covers_all_left());
  EXPECT_EQ(m.match_of_left[1], MatchingResult::kUnmatched);
}

TEST_P(MatchingEngineTest, RequiresAugmentingPath) {
  // Greedy left-to-right would match 0-0 and strand 1; the maximum
  // matching must reassign: 0-1, 1-0.
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  const MatchingResult m = maximum_matching(g, GetParam());
  EXPECT_EQ(m.size, 2);
  EXPECT_TRUE(m.covers_all_left());
  EXPECT_TRUE(is_valid_matching(g, m));
}

TEST_P(MatchingEngineTest, PerfectMatchingOnCompleteGraph) {
  BipartiteGraph g(5, 5);
  for (std::int32_t a = 0; a < 5; ++a) {
    for (std::int32_t b = 0; b < 5; ++b) g.add_edge(a, b);
  }
  const MatchingResult m = maximum_matching(g, GetParam());
  EXPECT_EQ(m.size, 5);
  EXPECT_TRUE(is_valid_matching(g, m));
}

TEST_P(MatchingEngineTest, HallViolatorLimitsMatching) {
  // Three left vertices share the same two right neighbours: max = 2.
  BipartiteGraph g(3, 2);
  for (std::int32_t a = 0; a < 3; ++a) {
    g.add_edge(a, 0);
    g.add_edge(a, 1);
  }
  const MatchingResult m = maximum_matching(g, GetParam());
  EXPECT_EQ(m.size, 2);
}

TEST_P(MatchingEngineTest, MatchesBruteForceOnRandomGraphs) {
  Rng rng(0xBEEF + static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 150; ++trial) {
    const auto left = rng.uniform_int(0, 6);
    const auto right = rng.uniform_int(0, 6);
    const BipartiteGraph g =
        random_bipartite(rng, left, right, rng.uniform01());
    const MatchingResult m = maximum_matching(g, GetParam());
    EXPECT_TRUE(is_valid_matching(g, m));
    EXPECT_EQ(m.size, brute_force_matching_size(g))
        << "trial " << trial << " left=" << left << " right=" << right;
  }
}

TEST_P(MatchingEngineTest, ParityWithOtherEnginesOnLargerGraphs) {
  Rng rng(0xFACE);
  for (int trial = 0; trial < 30; ++trial) {
    const BipartiteGraph g = random_bipartite(rng, 40, 35, 0.08);
    const auto size = maximum_matching(g, GetParam()).size;
    const auto reference =
        maximum_matching(g, MatchingEngine::kHopcroftKarp).size;
    EXPECT_EQ(size, reference);
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, MatchingEngineTest,
                         ::testing::ValuesIn(kEngines),
                         [](const auto& test_info) {
                           return std::string(to_string(test_info.param)) ==
                                          "hopcroft-karp"
                                      ? std::string("HopcroftKarp")
                                      : std::string(to_string(test_info.param)) ==
                                                "kuhn"
                                            ? std::string("Kuhn")
                                            : std::string("Dinic");
                         });

TEST(Matching, EngineNames) {
  EXPECT_STREQ(to_string(MatchingEngine::kHopcroftKarp), "hopcroft-karp");
  EXPECT_STREQ(to_string(MatchingEngine::kKuhn), "kuhn");
  EXPECT_STREQ(to_string(MatchingEngine::kDinic), "dinic");
}

TEST(Matching, ValidatorCatchesCorruptPairing) {
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0);
  g.add_edge(1, 1);
  MatchingResult m = maximum_matching(g);
  m.match_of_left[0] = 1;  // edge (0,1) does not exist
  EXPECT_FALSE(is_valid_matching(g, m));
}

// ----------------------------------------------------------- hall_violator

TEST(HallViolator, EmptyWhenCovered) {
  BipartiteGraph g(2, 2);
  g.add_edge(0, 0);
  g.add_edge(1, 1);
  const MatchingResult m = maximum_matching(g);
  EXPECT_TRUE(hall_violator(g, m).empty());
}

TEST(HallViolator, FindsDeficientSet) {
  // Left {0,1,2} all map to right {0,1} only: violator must have >= 3
  // vertices whose neighbourhood is {0,1}.
  BipartiteGraph g(4, 3);
  for (std::int32_t a = 0; a < 3; ++a) {
    g.add_edge(a, 0);
    g.add_edge(a, 1);
  }
  g.add_edge(3, 2);
  const MatchingResult m = maximum_matching(g);
  EXPECT_EQ(m.size, 3);
  const auto violator = hall_violator(g, m);
  ASSERT_FALSE(violator.empty());
  // Verify the Hall property directly: |N(S)| < |S|.
  std::set<std::int32_t> neighborhood;
  for (const std::int32_t a : violator) {
    for (const std::int32_t b : g.neighbors_of_left(a)) {
      neighborhood.insert(b);
    }
  }
  EXPECT_LT(neighborhood.size(), violator.size());
}

TEST(HallViolator, PropertyOnRandomDeficientGraphs) {
  Rng rng(0xA11CE);
  int deficient_seen = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const BipartiteGraph g = random_bipartite(
        rng, rng.uniform_int(1, 8), rng.uniform_int(0, 5), 0.3);
    const MatchingResult m = maximum_matching(g);
    const auto violator = hall_violator(g, m);
    if (m.covers_all_left()) {
      EXPECT_TRUE(violator.empty());
      continue;
    }
    ++deficient_seen;
    ASSERT_FALSE(violator.empty());
    std::set<std::int32_t> neighborhood;
    for (const std::int32_t a : violator) {
      for (const std::int32_t b : g.neighbors_of_left(a)) {
        neighborhood.insert(b);
      }
    }
    EXPECT_LT(neighborhood.size(), violator.size());
  }
  EXPECT_GT(deficient_seen, 20);  // the sweep actually exercised the path
}

// ----------------------------------------------------------------- MaxFlow

TEST(MaxFlow, SingleEdgeCapacity) {
  MaxFlow flow(2);
  flow.add_edge(0, 1, 7);
  EXPECT_EQ(flow.max_flow(0, 1), 7);
}

TEST(MaxFlow, SeriesBottleneck) {
  MaxFlow flow(3);
  flow.add_edge(0, 1, 10);
  flow.add_edge(1, 2, 4);
  EXPECT_EQ(flow.max_flow(0, 2), 4);
}

TEST(MaxFlow, ParallelPathsAdd) {
  MaxFlow flow(4);
  flow.add_edge(0, 1, 3);
  flow.add_edge(1, 3, 3);
  flow.add_edge(0, 2, 5);
  flow.add_edge(2, 3, 5);
  EXPECT_EQ(flow.max_flow(0, 3), 8);
}

TEST(MaxFlow, ClassicTextbookNetwork) {
  // CLRS-style example with a known max flow of 23.
  MaxFlow flow(6);
  flow.add_edge(0, 1, 16);
  flow.add_edge(0, 2, 13);
  flow.add_edge(1, 2, 10);
  flow.add_edge(2, 1, 4);
  flow.add_edge(1, 3, 12);
  flow.add_edge(3, 2, 9);
  flow.add_edge(2, 4, 14);
  flow.add_edge(4, 3, 7);
  flow.add_edge(3, 5, 20);
  flow.add_edge(4, 5, 4);
  EXPECT_EQ(flow.max_flow(0, 5), 23);
}

TEST(MaxFlow, FlowOnReportsPerEdgeFlow) {
  MaxFlow flow(3);
  const auto e1 = flow.add_edge(0, 1, 5);
  const auto e2 = flow.add_edge(1, 2, 3);
  EXPECT_EQ(flow.max_flow(0, 2), 3);
  EXPECT_EQ(flow.flow_on(e1), 3);
  EXPECT_EQ(flow.flow_on(e2), 3);
}

TEST(MaxFlow, DisconnectedIsZero) {
  MaxFlow flow(4);
  flow.add_edge(0, 1, 5);
  flow.add_edge(2, 3, 5);
  EXPECT_EQ(flow.max_flow(0, 3), 0);
}

TEST(MaxFlow, RejectsBadArguments) {
  MaxFlow flow(2);
  EXPECT_THROW(flow.add_edge(0, 5, 1), ContractViolation);
  EXPECT_THROW(flow.add_edge(0, 1, -1), ContractViolation);
  EXPECT_THROW(flow.max_flow(0, 0), ContractViolation);
}

// ------------------------------------------------------------------- Graph

TEST(Graph, BfsDistancesOnPath) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist, (std::vector<std::int32_t>{0, 1, 2, 3}));
}

TEST(Graph, BfsUnreachableIsMinusOne) {
  Graph g(3);
  g.add_edge(0, 1);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[2], -1);
}

TEST(Graph, ShortestPathEndpoints) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 3);
  g.add_edge(3, 4);
  g.add_edge(4, 2);
  const auto path = shortest_path(g, 0, 2);
  ASSERT_EQ(path.size(), 3u);  // 0-1-2 beats 0-3-4-2
  EXPECT_EQ(path.front(), 0);
  EXPECT_EQ(path.back(), 2);
}

TEST(Graph, ShortestPathToSelf) {
  Graph g(2);
  g.add_edge(0, 1);
  EXPECT_EQ(shortest_path(g, 1, 1), (std::vector<std::int32_t>{1}));
}

TEST(Graph, ShortestPathEmptyWhenDisconnected) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_TRUE(shortest_path(g, 0, 2).empty());
}

TEST(Graph, ConnectedComponents) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  const auto components = connected_components(g);
  ASSERT_EQ(components.size(), 3u);
  EXPECT_EQ(components[0], (std::vector<std::int32_t>{0, 1, 2}));
  EXPECT_EQ(components[1], (std::vector<std::int32_t>{3, 4}));
  EXPECT_EQ(components[2], (std::vector<std::int32_t>{5}));
}

TEST(Graph, IsConnected) {
  Graph connected(3);
  connected.add_edge(0, 1);
  connected.add_edge(1, 2);
  EXPECT_TRUE(is_connected(connected));
  Graph disconnected(3);
  disconnected.add_edge(0, 1);
  EXPECT_FALSE(is_connected(disconnected));
  EXPECT_TRUE(is_connected(Graph(0)));
}

TEST(Graph, RejectsSelfLoops) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(1, 1), ContractViolation);
}

// ----------------------------------------------------------- covering_walk

TEST(CoveringWalk, VisitsEveryReachableVertex) {
  Graph g(7);
  for (int i = 0; i + 1 < 7; ++i) g.add_edge(i, i + 1);
  const auto walk = covering_walk(g, 0);
  std::set<std::int32_t> visited(walk.begin(), walk.end());
  EXPECT_EQ(visited.size(), 7u);
}

TEST(CoveringWalk, ConsecutiveVerticesAdjacent) {
  Rng rng(0xC0FFEE);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = rng.uniform_int(2, 20);
    Graph g(n);
    std::set<std::pair<int, int>> edges;
    // random connected graph: a random spanning tree plus extras
    for (int v = 1; v < n; ++v) {
      const int u = rng.uniform_int(0, v - 1);
      g.add_edge(u, v);
      edges.insert({u, v});
    }
    for (int extra = 0; extra < n / 2; ++extra) {
      const int u = rng.uniform_int(0, n - 1);
      const int v = rng.uniform_int(0, n - 1);
      if (u != v && !edges.contains({std::min(u, v), std::max(u, v)})) {
        g.add_edge(u, v);
        edges.insert({std::min(u, v), std::max(u, v)});
      }
    }
    const auto walk = covering_walk(g, 0);
    std::set<std::int32_t> visited(walk.begin(), walk.end());
    EXPECT_EQ(visited.size(), static_cast<std::size_t>(n));
    for (std::size_t i = 1; i < walk.size(); ++i) {
      const auto nbrs = g.neighbors(walk[i - 1]);
      EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), walk[i]), nbrs.end());
    }
  }
}

TEST(CoveringWalk, LengthBounded) {
  Graph g(10);
  for (int i = 0; i + 1 < 10; ++i) g.add_edge(i, i + 1);
  const auto walk = covering_walk(g, 0);
  EXPECT_LE(walk.size(), 2u * 10u);
}

TEST(CoveringWalk, SingleVertex) {
  const Graph g(1);
  EXPECT_EQ(covering_walk(g, 0), (std::vector<std::int32_t>{0}));
}

TEST(CoveringWalk, OnlyReachableComponent) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(3, 4);
  const auto walk = covering_walk(g, 0);
  const std::set<std::int32_t> visited(walk.begin(), walk.end());
  EXPECT_EQ(visited, (std::set<std::int32_t>{0, 1}));
}

}  // namespace
}  // namespace dmfb::graph

// Appended: the allocation-free CSR matcher used by the sim hot path.
#include "graph/csr_matching.hpp"

namespace dmfb::graph {
namespace {

CsrBipartiteGraph to_csr(const BipartiteGraph& g) {
  CsrBipartiteGraph csr;
  for (std::int32_t a = 0; a < g.left_count(); ++a) {
    csr.open_row();
    for (const std::int32_t b : g.neighbors_of_left(a)) csr.add_edge(b);
  }
  return csr;
}

TEST(CsrMatcher, EmptyGraphCoversTrivially) {
  CsrBipartiteGraph g;
  CsrMatcher matcher;
  EXPECT_EQ(matcher.maximum_matching_size(g), 0);
  EXPECT_TRUE(matcher.covers_all_left(g));
}

TEST(CsrMatcher, AgreesWithLegacyEnginesOnRandomGraphs) {
  Rng rng(0xC5A);
  CsrMatcher matcher;  // deliberately reused across instances
  for (int trial = 0; trial < 60; ++trial) {
    const auto left = rng.uniform_int(0, 12);
    const auto right = rng.uniform_int(0, 12);
    const BipartiteGraph g =
        random_bipartite(rng, left, right, rng.uniform01());
    const std::int32_t size = matcher.maximum_matching_size(to_csr(g));
    for (const MatchingEngine engine : kEngines) {
      EXPECT_EQ(size, maximum_matching(g, engine).size)
          << "trial=" << trial << " engine=" << to_string(engine);
    }
  }
}

TEST(CsrMatcher, MatchOfLeftIsAValidMatching) {
  Rng rng(0x5EED);
  CsrMatcher matcher;
  for (int trial = 0; trial < 30; ++trial) {
    const BipartiteGraph g = random_bipartite(rng, 10, 8, 0.3);
    const CsrBipartiteGraph csr = to_csr(g);
    const std::int32_t size = matcher.maximum_matching_size(csr);
    const auto match = matcher.match_of_left();
    ASSERT_EQ(match.size(), static_cast<std::size_t>(csr.left_count()));
    std::set<std::int32_t> used;
    std::int32_t matched = 0;
    for (std::int32_t a = 0; a < csr.left_count(); ++a) {
      const std::int32_t b = match[static_cast<std::size_t>(a)];
      if (b == MatchingResult::kUnmatched) continue;
      ++matched;
      EXPECT_TRUE(used.insert(b).second) << "right vertex matched twice";
      const auto nbrs = csr.neighbors_of_left(a);
      EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), b), nbrs.end());
    }
    EXPECT_EQ(matched, size);
  }
}

TEST(CsrBipartiteGraph, ClearRewindsWithoutShrinking) {
  CsrBipartiteGraph g;
  g.open_row();
  g.add_edge(4);
  g.add_edge(2);
  EXPECT_EQ(g.left_count(), 1);
  EXPECT_EQ(g.right_count(), 5);
  EXPECT_EQ(g.open_row_degree(), 2);
  g.clear();
  EXPECT_EQ(g.left_count(), 0);
  EXPECT_EQ(g.right_count(), 0);
  EXPECT_EQ(g.edge_count(), 0);
  g.open_row();
  EXPECT_EQ(g.open_row_degree(), 0);
  g.add_edge(0);
  EXPECT_EQ(g.right_count(), 1);
  EXPECT_EQ(g.neighbors_of_left(0).size(), 1u);
}

}  // namespace
}  // namespace dmfb::graph
