// BFS ball extraction + Subgraph invariants, including the exactness
// preconditions MeLoPPR relies on (DESIGN.md invariant 2).
#include "graph/bfs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/paper_graphs.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace meloppr::graph {
namespace {

TEST(ExtractBall, PathGraphDepths) {
  Graph g = fixtures::path(10);
  Subgraph ball = extract_ball(g, 5, 2);
  EXPECT_EQ(ball.num_nodes(), 5u);  // 3,4,5,6,7
  EXPECT_EQ(ball.root_global(), 5u);
  EXPECT_EQ(ball.depth(0), 0u);
  EXPECT_EQ(ball.radius(), 2u);
  EXPECT_NO_THROW(ball.validate());
  // Depth-2 frontier: global nodes 3 and 7.
  EXPECT_EQ(ball.frontier_count(), 2u);
}

TEST(ExtractBall, RadiusZeroIsJustTheSeed) {
  Graph g = fixtures::star(5);
  Subgraph ball = extract_ball(g, 1, 0);
  EXPECT_EQ(ball.num_nodes(), 1u);
  EXPECT_EQ(ball.num_edges(), 0u);
  EXPECT_EQ(ball.global_degree(0), 1u);  // global degree preserved
}

TEST(ExtractBall, StarFromCenterCoversAll) {
  Graph g = fixtures::star(8);
  Subgraph ball = extract_ball(g, 0, 1);
  EXPECT_EQ(ball.num_nodes(), 8u);
  EXPECT_EQ(ball.num_edges(), 7u);
}

TEST(ExtractBall, RejectsBadSeeds) {
  GraphBuilder b(5);
  b.add_edge(0, 1);
  Graph g = b.build();
  EXPECT_THROW(extract_ball(g, 99, 2), std::invalid_argument);
  EXPECT_THROW(extract_ball(g, 3, 2), std::invalid_argument);  // isolated
}

TEST(ExtractBall, InteriorNodesKeepFullAdjacency) {
  Rng rng(7);
  Graph g = barabasi_albert(500, 2, 3, rng);
  Subgraph ball = extract_ball(g, 17, 3);
  for (NodeId local = 0; local < ball.num_nodes(); ++local) {
    if (ball.depth(local) < ball.radius()) {
      EXPECT_EQ(ball.local_degree(local), ball.global_degree(local))
          << "interior local " << local;
    } else {
      EXPECT_LE(ball.local_degree(local), ball.global_degree(local));
    }
  }
}

TEST(ExtractBall, MembershipMatchesBfsOracle) {
  Rng rng(8);
  Graph g = erdos_renyi(300, 900, rng);
  const NodeId seed = 42;
  for (unsigned radius : {0u, 1u, 2u, 3u}) {
    if (g.degree(seed) == 0) break;
    Subgraph ball = extract_ball(g, seed, radius);
    std::vector<NodeId> oracle = bfs_nodes(g, seed, radius);
    std::set<NodeId> oracle_set(oracle.begin(), oracle.end());
    ASSERT_EQ(ball.num_nodes(), oracle_set.size()) << "radius " << radius;
    for (NodeId local = 0; local < ball.num_nodes(); ++local) {
      EXPECT_TRUE(oracle_set.count(ball.to_global(local)) != 0);
    }
  }
}

TEST(ExtractBall, DepthMatchesBoundedDistance) {
  Rng rng(9);
  Graph g = barabasi_albert(400, 1, 2, rng);
  const NodeId seed = 11;
  Subgraph ball = extract_ball(g, seed, 4);
  for (NodeId local = 0; local < ball.num_nodes(); ++local) {
    const int dist = bounded_distance(g, seed, ball.to_global(local), 10);
    EXPECT_EQ(dist, static_cast<int>(ball.depth(local)));
  }
}

TEST(ExtractBall, EdgesAreInducedEdges) {
  Rng rng(10);
  Graph g = erdos_renyi(200, 600, rng);
  Subgraph ball = extract_ball(g, 5, 2);
  for (NodeId lu = 0; lu < ball.num_nodes(); ++lu) {
    const NodeId gu = ball.to_global(lu);
    for (NodeId lw : ball.neighbors(lu)) {
      EXPECT_TRUE(g.has_edge(gu, ball.to_global(lw)));
    }
  }
}

TEST(ExtractBall, StatsReportVisitedWork) {
  Graph g = fixtures::complete(6);
  BfsStats stats;
  Subgraph ball = extract_ball(g, 0, 1, &stats);
  EXPECT_EQ(stats.nodes_visited, 6u);
  EXPECT_EQ(stats.arcs_scanned, 5u);  // only the seed expands at radius 1
}

/// Independent ball builder: std::map global→local index, neighbors
/// visited in adjacency order, induced rows collected after the BFS.
struct ReferenceBall {
  std::vector<NodeId> local_to_global;
  std::vector<std::uint16_t> depth;
  std::vector<std::uint32_t> global_degree;
  std::vector<std::vector<NodeId>> rows;  ///< sorted local ids
  BfsStats stats;
};

ReferenceBall reference_ball(const Graph& g, NodeId seed, unsigned radius) {
  ReferenceBall ref;
  std::map<NodeId, NodeId> local_of;
  local_of.emplace(seed, 0);
  ref.local_to_global.push_back(seed);
  ref.depth.push_back(0);
  for (std::size_t cursor = 0; cursor < ref.local_to_global.size();
       ++cursor) {
    if (ref.depth[cursor] >= radius) continue;
    for (NodeId w : g.neighbors(ref.local_to_global[cursor])) {
      ++ref.stats.arcs_scanned;
      const auto next = static_cast<NodeId>(ref.local_to_global.size());
      if (local_of.emplace(w, next).second) {
        ref.local_to_global.push_back(w);
        ref.depth.push_back(static_cast<std::uint16_t>(ref.depth[cursor] + 1));
      }
    }
  }
  for (const NodeId gu : ref.local_to_global) {
    ref.global_degree.push_back(static_cast<std::uint32_t>(g.degree(gu)));
    std::vector<NodeId> row;
    for (NodeId gw : g.neighbors(gu)) {
      const auto it = local_of.find(gw);
      if (it != local_of.end()) row.push_back(it->second);
    }
    std::sort(row.begin(), row.end());
    ref.rows.push_back(std::move(row));
  }
  ref.stats.nodes_visited = ref.local_to_global.size();
  return ref;
}

/// Compares extract_ball against reference_ball array by array; returns
/// the ball size so callers can assert coverage.
std::size_t expect_matches_reference(const Graph& g, NodeId seed,
                                     unsigned radius) {
  SCOPED_TRACE(::testing::Message() << "seed " << seed << " radius "
                                    << radius);
  const ReferenceBall ref = reference_ball(g, seed, radius);
  BfsStats stats;
  const Subgraph ball = extract_ball(g, seed, radius, &stats);
  EXPECT_EQ(ball.local_to_global(), ref.local_to_global);
  EXPECT_EQ(stats.nodes_visited, ref.stats.nodes_visited);
  EXPECT_EQ(stats.arcs_scanned, ref.stats.arcs_scanned);
  EXPECT_EQ(ball.radius(), radius);
  if (ball.num_nodes() != ref.local_to_global.size()) return 0;
  for (NodeId v = 0; v < ball.num_nodes(); ++v) {
    EXPECT_EQ(ball.depth(v), ref.depth[v]) << "local " << v;
    EXPECT_EQ(ball.global_degree(v), ref.global_degree[v]) << "local " << v;
    const auto adj = ball.neighbors(v);
    EXPECT_EQ(std::vector<NodeId>(adj.begin(), adj.end()), ref.rows[v])
        << "local " << v;
  }
  return ball.num_nodes();
}

TEST(ExtractBall, MatchesReferenceBuilderBitwise) {
  Rng rng(21);
  const Graph er = erdos_renyi(2000, 6000, rng);
  const Graph ba = barabasi_albert(2000, 1, 3, rng);
  const Graph path = fixtures::path(50);
  for (const Graph* g : {&er, &ba, &path}) {
    for (int trial = 0; trial < 4; ++trial) {
      const NodeId seed = random_seed_node(*g, rng);
      for (unsigned radius = 0; radius <= 4; ++radius) {
        expect_matches_reference(*g, seed, radius);
      }
    }
  }

  // A hub of a large BA graph: its radius-3 ball has more than 10k
  // members, so the global→local index doubles many times mid-BFS.
  const Graph big = barabasi_albert(30000, 2, 2, rng);
  NodeId hub = 0;
  for (NodeId v = 1; v < big.num_nodes(); ++v) {
    if (big.degree(v) > big.degree(hub)) hub = v;
  }
  std::size_t largest = 0;
  for (unsigned radius = 0; radius <= 4; ++radius) {
    largest = std::max(largest, expect_matches_reference(big, hub, radius));
  }
  EXPECT_GT(largest, 10000u);
}

TEST(ExtractBall, ScratchReuseMatchesReferenceBuilder) {
  // build_ball() assembles every ball in per-thread scratch: a large ball,
  // then a small one, then the large one again on one thread must each
  // match the reference builder, so nothing of one ball leaks into the next.
  Rng rng(22);
  const Graph big = barabasi_albert(30000, 2, 2, rng);
  NodeId hub = 0;
  for (NodeId v = 1; v < big.num_nodes(); ++v) {
    if (big.degree(v) > big.degree(hub)) hub = v;
  }
  const Graph path = fixtures::path(50);
  const std::size_t large = expect_matches_reference(big, hub, 3);
  const std::size_t small = expect_matches_reference(path, 25, 2);
  EXPECT_EQ(expect_matches_reference(big, hub, 3), large);
  EXPECT_GT(large, 10000u);
  EXPECT_EQ(small, 5u);
}

TEST(Subgraph, ToLocalRoundTripAndMisses) {
  Graph g = fixtures::path(10);
  Subgraph ball = extract_ball(g, 5, 2);
  for (NodeId local = 0; local < ball.num_nodes(); ++local) {
    EXPECT_EQ(ball.to_local(ball.to_global(local)), local);
  }
  EXPECT_EQ(ball.to_local(0), kInvalidNode);  // node 0 is outside radius 2
  EXPECT_FALSE(ball.contains(9));
  EXPECT_TRUE(ball.contains(4));
}

TEST(Subgraph, BytesGrowWithBallSize) {
  Graph g = fixtures::complete(20);
  Subgraph small = extract_ball(g, 0, 0);
  Subgraph large = extract_ball(g, 0, 1);
  EXPECT_LT(small.bytes(), large.bytes());
}

TEST(Subgraph, SummaryContainsRootAndSize) {
  Graph g = fixtures::cycle(8);
  Subgraph ball = extract_ball(g, 3, 2);
  const std::string s = ball.summary();
  EXPECT_NE(s.find("root=3"), std::string::npos);
  EXPECT_NE(s.find("|V|=5"), std::string::npos);
}

TEST(BoundedDistance, ReportsUnreachable) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  Graph g = b.build();
  EXPECT_EQ(bounded_distance(g, 0, 1, 5), 1);
  EXPECT_EQ(bounded_distance(g, 0, 3, 5), -1);
  EXPECT_EQ(bounded_distance(g, 0, 0, 5), 0);
}

TEST(BoundedDistance, RespectsRadiusCap) {
  Graph g = fixtures::path(10);
  EXPECT_EQ(bounded_distance(g, 0, 4, 3), -1);
  EXPECT_EQ(bounded_distance(g, 0, 4, 4), 4);
}

/// Ball-growth sanity on paper-like graphs: the depth-3 ball must be much
/// smaller than the depth-6 ball — the memory gap MeLoPPR exploits.
class BallGrowth : public ::testing::TestWithParam<PaperGraphId> {};

TEST_P(BallGrowth, HalfDepthBallIsMuchSmaller) {
  Rng rng(13);
  Graph g = make_paper_graph(GetParam(), rng, 1.0);
  std::size_t shrink_wins = 0;
  const std::size_t trials = 5;
  for (std::size_t i = 0; i < trials; ++i) {
    const NodeId seed = random_seed_node(g, rng);
    Subgraph b3 = extract_ball(g, seed, 3);
    Subgraph b6 = extract_ball(g, seed, 6);
    EXPECT_LE(b3.num_nodes(), b6.num_nodes());
    if (b3.bytes() * 2 <= b6.bytes()) ++shrink_wins;
  }
  // At least most seeds should show a substantial gap on these graphs.
  EXPECT_GE(shrink_wins, trials - 1);
}

INSTANTIATE_TEST_SUITE_P(
    SmallGraphs, BallGrowth,
    ::testing::ValuesIn(small_paper_graphs()),
    [](const ::testing::TestParamInfo<PaperGraphId>& info) {
      return spec_for(info.param).label;
    });

}  // namespace
}  // namespace meloppr::graph
