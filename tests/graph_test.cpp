// Unit tests: graph container, shortest paths, MST, connectivity.
#include <gtest/gtest.h>

#include "graph/connectivity.hpp"
#include "graph/graph.hpp"
#include "graph/mst.hpp"
#include "graph/shortest_path.hpp"

namespace eend::graph {
namespace {

Graph triangle() {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(0, 2, 4.0);
  return g;
}

TEST(Graph, BasicConstruction) {
  Graph g(3);
  EXPECT_EQ(g.node_count(), 3u);
  const EdgeId e = g.add_edge(0, 1, 2.5);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_DOUBLE_EQ(g.edge(e).weight, 2.5);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 0u);
}

TEST(Graph, AddNodeGrows) {
  Graph g;
  const NodeId a = g.add_node(1.5);
  const NodeId b = g.add_node();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_DOUBLE_EQ(g.node_weight(a), 1.5);
  EXPECT_DOUBLE_EQ(g.node_weight(b), 0.0);
  g.set_node_weight(b, 3.0);
  EXPECT_DOUBLE_EQ(g.node_weight(b), 3.0);
}

TEST(Graph, EdgeOther) {
  Graph g(2);
  const EdgeId e = g.add_edge(0, 1);
  EXPECT_EQ(g.edge(e).other(0), 1u);
  EXPECT_EQ(g.edge(e).other(1), 0u);
}

TEST(Graph, InvalidEdgesThrow) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 0), CheckError);         // self loop
  EXPECT_THROW(g.add_edge(0, 5), CheckError);         // bad node
  EXPECT_THROW(g.add_edge(0, 1, -1.0), CheckError);   // negative weight
}

TEST(Graph, ParallelEdgesPickMinWeight) {
  Graph g(2);
  g.add_edge(0, 1, 5.0);
  g.add_edge(0, 1, 2.0);
  EXPECT_DOUBLE_EQ(g.edge_weight_between(0, 1), 2.0);
}

TEST(Dijkstra, TriangleShortestPath) {
  const Graph g = triangle();
  const auto t = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(t.distance[2], 3.0);  // 0->1->2 beats direct 4.0
  EXPECT_EQ(t.path_to(2), (std::vector<NodeId>{0, 1, 2}));
}

TEST(Dijkstra, UnreachableNodes) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const auto t = dijkstra(g, 0);
  EXPECT_FALSE(t.reachable(2));
  EXPECT_TRUE(t.path_to(2).empty());
}

TEST(Dijkstra, MaskedNodesAreNeverEntered) {
  // 0-1-2 is the cheap route, 0-3-2 the dear one. Masking node 1 forces the
  // detour and leaves node 1 unreached.
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 3, 2.0);
  g.add_edge(3, 2, 2.0);
  EXPECT_EQ(dijkstra(g, 0).path_to(2), (std::vector<NodeId>{0, 1, 2}));
  SubgraphRouter router;
  const std::vector<NodeId> allowed{3, 0, 2};
  router.restrict_to(g, allowed);
  EXPECT_FALSE(router.contains(1));
  std::vector<NodeId> path;
  std::vector<EdgeId> edges;
  ASSERT_TRUE(router.route(0, 2, path, edges));
  EXPECT_EQ(path, (std::vector<NodeId>{0, 3, 2}));
  EXPECT_EQ(edges, (std::vector<EdgeId>{2, 3}));
  // Node 1 is never entered, so it cannot even be an endpoint.
  EXPECT_THROW(router.route(0, 1, path, edges), CheckError);
  // Without node 3 the two halves are disconnected.
  const std::vector<NodeId> split{0, 2};
  router.restrict_to(g, split);
  EXPECT_FALSE(router.route(0, 2, path, edges));
  EXPECT_EQ(router.runs.value(), obs::kEnabled ? 2u : 0u);
}

TEST(BellmanFord, MatchesDijkstraOnTriangle) {
  const Graph g = triangle();
  const auto d = dijkstra(g, 0);
  const auto b = bellman_ford(g, 0);
  for (NodeId v = 0; v < 3; ++v)
    EXPECT_DOUBLE_EQ(d.distance[v], b.distance[v]);
}

TEST(PathCost, SumsEdges) {
  const Graph g = triangle();
  const std::vector<NodeId> path{0, 1, 2};
  EXPECT_DOUBLE_EQ(path_cost(g, path), 3.0);
  EXPECT_EQ(path_hops(path), 2u);
  const std::vector<NodeId> broken{2, 0, 1};
  EXPECT_DOUBLE_EQ(path_cost(g, broken), 5.0);
}

TEST(Mst, TriangleTakesCheapEdges) {
  const Graph g = triangle();
  const auto m = prim_mst(g);
  EXPECT_TRUE(m.connected);
  EXPECT_EQ(m.edges.size(), 2u);
  EXPECT_DOUBLE_EQ(m.total_weight, 3.0);
}

TEST(Mst, DisconnectedGraphReported) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  const auto m = prim_mst(g, 0);
  EXPECT_FALSE(m.connected);
  EXPECT_EQ(m.edges.size(), 1u);
}

TEST(Mst, EmptyGraph) {
  Graph g;
  const auto m = prim_mst(g);
  EXPECT_TRUE(m.connected);
  EXPECT_TRUE(m.edges.empty());
}

TEST(Connectivity, Components) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  const auto c = connected_components(g);
  EXPECT_EQ(c.count, 2u);
  EXPECT_TRUE(c.same(0, 2));
  EXPECT_FALSE(c.same(0, 3));
  EXPECT_FALSE(is_connected(g));
  g.add_edge(2, 3);
  EXPECT_TRUE(is_connected(g));
}

TEST(Connectivity, DemandsSatisfiableRespectsActiveSet) {
  Graph g(4);  // chain 0-1-2-3
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const std::vector<Demand> demands{{0, 3, 1.0}};
  std::vector<bool> all(4, true);
  EXPECT_TRUE(demands_satisfiable(g, demands, all));
  std::vector<bool> cut = all;
  cut[2] = false;  // relay removed
  EXPECT_FALSE(demands_satisfiable(g, demands, cut));
}

TEST(Connectivity, BfsHops) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const auto d = bfs_hops(g, 0);
  EXPECT_EQ(d[0], 0u);
  EXPECT_EQ(d[3], 3u);
}

}  // namespace
}  // namespace eend::graph
