#include "graph/shortest_path.hpp"

#include <algorithm>
#include <queue>

namespace eend::graph {

std::vector<NodeId> ShortestPathTree::path_to(NodeId v) const {
  if (!reachable(v)) return {};
  std::vector<NodeId> rev;
  for (NodeId cur = v; cur != kInvalidNode; cur = parent[cur]) {
    rev.push_back(cur);
    if (cur == source) break;
  }
  std::reverse(rev.begin(), rev.end());
  EEND_CHECK(!rev.empty() && rev.front() == source);
  return rev;
}

namespace {
ShortestPathTree make_tree(const Graph& g, NodeId source) {
  EEND_REQUIRE(g.valid_node(source));
  ShortestPathTree t;
  t.source = source;
  t.distance.assign(g.node_count(), kInfCost);
  t.parent.assign(g.node_count(), kInvalidNode);
  t.distance[source] = 0.0;
  return t;
}
}  // namespace

ShortestPathTree dijkstra(const Graph& g, NodeId source,
                          std::span<const char> allowed, NodeId target) {
  ShortestPathTree t = make_tree(g, source);
  EEND_REQUIRE(allowed.empty() || allowed.size() == g.node_count());
  using Item = std::pair<double, NodeId>;  // (distance, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  pq.emplace(0.0, source);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > t.distance[u]) continue;  // stale entry
    if (u == target) break;           // settled: its path is final
    for (const auto& [v, e] : g.neighbors(u)) {
      if (!allowed.empty() && !allowed[v]) continue;
      const double w = g.edge(e).weight;
      EEND_CHECK_MSG(w >= 0.0, "Dijkstra requires non-negative weights");
      const double nd = d + w;
      if (nd < t.distance[v]) {
        t.distance[v] = nd;
        t.parent[v] = u;
        pq.emplace(nd, v);
      }
    }
  }
  return t;
}

ShortestPathTree bellman_ford(const Graph& g, NodeId source) {
  ShortestPathTree t = make_tree(g, source);
  const std::size_t n = g.node_count();
  for (std::size_t round = 0; round + 1 < n; ++round) {
    bool changed = false;
    for (const Edge& e : g.edges()) {
      auto relax = [&](NodeId from, NodeId to) {
        if (t.distance[from] == kInfCost) return;
        const double nd = t.distance[from] + e.weight;
        if (nd < t.distance[to]) {
          t.distance[to] = nd;
          t.parent[to] = from;
          changed = true;
        }
      };
      relax(e.u, e.v);
      relax(e.v, e.u);
    }
    if (!changed) break;
  }
  return t;
}

double path_cost(const Graph& g, std::span<const NodeId> path) {
  if (path.size() < 2) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const double w = g.edge_weight_between(path[i], path[i + 1]);
    if (w == kInfCost) return kInfCost;
    total += w;
  }
  return total;
}

}  // namespace eend::graph
