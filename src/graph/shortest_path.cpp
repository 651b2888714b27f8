#include "graph/shortest_path.hpp"

#include <algorithm>
#include <functional>
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

ShortestPathTree dijkstra(const Graph& g, NodeId source) {
  ShortestPathTree t = make_tree(g, source);
  using Item = std::pair<double, NodeId>;  // (distance, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  pq.emplace(0.0, source);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > t.distance[u]) continue;  // stale entry
    for (const auto& [v, e] : g.neighbors(u)) {
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

void SubgraphRouter::restrict_to(const Graph& g,
                                 std::span<const NodeId> allowed) {
  const std::size_t n = g.node_count();
  if (local_of_.size() != n) {
    local_of_.assign(n, kInvalidNode);
  } else {
    for (NodeId v : global_) local_of_[v] = kInvalidNode;
  }
  g_ = &g;
  arcs_built_ = false;
  global_.clear();
  if (allowed.empty()) {
    for (NodeId v = 0; v < n; ++v) global_.push_back(v);
  } else {
    global_.assign(allowed.begin(), allowed.end());
    std::sort(global_.begin(), global_.end());
    global_.erase(std::unique(global_.begin(), global_.end()), global_.end());
    const NodeId top = global_.back();
    if (top >= n) global_.clear();  // keep the reset list in range
    EEND_REQUIRE_MSG(top < n, "allowed node " << top << " is not in the graph");
  }
  for (std::size_t i = 0; i < global_.size(); ++i)
    local_of_[global_[i]] = static_cast<NodeId>(i);
}

void SubgraphRouter::build_arcs() {
  arc_begin_.clear();
  arcs_.clear();
  for (NodeId u : global_) {
    arc_begin_.push_back(arcs_.size());
    for (const auto& [v, e] : g_->neighbors(u)) {
      const NodeId lv = local_of_[v];
      if (lv == kInvalidNode) continue;
      const double w = g_->edge(e).weight;
      EEND_CHECK_MSG(w >= 0.0, "Dijkstra requires non-negative weights");
      arcs_.push_back(Arc{lv, e, w});
    }
  }
  arc_begin_.push_back(arcs_.size());
  const std::size_t m = global_.size();
  dist_.resize(m);
  parent_.resize(m);
  parent_edge_.resize(m);
  arcs_built_ = true;
}

bool SubgraphRouter::route(NodeId source, NodeId target,
                           std::vector<NodeId>& path,
                           std::vector<EdgeId>& edges) {
  const NodeId s = local_id(source);
  const NodeId t = local_id(target);
  EEND_REQUIRE_MSG(s != kInvalidNode && t != kInvalidNode,
                   "route endpoints must be in the allowed set");
  if (!arcs_built_) build_arcs();
  runs.add();
  std::fill(dist_.begin(), dist_.end(), kInfCost);
  dist_[s] = 0.0;
  // Same heap discipline as dijkstra(): (distance, id) pairs are unique, so
  // the pop sequence is fixed by their order alone.
  const std::greater<> later;
  heap_.clear();
  heap_.emplace_back(0.0, s);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const auto [d, u] = heap_.back();
    heap_.pop_back();
    if (d > dist_[u]) continue;  // stale entry
    settled.add();
    if (u == t) break;  // settled: its path is final
    for (std::size_t a = arc_begin_[u]; a < arc_begin_[u + 1]; ++a) {
      const Arc& arc = arcs_[a];
      const double nd = d + arc.weight;
      if (nd < dist_[arc.to]) {
        dist_[arc.to] = nd;
        parent_[arc.to] = u;
        parent_edge_[arc.to] = arc.edge;
        heap_.emplace_back(nd, arc.to);
        std::push_heap(heap_.begin(), heap_.end(), later);
      }
    }
  }
  if (dist_[t] == kInfCost) return false;
  path.clear();
  edges.clear();
  for (NodeId cur = t; cur != s; cur = parent_[cur]) {
    path.push_back(global_[cur]);
    edges.push_back(parent_edge_[cur]);
  }
  path.push_back(source);
  std::reverse(path.begin(), path.end());
  std::reverse(edges.begin(), edges.end());
  return true;
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
