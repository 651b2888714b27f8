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
  // One spare slot for set_move()'s added node.
  const std::size_t m = global_.size();
  dist_.resize(m + 1);
  parent_.resize(m + 1);
  parent_edge_.resize(m + 1);
  joins_added_.assign(m, 0);
  added_arcs_.clear();
  removed_local_ = kInvalidNode;
  added_ = kInvalidNode;
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
  return search<false>(s, t, path, edges);
}

template <bool kMove>
bool SubgraphRouter::search(NodeId s, NodeId t, std::vector<NodeId>& path,
                            std::vector<EdgeId>& edges) {
  runs.add();
  // Heap keys: the local id on A; on the variant, whose `added` has local
  // id m, a rank (2l + 1, or added_rank_ for `added`) that orders nodes as
  // their global ids do. Either way (distance, key) pairs are unique and
  // pop in dijkstra()'s (distance, id) order.
  const NodeId m = static_cast<NodeId>(node_count());
  const auto key_of = [&](NodeId l) -> NodeId {
    if constexpr (kMove) return l == m ? added_rank_ : 2 * l + 1;
    return l;
  };
  const auto node_of = [&](NodeId key) -> NodeId {
    if constexpr (kMove) return (key & 1) ? key >> 1 : m;
    return key;
  };
  std::fill(dist_.begin(), dist_.end(), kInfCost);
  dist_[s] = 0.0;
  const std::greater<> later;
  heap_.clear();
  heap_.emplace_back(0.0, key_of(s));
  const auto relax = [&](double d, NodeId u, NodeId v, const Arc& arc) {
    const double nd = d + arc.weight;
    if (nd < dist_[v]) {
      dist_[v] = nd;
      parent_[v] = u;
      parent_edge_[v] = arc.edge;
      heap_.emplace_back(nd, key_of(v));
      std::push_heap(heap_.begin(), heap_.end(), later);
    }
  };
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const auto [d, key] = heap_.back();
    heap_.pop_back();
    const NodeId u = node_of(key);
    if (d > dist_[u]) continue;  // stale entry
    settled.add();
    if (u == t) break;  // settled: its path is final
    if constexpr (kMove) {
      if (u == m) {
        for (const Arc& arc : added_arcs_) relax(d, u, arc.to, arc);
        continue;
      }
    }
    for (std::size_t a = arc_begin_[u]; a < arc_begin_[u + 1]; ++a)
      if (!kMove || arcs_[a].to != removed_local_)
        relax(d, u, arcs_[a].to, arcs_[a]);
    if constexpr (kMove) {
      // Only u's arcs to `added` can matter among themselves: arcs to
      // different nodes relax independently, so appending them keeps paths.
      if (joins_added_[u])
        for (const Arc& arc : added_arcs_)
          if (arc.to == u) relax(d, u, m, arc);
    }
  }
  if (dist_[t] == kInfCost) return false;
  trace_back(s, t, path, edges);
  return true;
}

void SubgraphRouter::trace_back(NodeId s, NodeId t, std::vector<NodeId>& path,
                                std::vector<EdgeId>& edges) const {
  const NodeId m = static_cast<NodeId>(node_count());
  path.clear();
  edges.clear();
  for (NodeId cur = t;; cur = parent_[cur]) {
    path.push_back(cur == m ? added_ : global_[cur]);
    if (cur == s) break;
    edges.push_back(parent_edge_[cur]);
  }
  std::reverse(path.begin(), path.end());
  std::reverse(edges.begin(), edges.end());
}

void SubgraphRouter::set_move(NodeId removed, NodeId added) {
  if (!arcs_built_) build_arcs();
  for (const Arc& arc : added_arcs_) joins_added_[arc.to] = 0;
  added_arcs_.clear();
  removed_local_ = kInvalidNode;
  added_ = kInvalidNode;
  if (removed != kInvalidNode) {
    EEND_REQUIRE_MSG(contains(removed), "removed node must be in the set");
    removed_local_ = local_of_[removed];
  }
  if (added == kInvalidNode) return;
  EEND_REQUIRE_MSG(added < local_of_.size() && !contains(added),
                   "added node must be a graph node outside the set");
  added_ = added;
  const auto below = std::lower_bound(global_.begin(), global_.end(), added);
  added_rank_ = 2 * static_cast<NodeId>(below - global_.begin());
  for (const auto& [v, e] : g_->neighbors(added)) {
    const NodeId lv = local_of_[v];
    if (lv == kInvalidNode || lv == removed_local_) continue;
    const double w = g_->edge(e).weight;
    EEND_CHECK_MSG(w >= 0.0, "Dijkstra requires non-negative weights");
    added_arcs_.push_back(Arc{lv, e, w});
    joins_added_[lv] = 1;
  }
}

NodeId SubgraphRouter::move_local(NodeId v) const {
  if (v != kInvalidNode && v == added_) return static_cast<NodeId>(node_count());
  const NodeId l = local_id(v);
  return l == removed_local_ ? kInvalidNode : l;
}

bool SubgraphRouter::route_move(NodeId source, NodeId target,
                                std::vector<NodeId>& path,
                                std::vector<EdgeId>& edges) {
  const NodeId s = move_local(source);
  const NodeId t = move_local(target);
  EEND_REQUIRE_MSG(arcs_built_ && s != kInvalidNode && t != kInvalidNode,
                   "route endpoints must be in the set_move() variant");
  return search<true>(s, t, path, edges);
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
