#include "graph/steiner.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <queue>
#include <set>

#include "graph/connectivity.hpp"
#include "graph/mst.hpp"
#include "graph/shortest_path.hpp"
#include "obs/counters.hpp"

namespace eend::graph {

namespace {

bool is_terminal(std::span<const NodeId> terminals, NodeId v) {
  return std::find(terminals.begin(), terminals.end(), v) != terminals.end();
}

/// Build the result record from a set of tree edges in g.
SteinerTree assemble(const Graph& g, std::span<const NodeId> terminals,
                     const std::set<EdgeId>& edges) {
  SteinerTree t;
  std::set<NodeId> nodes(terminals.begin(), terminals.end());
  for (EdgeId e : edges) {
    nodes.insert(g.edge(e).u);
    nodes.insert(g.edge(e).v);
    t.edge_cost += g.edge(e).weight;
  }
  t.edges.assign(edges.begin(), edges.end());
  t.nodes.assign(nodes.begin(), nodes.end());
  for (NodeId v : t.nodes)
    if (!is_terminal(terminals, v)) t.node_cost += g.node_weight(v);

  // Feasibility: all terminals in one component of the tree subgraph.
  std::map<NodeId, std::vector<std::pair<NodeId, EdgeId>>> adj;
  for (EdgeId e : edges) {
    adj[g.edge(e).u].push_back({g.edge(e).v, e});
    adj[g.edge(e).v].push_back({g.edge(e).u, e});
  }
  if (terminals.empty()) {
    t.feasible = true;
    return t;
  }
  std::set<NodeId> seen;
  std::queue<NodeId> q;
  q.push(terminals[0]);
  seen.insert(terminals[0]);
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    for (const auto& [v, e] : adj[u]) {
      (void)e;
      if (seen.insert(v).second) q.push(v);
    }
  }
  t.feasible = std::all_of(terminals.begin(), terminals.end(),
                           [&](NodeId v) { return seen.count(v) > 0; });
  return t;
}

/// Node-weighted Dijkstra for the Klein-Ravi spider scan. Entering node v
/// costs step[v]; the center is free (it is charged separately). Buffers
/// live for one solve and are reset through the touched list, so a pruned
/// run costs only what it visits.
class SpiderSearch {
 public:
  SpiderSearch(const Graph& g, const std::vector<double>& step)
      : g_(g),
        step_(step),
        dist_(g.node_count(), kInfCost),
        parent_(g.node_count(), kInvalidNode) {}

  /// Search from `center`, calling visit(u, dist) as each node settles, in
  /// (dist, id) heap order; stops as soon as visit returns false.
  template <class Visit>
  void run(NodeId center, Visit&& visit) {
    for (NodeId v : touched_) {
      dist_[v] = kInfCost;
      parent_[v] = kInvalidNode;
    }
    touched_.clear();
    heap_.clear();
    dist_[center] = 0.0;
    touched_.push_back(center);
    heap_.emplace_back(0.0, center);
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      const auto [d, u] = heap_.back();
      heap_.pop_back();
      if (d > dist_[u]) continue;  // stale entry
      settled.add();
      if (!visit(u, d)) return;
      for (const auto& [v, e] : g_.neighbors(u)) {
        const double nd = d + step_[v];
        if (nd < dist_[v]) {
          if (dist_[v] == kInfCost) touched_.push_back(v);
          dist_[v] = nd;
          parent_[v] = u;
          heap_.emplace_back(nd, v);
          std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
        }
      }
    }
  }

  double dist(NodeId v) const { return dist_[v]; }
  NodeId parent(NodeId v) const { return parent_[v]; }

  obs::HotCounter settled;  ///< nodes settled, summed over runs

 private:
  const Graph& g_;
  const std::vector<double>& step_;
  std::vector<double> dist_;
  std::vector<NodeId> parent_;
  std::vector<NodeId> touched_;
  std::vector<std::pair<double, NodeId>> heap_;  ///< (dist, node) min-heap
};

}  // namespace

/// Remove non-terminal leaves repeatedly (final KMB step). The leaf-removal
/// fixed point is unique whatever the removal order, so a worklist over
/// incremental degree counts visits each edge O(1) times instead of
/// rebuilding the full incident map every sweep.
void prune_leaves(const Graph& g, std::span<const NodeId> terminals,
                  std::set<EdgeId>& edges) {
  std::map<NodeId, std::vector<EdgeId>> incident;
  for (EdgeId e : edges) {
    incident[g.edge(e).u].push_back(e);
    incident[g.edge(e).v].push_back(e);
  }
  std::map<NodeId, std::size_t> degree;
  std::vector<NodeId> work;
  for (const auto& [v, inc] : incident) {
    degree[v] = inc.size();
    if (inc.size() == 1 && !is_terminal(terminals, v)) work.push_back(v);
  }
  while (!work.empty()) {
    const NodeId v = work.back();
    work.pop_back();
    if (degree[v] != 1) continue;  // re-queued stale entry or already pruned
    for (EdgeId e : incident[v]) {
      if (!edges.erase(e)) continue;  // edge already pruned from the far side
      const Edge& ed = g.edge(e);
      const NodeId other = ed.u == v ? ed.v : ed.u;
      --degree[v];
      if (--degree[other] == 1 && !is_terminal(terminals, other))
        work.push_back(other);
      break;  // degree was 1: exactly one live incident edge existed
    }
  }
}

SteinerTree kmb_steiner_tree(const Graph& g,
                             std::span<const NodeId> terminals) {
  EEND_REQUIRE(!terminals.empty());
  for (NodeId t : terminals) EEND_REQUIRE(g.valid_node(t));
  if (terminals.size() == 1) {
    SteinerTree t;
    t.nodes.assign(terminals.begin(), terminals.end());
    t.feasible = true;
    return t;
  }

  // 1. Shortest paths from every terminal.
  std::vector<ShortestPathTree> spt;
  spt.reserve(terminals.size());
  for (NodeId t : terminals) spt.push_back(dijkstra(g, t));

  // 2. Metric closure over terminals + 3. MST of the closure (Prim inline).
  const std::size_t k = terminals.size();
  std::vector<bool> in_tree(k, false);
  std::vector<double> best(k, kInfCost);
  std::vector<std::size_t> best_from(k, 0);
  in_tree[0] = true;
  for (std::size_t j = 1; j < k; ++j) {
    best[j] = spt[0].distance[terminals[j]];
    best_from[j] = 0;
  }
  std::set<EdgeId> chosen;
  for (std::size_t round = 1; round < k; ++round) {
    std::size_t next = k;
    for (std::size_t j = 0; j < k; ++j)
      if (!in_tree[j] && (next == k || best[j] < best[next])) next = j;
    if (next == k || best[next] == kInfCost) {
      // Disconnected terminals: return infeasible result.
      return assemble(g, terminals, chosen);
    }
    // 4. Expand the closure edge into its underlying graph path.
    const auto path = spt[best_from[next]].path_to(terminals[next]);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      // Pick the cheapest edge between consecutive path nodes.
      EdgeId cheapest = kInvalidNode;
      double w = kInfCost;
      for (const auto& [nbr, e] : g.neighbors(path[i]))
        if (nbr == path[i + 1] && g.edge(e).weight < w) {
          w = g.edge(e).weight;
          cheapest = e;
        }
      EEND_CHECK(cheapest != kInvalidNode);
      chosen.insert(cheapest);
    }
    in_tree[next] = true;
    for (std::size_t j = 0; j < k; ++j)
      if (!in_tree[j] && spt[next].distance[terminals[j]] < best[j]) {
        best[j] = spt[next].distance[terminals[j]];
        best_from[j] = next;
      }
  }

  // 5. MST over the union subgraph, then prune non-terminal leaves.
  // Build an induced subgraph on `chosen`, run Prim, map edges back.
  {
    std::map<NodeId, NodeId> remap;
    Graph sub;
    std::vector<EdgeId> back;
    for (EdgeId e : chosen) {
      for (NodeId endpoint : {g.edge(e).u, g.edge(e).v})
        if (!remap.count(endpoint)) {
          remap[endpoint] = sub.add_node();
        }
      sub.add_edge(remap[g.edge(e).u], remap[g.edge(e).v], g.edge(e).weight);
      back.push_back(e);
    }
    if (sub.node_count() > 0) {
      const MstResult mst = prim_mst(sub, 0);
      std::set<EdgeId> kept;
      for (EdgeId se : mst.edges) kept.insert(back[se]);
      chosen = std::move(kept);
    }
  }
  prune_leaves(g, terminals, chosen);
  return assemble(g, terminals, chosen);
}

SteinerTree klein_ravi_steiner(const Graph& g,
                               std::span<const NodeId> terminals) {
  EEND_REQUIRE(!terminals.empty());
  for (NodeId t : terminals) EEND_REQUIRE(g.valid_node(t));
  const std::size_t n = g.node_count();

  // comp[v]: the component of a selected node, kInvalidNode while v is
  // unselected. Selected nodes form the growing solution; each terminal
  // starts alone in its own component. step[v]: what a path pays to enter
  // v, i.e. its weight, or 0 once selected (already paid for). Terminals
  // start selected, so they are free (c(si) = c(di) = 0 per the paper).
  std::vector<NodeId> comp(n, kInvalidNode);
  std::vector<double> step(n);
  for (NodeId v = 0; v < n; ++v) step[v] = g.node_weight(v);
  NodeId next_comp = 0;
  for (NodeId t : terminals)
    if (comp[t] == kInvalidNode) {
      comp[t] = next_comp++;
      step[t] = 0.0;
    }
  // The scan's pruning (below) needs legs to grow along a search.
  for (NodeId v = 0; v < n; ++v)
    EEND_REQUIRE_MSG(step[v] >= 0.0, "node weights must be non-negative");
  std::size_t active_components = next_comp;

  SpiderSearch search(g, step);
  obs::HotCounter centers_scanned;          // spider-scan searches run
  std::vector<char> has_leg(next_comp, 0);  // per component, per center
  std::vector<NodeId> leg_comps;            // components with has_leg set
  while (active_components > 1) {
    // Scan every center for the best (center cost + legs) / #legs ratio
    // over spider degrees >= 2, keeping the first center and degree that
    // reach it. A center's legs are its node-weighted distances to the
    // components, nearest first. They arrive in that order as the search
    // settles nodes, so the running sum equals the sum over the sorted
    // full distance list, bit for bit. The search stops once no later
    // leg can strictly beat the best ratio: with d the distance just
    // settled and R the running ratio (infinite with no legs), every later
    // ratio is >= min(R, d), and > R once d > R (R was itself a candidate
    // when there are >= 2 legs). kPruneEps dwarfs the rounding of a sum of
    // at most #components legs, so no strictly better ratio is skipped.
    constexpr double kPruneEps = 1e-9;
    double best_ratio = kInfCost;
    NodeId best_center = kInvalidNode;
    std::size_t best_degree = 0;
    centers_scanned.add(n);
    for (NodeId center = 0; center < n; ++center) {
      double acc = step[center];
      std::size_t legs = 0;
      search.run(center, [&](NodeId u, double d) {
        const double r =
            legs == 0 ? kInfCost : acc / static_cast<double>(legs);
        if (std::min(r, d) > best_ratio * (1.0 + kPruneEps)) return false;
        if (legs >= 2 && d > r * (1.0 + kPruneEps)) return false;
        const NodeId c = comp[u];
        if (c == kInvalidNode || has_leg[c]) return true;
        has_leg[c] = 1;
        leg_comps.push_back(c);
        acc += d;
        ++legs;
        if (legs >= 2) {
          const double ratio = acc / static_cast<double>(legs);
          if (ratio < best_ratio) {
            best_ratio = ratio;
            best_center = center;
            best_degree = legs;
          }
        }
        return legs < active_components;
      });
      for (NodeId c : leg_comps) has_leg[c] = 0;
      leg_comps.clear();
    }

    if (best_center == kInvalidNode) {
      // Cannot merge further — terminals are disconnected.
      break;
    }

    // The scan settled equal-distance nodes of a component in pop order,
    // which need not be id order (selected nodes are entered at cost 0).
    // One full run from the winner picks each component's touch point as
    // its (distance, id)-least node, sorts, and keeps the nearest
    // `best_degree`; its parent links give the spider's paths.
    search.run(best_center, [](NodeId, double) { return true; });
    std::vector<std::pair<double, NodeId>> targets(
        next_comp, {kInfCost, kInvalidNode});
    for (NodeId v = 0; v < n; ++v)
      if (comp[v] != kInvalidNode && search.dist(v) < targets[comp[v]].first)
        targets[comp[v]] = {search.dist(v), v};
    std::erase_if(targets,
                  [](const auto& t) { return t.second == kInvalidNode; });
    std::sort(targets.begin(), targets.end());
    targets.resize(best_degree);

    // Apply the spider: select center and all path nodes; merge components.
    const NodeId merged = comp[targets[0].second];
    auto select_node = [&](NodeId v) {
      step[v] = 0.0;
      if (comp[v] == kInvalidNode) comp[v] = merged;
    };
    select_node(best_center);
    for (const auto& [d, target] : targets) {
      for (NodeId cur = target; cur != kInvalidNode && cur != best_center;
           cur = search.parent(cur))
        select_node(cur);
    }
    // Relabel all nodes of merged components (one target per component).
    std::vector<char> merging(next_comp, 0);
    for (const auto& [d, target] : targets) merging[comp[target]] = 1;
    for (NodeId v = 0; v < n; ++v)
      if (comp[v] != kInvalidNode && merging[comp[v]]) comp[v] = merged;
    active_components -= targets.size() - 1;
  }
  obs::publish("steiner.kr.centers_scanned", centers_scanned);
  obs::publish("steiner.kr.settled", search.settled);

  // Materialize tree edges: run an MST restricted to selected nodes (any
  // spanning structure works; MST keeps edge cost tidy), then prune.
  std::set<EdgeId> edges;
  {
    std::vector<NodeId> remap(n, kInvalidNode);
    Graph sub;
    std::vector<EdgeId> back;
    for (NodeId v = 0; v < n; ++v)
      if (comp[v] != kInvalidNode) remap[v] = sub.add_node();
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const Edge& ed = g.edge(e);
      if (remap[ed.u] != kInvalidNode && remap[ed.v] != kInvalidNode) {
        sub.add_edge(remap[ed.u], remap[ed.v], ed.weight);
        back.push_back(e);
      }
    }
    if (sub.node_count() > 0) {
      const MstResult mst = prim_mst(sub, 0);
      for (EdgeId se : mst.edges) edges.insert(back[se]);
    }
  }
  prune_leaves(g, terminals, edges);
  return assemble(g, terminals, edges);
}

SteinerTree exact_node_weighted_steiner(const Graph& g,
                                        std::span<const NodeId> terminals) {
  EEND_REQUIRE(!terminals.empty());
  std::vector<NodeId> optional;
  for (NodeId v = 0; v < g.node_count(); ++v)
    if (!is_terminal(terminals, v)) optional.push_back(v);
  EEND_REQUIRE_MSG(optional.size() <= 20,
                   "exact solver limited to 20 optional nodes");

  SteinerTree best;
  double best_cost = kInfCost;
  const std::size_t subsets = std::size_t{1} << optional.size();
  for (std::size_t mask = 0; mask < subsets; ++mask) {
    std::vector<bool> active(g.node_count(), false);
    for (NodeId t : terminals) active[t] = true;
    double node_cost = 0.0;
    for (std::size_t i = 0; i < optional.size(); ++i)
      if (mask & (std::size_t{1} << i)) {
        active[optional[i]] = true;
        node_cost += g.node_weight(optional[i]);
      }
    if (node_cost >= best_cost) continue;
    std::vector<Demand> pairwise;
    for (std::size_t i = 1; i < terminals.size(); ++i)
      pairwise.push_back({terminals[0], terminals[i], 1.0});
    if (!demands_satisfiable(g, pairwise, active)) continue;
    // Tree edges: MST over the active induced subgraph.
    std::map<NodeId, NodeId> remap;
    Graph sub;
    std::vector<EdgeId> back;
    for (NodeId v = 0; v < g.node_count(); ++v)
      if (active[v]) remap[v] = sub.add_node();
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const Edge& ed = g.edge(e);
      if (remap.count(ed.u) && remap.count(ed.v)) {
        sub.add_edge(remap[ed.u], remap[ed.v], ed.weight);
        back.push_back(e);
      }
    }
    // Root Prim at terminals[0]'s remapped id: rooting at remapped id 0
    // (the lowest active id) spans the wrong component — and silently
    // rejects a feasible candidate — whenever the mask activates an
    // optional node below terminals[0] that is disconnected from them.
    const MstResult mst = prim_mst(sub, remap.at(terminals[0]));
    std::set<EdgeId> edges;
    for (EdgeId se : mst.edges) edges.insert(back[se]);
    prune_leaves(g, terminals, edges);
    SteinerTree cand = assemble(g, terminals, edges);
    if (cand.feasible && cand.node_cost < best_cost) {
      best_cost = cand.node_cost;
      best = std::move(cand);
    }
  }
  return best;
}

}  // namespace eend::graph
