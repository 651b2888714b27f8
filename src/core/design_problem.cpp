#include "core/design_problem.hpp"

#include <algorithm>
#include <set>

#include "graph/shortest_path.hpp"
#include "obs/counters.hpp"
#include "spatial/grid_index.hpp"

namespace eend::core {

NetworkDesignProblem NetworkDesignProblem::from_positions(
    const std::vector<phy::Position>& positions,
    const energy::RadioCard& card) {
  EEND_REQUIRE_MSG(card.max_range_m > 0.0, "card range must be positive");
  graph::Graph g(positions.size());
  for (graph::NodeId v = 0; v < positions.size(); ++v)
    g.set_node_weight(v, card.p_idle);

  // Spatial index instead of the O(N²) all-pairs scan. The index's exact
  // boundary predicate computes the same distance expression as
  // phy::distance, so edge sets AND weights match the brute scan bitwise;
  // sorting each node's candidates by id restores the (i, j-ascending)
  // edge order the scan produced, keeping EdgeIds stable.
  spatial::GridIndex idx;
  idx.build(positions, card.max_range_m / 2.0);
  std::vector<std::pair<graph::NodeId, double>> above;  // neighbors j > i
  for (std::size_t i = 0; i < positions.size(); ++i) {
    above.clear();
    idx.for_each_within(i, card.max_range_m, [&](std::size_t j, double d) {
      if (j > i) above.emplace_back(static_cast<graph::NodeId>(j), d);
    });
    std::sort(above.begin(), above.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [j, d] : above)
      g.add_edge(static_cast<graph::NodeId>(i), j,
                 card.transmit_power(d) + card.p_rx);
  }
  return NetworkDesignProblem(std::move(g));
}

std::vector<graph::NodeId> NetworkDesignProblem::terminals() const {
  std::set<graph::NodeId> t;
  for (const auto& d : demands_) {
    t.insert(d.source);
    t.insert(d.destination);
  }
  return {t.begin(), t.end()};
}

graph::SteinerTree NetworkDesignProblem::solve_node_weighted() const {
  return graph::klein_ravi_steiner(graph_, terminals());
}

graph::SteinerTree NetworkDesignProblem::solve_mpc_reduction() const {
  // Re-weight every edge with the idle cost of its (max-weight) endpoint:
  // the MPC trick of folding node weights into edges, valid when link
  // weights are bounded by node weights.
  graph::Graph g2(graph_.node_count());
  for (const auto& e : graph_.edges())
    g2.add_edge(e.u, e.v, std::max(graph_.node_weight(e.u),
                                   graph_.node_weight(e.v)));
  graph::SteinerTree t = graph::kmb_steiner_tree(g2, terminals());
  // Report costs against the *original* instance.
  graph::SteinerTree out = t;
  out.edge_cost = 0.0;
  out.node_cost = 0.0;
  const auto terms = terminals();
  for (graph::EdgeId e : t.edges) out.edge_cost += graph_.edge(e).weight;
  for (graph::NodeId v : t.nodes)
    if (std::find(terms.begin(), terms.end(), v) == terms.end())
      out.node_cost += graph_.node_weight(v);
  return out;
}

graph::SteinerTree NetworkDesignProblem::solve_edge_weighted() const {
  return graph::kmb_steiner_tree(graph_, terminals());
}

void RoutingWorkspace::publish() {
  const auto flush = [](const char* name, obs::HotCounter& c) {
    if (c.value() > 0) obs::count(name, c.value());
    c = obs::HotCounter{};
  };
  flush("graph.dijkstra.runs", router.runs);
  flush("graph.dijkstra.settled", router.settled);
  flush("opt.cache.route_hits", route_hits);
  flush("opt.cache.route_misses", route_misses);
}

std::optional<std::vector<analytical::RoutedDemand>>
NetworkDesignProblem::try_route_in_subgraph(
    const std::vector<graph::NodeId>& allowed_nodes,
    std::size_t* failed_demand) const {
  RoutingWorkspace ws;
  const bool ok = route_in_subgraph(ws, allowed_nodes, failed_demand);
  ws.publish();
  if (!ok) return std::nullopt;
  return std::move(ws.routes);
}

bool NetworkDesignProblem::route_in_subgraph(
    RoutingWorkspace& ws, const std::vector<graph::NodeId>& allowed_nodes,
    std::size_t* failed_demand,
    const std::vector<graph::NodeId>* cached_allowed,
    const std::vector<analytical::RoutedDemand>* cached_routes) const {
  graph::SubgraphRouter& router = ws.router;
  router.restrict_to(graph_, allowed_nodes);

  // Subset precondition of the route cache: every node allowed now must
  // have been allowed when the cache was built (an empty list means "all
  // nodes"). Otherwise the cache could hide a newly-created shorter path —
  // route every demand afresh rather than risk a stale reuse.
  const bool use_cache = [&] {
    if (!cached_routes || cached_routes->size() != demands_.size())
      return false;
    if (cached_allowed->empty()) return true;
    if (allowed_nodes.empty()) return false;
    ws.seen.assign(router.node_count(), 0);
    std::size_t covered = 0;
    for (graph::NodeId v : *cached_allowed) {
      const graph::NodeId l = router.local_id(v);
      if (l != graph::kInvalidNode && !ws.seen[l]) {
        ws.seen[l] = 1;
        ++covered;
      }
    }
    return covered == router.node_count();
  }();

  // Shortest paths restricted to allowed nodes: every search runs on the
  // one induced subgraph the router builds, and stops once the destination
  // settles, so a search costs at most O(allowed subgraph).
  ws.routes.resize(demands_.size());
  for (std::size_t i = 0; i < demands_.size(); ++i) {
    const auto& d = demands_[i];
    const auto fail = [&] {
      if (failed_demand) *failed_demand = i;
      return false;
    };
    if (!router.contains(d.source) || !router.contains(d.destination))
      return fail();
    analytical::RoutedDemand& rd = ws.routes[i];
    rd.demand = d;
    rd.packets = d.rate;
    if (use_cache) {
      const analytical::RoutedDemand& c = (*cached_routes)[i];
      const bool reuse =
          c.demand.source == d.source &&
          c.demand.destination == d.destination && !c.path.empty() &&
          std::all_of(c.path.begin(), c.path.end(),
                      [&](graph::NodeId v) { return router.contains(v); });
      if (reuse) {
        ws.route_hits.add();
        rd.path = c.path;
        rd.edges = c.edges;
        continue;
      }
      ws.route_misses.add();
    }
    if (!router.route(d.source, d.destination, rd.path, rd.edges))
      return fail();
  }
  return true;
}

std::vector<analytical::RoutedDemand> NetworkDesignProblem::route_or_throw(
    const std::vector<graph::NodeId>& allowed_nodes) const {
  std::size_t failed = 0;
  auto routes = try_route_in_subgraph(allowed_nodes, &failed);
  EEND_REQUIRE_MSG(routes.has_value(),
                   "demand " << demands_[failed].source << "->"
                             << demands_[failed].destination
                             << " unroutable within the allowed node set");
  return std::move(*routes);
}

analytical::Eq5Breakdown NetworkDesignProblem::evaluate_tree(
    const graph::SteinerTree& tree, const analytical::Eq5Params& p) const {
  EEND_REQUIRE_MSG(tree.feasible, "cannot evaluate an infeasible tree");
  return analytical::evaluate_eq5(graph_, route_or_throw(tree.nodes), p);
}

analytical::Eq5Breakdown NetworkDesignProblem::evaluate_shortest_paths(
    const analytical::Eq5Params& p) const {
  return analytical::evaluate_eq5(graph_, route_or_throw({}), p);
}

}  // namespace eend::core
