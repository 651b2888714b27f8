// The energy-efficient network design problem (Section 3) as a first-class
// object, with the centralized solvers the paper discusses:
//
//   * node-weighted Steiner tree via Klein-Ravi (the Ω(log n) family);
//   * MPC-style reduction [Xing et al.]: push node weights onto edges and
//     run an edge-weighted Steiner approximation (KMB);
//   * Eq. 5 evaluation of any routing over the instance.
//
// These are the analysis-side tools; the distributed heuristics live in
// routing/ and are exercised through net::Network.
#pragma once

#include <optional>
#include <vector>

#include "analytical/design_eval.hpp"
#include "energy/radio_card.hpp"
#include "graph/shortest_path.hpp"
#include "graph/steiner.hpp"
#include "obs/obs.hpp"
#include "phy/position.hpp"

namespace eend::core {

/// Caller-owned routing state for NetworkDesignProblem::route_in_subgraph:
/// the induced-subgraph router, the routes of the last call, and the work
/// counters, published by publish() once per search rather than per
/// demand.
struct RoutingWorkspace {
  graph::SubgraphRouter router;
  std::vector<analytical::RoutedDemand> routes;
  std::vector<char> seen;  ///< subset-test scratch, by router local id
  obs::HotCounter route_hits;    ///< cached paths reused
  obs::HotCounter route_misses;  ///< cached paths re-searched

  /// Add graph.dijkstra.{runs,settled} and opt.cache.route_{hits,misses}
  /// to the calling thread's registry (zero counts stay absent) and reset
  /// them.
  void publish();
};

/// A design-problem instance: connectivity graph with communication edge
/// weights w(e) and idling node weights c(v), plus traffic demands.
class NetworkDesignProblem {
 public:
  /// Build from node positions and a radio card: nodes within transmission
  /// range are connected; w(e) = Ptx(d) + Prx (per unit data time) and
  /// c(v) = Pidle (per unit idle time), the Section 3 weighting.
  /// Neighbor discovery goes through a spatial::GridIndex, so construction
  /// is O(N·k) in the node count — the same predicate and arithmetic as the
  /// historical all-pairs scan, byte-identical edge lists included
  /// (design_problem_test pins the equivalence).
  static NetworkDesignProblem from_positions(
      const std::vector<phy::Position>& positions,
      const energy::RadioCard& card);

  /// Build directly from an explicit graph (weights already assigned).
  explicit NetworkDesignProblem(graph::Graph g) : graph_(std::move(g)) {}

  /// Empty problem (no nodes, no demands) — pre-sized result slots in the
  /// parallel engines are filled in place.
  NetworkDesignProblem() = default;

  const graph::Graph& graph() const { return graph_; }
  graph::Graph& graph() { return graph_; }

  void add_demand(graph::Demand d) { demands_.push_back(d); }
  /// Replace the whole demand set (the churn/ subsystem evolves demands
  /// across epochs over a fixed node id space).
  void set_demands(std::vector<graph::Demand> d) { demands_ = std::move(d); }
  const std::vector<graph::Demand>& demands() const { return demands_; }

  /// Terminals = all demand endpoints (deduplicated, sorted).
  std::vector<graph::NodeId> terminals() const;

  /// Node-weighted Steiner tree over the demand terminals (Klein-Ravi).
  graph::SteinerTree solve_node_weighted() const;

  /// MPC-style reduction: ignore node weights, run edge-weighted KMB with
  /// w'(e) = c(u) (the "edge weights equal to c(u)" reduction of §3).
  graph::SteinerTree solve_mpc_reduction() const;

  /// Plain edge-weighted KMB on w(e) (communication-cost-only design).
  graph::SteinerTree solve_edge_weighted() const;

  /// Route all demands along shortest paths *within* the given tree and
  /// evaluate Eq. 5.
  analytical::Eq5Breakdown evaluate_tree(
      const graph::SteinerTree& tree, const analytical::Eq5Params& p) const;

  /// Route all demands along global shortest paths (no tree restriction)
  /// and evaluate Eq. 5 — the "routing-aware" comparison point.
  analytical::Eq5Breakdown evaluate_shortest_paths(
      const analytical::Eq5Params& p) const;

  /// Route all demands along shortest paths restricted to `allowed_nodes`
  /// (empty = no restriction). Returns nullopt when any demand is
  /// unroutable within the set — the non-throwing twin the search layer
  /// (opt/) probes candidate designs with; the evaluate_* entry points
  /// above are built on it. On failure, `failed_demand` (when non-null)
  /// receives the index of the first unroutable demand.
  std::optional<std::vector<analytical::RoutedDemand>> try_route_in_subgraph(
      const std::vector<graph::NodeId>& allowed_nodes,
      std::size_t* failed_demand = nullptr) const;

  /// Workspace form of try_route_in_subgraph, which runs it on a
  /// temporary workspace: routes into ws.routes (one per demand, reusing
  /// its buffers) and returns false on failure. Every demand searches the
  /// one induced subgraph ws.router builds for `allowed_nodes`.
  ///
  /// Passing `cached_routes` — the routes this problem produced for
  /// `cached_allowed` (same graph, same demand endpoints; rates may have
  /// changed — paths are rate-independent) — reuses them for incremental
  /// re-evaluation. When `allowed_nodes` is a subset of `cached_allowed`, a
  /// cached path that avoids every removed node is reused verbatim; only
  /// demands whose cached path touches a removed node — or whose endpoints
  /// changed — are searched again. Whenever the subset precondition fails
  /// (e.g. nodes were *added*, which can create shorter paths) every demand
  /// is searched. The reuse is bit-identical to searching afresh, ties
  /// included: removing nodes only removes paths, so no distance shrinks
  /// and each node of the cached path keeps its own. A node whose arc now
  /// ties a path node's distance tied it before too and pops no earlier,
  /// so the parent the strict-< relaxation keeps — the first such node in
  /// (distance, id) order — is unchanged
  /// (EvalDifferential.RouteCacheReuseIsExactUnderTies).
  bool route_in_subgraph(
      RoutingWorkspace& ws, const std::vector<graph::NodeId>& allowed_nodes,
      std::size_t* failed_demand = nullptr,
      const std::vector<graph::NodeId>* cached_allowed = nullptr,
      const std::vector<analytical::RoutedDemand>* cached_routes =
          nullptr) const;

 private:
  std::vector<analytical::RoutedDemand> route_or_throw(
      const std::vector<graph::NodeId>& allowed_nodes) const;

  graph::Graph graph_;
  std::vector<graph::Demand> demands_;
};

}  // namespace eend::core
