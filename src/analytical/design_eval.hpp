// Generic evaluator for the simplified network-energy objective of
// Section 3 (Eq. 5):
//
//   E_network = sum_{u in F} t_idle(u) * c(u) + sum_{e in F} t_data(e) * w(e)
//
// given a subgraph F implied by a set of routed demands. Sources and
// destinations have c = 0 by definition ("since all (si, di) are required
// to be in F, c(si) = 0 and c(di) = 0"); an option re-includes them for the
// paper's 3k/(2k+1) observation about SF1 vs SF2.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace eend::analytical {

/// One demand together with the path assigned to it and how many packets it
/// injects over the evaluation horizon.
struct RoutedDemand {
  graph::Demand demand;
  std::vector<graph::NodeId> path;  ///< node sequence source..destination
  double packets = 1.0;
  /// The edge each hop takes (path.size() - 1 ids), as the router relaxed
  /// it. Empty for hand-built routes, whose hops resolve to the lightest
  /// edge between their two nodes (see hop_edge).
  std::vector<graph::EdgeId> edges;
};

/// The edge hop i of `r` crosses (path[i] -> path[i + 1]): the carried id,
/// checked to join the two nodes, or Graph::find_edge when the route
/// carries none. Throws CheckError "path hop X->Y is not an edge" when the
/// hop has no edge.
graph::EdgeId hop_edge(const graph::Graph& g, const RoutedDemand& r,
                       std::size_t i);

struct Eq5Params {
  double t_idle = 1.0;             ///< idle duration charged per active node
  double t_data_per_packet = 1.0;  ///< airtime per packet per hop
  /// When true, sources/destinations also pay their idle weight (used to
  /// reproduce the 3k/(2k+1) constant-ratio observation for SF1 vs SF2).
  bool include_endpoint_idle = false;
};

struct Eq5Breakdown {
  double idle = 0.0;
  double data = 0.0;
  double total() const { return idle + data; }
  std::size_t active_nodes = 0;  ///< |F| (nodes carrying or relaying flows)
  std::size_t relay_nodes = 0;   ///< active nodes that are not endpoints
};

/// Reusable buffers for evaluate_eq5: a caller scoring many designs keeps
/// one and stops allocating. After a call, `active` holds the routes'
/// active nodes (every node on some path) in ascending id.
struct Eq5Scratch {
  std::vector<graph::NodeId> active;

  struct Hop {
    std::uint64_t key;  ///< min(u, v) << 32 | max(u, v)
    std::uint32_t seq;  ///< encounter order, the tie-break within a key
    double packets;
    double weight;
  };
  std::vector<Hop> hops;
  std::vector<char> mark;  ///< per node: active and endpoint bits
};

/// Evaluate Eq. 5 for the subgraph induced by the routed demands.
/// Node weights come from Graph::node_weight (c(u)); edge traversal cost
/// per packet comes from the edge weight (w(e)).
/// Every path must be a valid walk in g (consecutive nodes adjacent).
/// Summation order is fixed: idle over active nodes in ascending id; data
/// per node pair (u < v) in ascending pair order, each pair's packets
/// summed in route-then-hop order first.
Eq5Breakdown evaluate_eq5(const graph::Graph& g,
                          std::span<const RoutedDemand> routes,
                          const Eq5Params& params);
Eq5Breakdown evaluate_eq5(const graph::Graph& g,
                          std::span<const RoutedDemand> routes,
                          const Eq5Params& params, Eq5Scratch& scratch);

}  // namespace eend::analytical
