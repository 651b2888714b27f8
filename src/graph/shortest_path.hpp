// Shortest-path algorithms over Graph: Dijkstra (primary) and Bellman-Ford
// (used as a test oracle). Both operate on edge weights. Dijkstra can be
// restricted to an allowed node set and stopped early at a target, which is
// how the design problem routes a demand inside a candidate subgraph.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace eend::graph {

/// Result of a single-source shortest-path computation.
struct ShortestPathTree {
  NodeId source = kInvalidNode;
  std::vector<double> distance;   ///< kInfCost when unreachable
  std::vector<NodeId> parent;     ///< kInvalidNode for source/unreachable

  bool reachable(NodeId v) const { return distance[v] < kInfCost; }

  /// Reconstruct source -> v as a node sequence (empty if unreachable).
  std::vector<NodeId> path_to(NodeId v) const;
};

/// Dijkstra from `source`. Edge weights must be non-negative; throws
/// CheckError otherwise (checked lazily as edges are relaxed).
///
/// `allowed` (empty = every node) masks the nodes a path may enter: a node
/// v with allowed[v] == 0 is never reached, whatever its edges. The source
/// is searched from regardless. With a `target`, the search stops once the
/// target settles. Settled nodes never change distance or parent again, so
/// distance[target] and path_to(target) equal a full run's; nodes that had
/// not settled by then may hold tentative values.
ShortestPathTree dijkstra(const Graph& g, NodeId source,
                          std::span<const char> allowed = {},
                          NodeId target = kInvalidNode);

/// Bellman-Ford oracle; O(VE), tolerant of zero weights, used in tests to
/// validate Dijkstra on random graphs.
ShortestPathTree bellman_ford(const Graph& g, NodeId source);

/// Total edge weight of a node path (kInfCost if any hop is missing).
double path_cost(const Graph& g, std::span<const NodeId> path);

/// Hop count convenience: number of edges in the path.
inline std::size_t path_hops(std::span<const NodeId> path) {
  return path.empty() ? 0 : path.size() - 1;
}

}  // namespace eend::graph
