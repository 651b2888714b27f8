// Shortest-path algorithms over Graph: Dijkstra (primary), Bellman-Ford
// (used as a test oracle), and SubgraphRouter, the reusable point-to-point
// Dijkstra the design problem routes every demand of a candidate subgraph
// with. All operate on edge weights.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "obs/obs.hpp"

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
ShortestPathTree dijkstra(const Graph& g, NodeId source);

/// Caller-owned workspace that routes many point-to-point demands inside one
/// induced subgraph G[A]. restrict_to() marks A; the first route() after it
/// builds A's arcs once, as a CSR filtered from each allowed node's
/// adjacency in its original order, and every route() searches only those.
///
/// Local ids follow ascending global id and arcs keep adjacency order, so
/// the (distance, id) pop order and the strict-< relaxation order are those
/// of dijkstra() on the explicitly built G[A]: the paths are identical. A
/// search stops once its target settles; settled nodes never change parent
/// again. Buffers persist across calls, so a router reused over many
/// candidates stops allocating once they reach the largest A.
class SubgraphRouter {
 public:
  /// Restrict routing to the nodes in `allowed` (any order, duplicates
  /// ignored; empty = every node of g). O(|A| log |A|); g must outlive the
  /// routes taken under this restriction.
  void restrict_to(const Graph& g, std::span<const NodeId> allowed);

  bool contains(NodeId v) const {
    return v < local_of_.size() && local_of_[v] != kInvalidNode;
  }

  /// Dense index of an allowed node in [0, node_count()), ascending with
  /// its id; kInvalidNode outside A.
  NodeId local_id(NodeId v) const {
    return v < local_of_.size() ? local_of_[v] : kInvalidNode;
  }
  std::size_t node_count() const { return global_.size(); }

  /// Shortest source -> target path inside G[A]; both endpoints must be in
  /// A. On success `path` holds the nodes source..target and `edges` the
  /// edge relaxed into each hop (path.size() - 1 of them). Returns false,
  /// leaving both unspecified, when target is unreachable. Edge weights
  /// must be non-negative (checked once per arc build).
  bool route(NodeId source, NodeId target, std::vector<NodeId>& path,
             std::vector<EdgeId>& edges);

  obs::HotCounter runs;     ///< searches run
  obs::HotCounter settled;  ///< nodes settled, summed over searches

 private:
  struct Arc {
    NodeId to;  ///< local id
    EdgeId edge;
    double weight;
  };
  void build_arcs();

  const Graph* g_ = nullptr;
  std::vector<NodeId> local_of_;  ///< global -> local, kInvalidNode outside A
  std::vector<NodeId> global_;    ///< local -> global, ascending
  bool arcs_built_ = false;
  std::vector<std::size_t> arc_begin_;  ///< CSR offsets, node_count() + 1
  std::vector<Arc> arcs_;
  std::vector<double> dist_;
  std::vector<NodeId> parent_;       ///< local ids
  std::vector<EdgeId> parent_edge_;
  std::vector<std::pair<double, NodeId>> heap_;  ///< (distance, local id)
};

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
