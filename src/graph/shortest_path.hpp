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
///
/// set_move() and route_move() search a one-node variant of A on the same
/// CSR, without rebuilding it (see set_move).
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
  NodeId global_id(NodeId local) const { return global_[local]; }

  /// Shortest source -> target path inside G[A]; both endpoints must be in
  /// A. On success `path` holds the nodes source..target and `edges` the
  /// edge relaxed into each hop (path.size() - 1 of them). Returns false,
  /// leaving both unspecified, when target is unreachable. Edge weights
  /// must be non-negative (checked once per arc build).
  bool route(NodeId source, NodeId target, std::vector<NodeId>& path,
             std::vector<EdgeId>& edges);

  /// Distances of the last route(), by local id: exact for every node that
  /// settled before the target, a tentative upper bound (or kInfCost) for
  /// the rest. A node x settled iff (d[x], x) <= (d[target], target).
  std::span<const double> distances() const {
    return {dist_.data(), node_count()};
  }

  /// Make route_move() search A \ {removed} ∪ {added}: `removed` (in A, or
  /// kInvalidNode) is masked and `added` (outside A, or kInvalidNode) joins
  /// with its arcs to the rest, in its adjacency order. Heap keys rank
  /// `added` between its global-id neighbours in A, so the pop order is
  /// (distance, global id) and the paths are those route() finds after
  /// restrict_to() of that set. Valid until the next restrict_to().
  void set_move(NodeId removed, NodeId added);

  /// The arcs joining `added` to A \ {removed}, in its adjacency order,
  /// after set_move(); `to` is a local id.
  struct Arc {
    NodeId to;  ///< local id
    EdgeId edge;
    double weight;
  };
  std::span<const Arc> added_arcs() const { return added_arcs_; }

  /// route() on the set_move() variant; both endpoints must be in it.
  bool route_move(NodeId source, NodeId target, std::vector<NodeId>& path,
                  std::vector<EdgeId>& edges);

  obs::HotCounter runs;     ///< searches run
  obs::HotCounter settled;  ///< nodes settled, summed over searches

 private:
  void build_arcs();
  /// Local id of v in the set_move() variant: node_count() for `added`,
  /// kInvalidNode for `removed` and outside the variant.
  NodeId move_local(NodeId v) const;
  /// The search behind route() (kMove false: A) and route_move() (kMove
  /// true: the set_move() variant), from local id s to local id t.
  template <bool kMove>
  bool search(NodeId s, NodeId t, std::vector<NodeId>& path,
              std::vector<EdgeId>& edges);
  /// Path source..target from the parent links of the last search.
  void trace_back(NodeId s, NodeId t, std::vector<NodeId>& path,
                  std::vector<EdgeId>& edges) const;

  const Graph* g_ = nullptr;
  std::vector<NodeId> local_of_;  ///< global -> local, kInvalidNode outside A
  std::vector<NodeId> global_;    ///< local -> global, ascending
  bool arcs_built_ = false;
  std::vector<std::size_t> arc_begin_;  ///< CSR offsets, node_count() + 1
  std::vector<Arc> arcs_;
  std::vector<double> dist_;
  std::vector<NodeId> parent_;       ///< local ids
  std::vector<EdgeId> parent_edge_;
  std::vector<std::pair<double, NodeId>> heap_;  ///< (distance, key)

  // set_move() state. route_move()'s heap keys are ranks: 2l + 1 for local
  // id l and added_rank_ (even) for `added`.
  NodeId removed_local_ = kInvalidNode;
  NodeId added_ = kInvalidNode;
  NodeId added_rank_ = 0;
  std::vector<Arc> added_arcs_;
  std::vector<char> joins_added_;  ///< by local id: has an arc to `added`
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
