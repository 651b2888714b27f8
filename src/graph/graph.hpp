// Undirected weighted graph with optional node weights.
//
// This is the substrate for the design-problem formulation of Section 3:
// edge weights model communication cost (w(e) from Ptx + Prx) and node
// weights model idling cost (c(v) = Pidle or Psleep). The same structure
// backs connectivity graphs derived from radio range in the simulator.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace eend::graph {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr EdgeId kInvalidEdge = std::numeric_limits<EdgeId>::max();
inline constexpr double kInfCost = std::numeric_limits<double>::infinity();

/// One endpoint record in an adjacency list.
struct Adjacency {
  NodeId neighbor;
  EdgeId edge;
};

/// Undirected edge with a non-negative weight.
struct Edge {
  NodeId u;
  NodeId v;
  double weight;

  NodeId other(NodeId x) const {
    EEND_REQUIRE(x == u || x == v);
    return x == u ? v : u;
  }
};

/// Undirected graph. Nodes are dense ids [0, node_count). Parallel edges are
/// permitted (the design problem never needs them, but nothing breaks).
class Graph {
 public:
  Graph() = default;
  explicit Graph(std::size_t node_count)
      : adjacency_(node_count), node_weight_(node_count, 0.0) {}

  std::size_t node_count() const { return adjacency_.size(); }
  std::size_t edge_count() const { return edges_.size(); }

  /// Append a new node, returning its id.
  NodeId add_node(double weight = 0.0);

  /// Add an undirected edge; returns its id. Weight must be >= 0.
  EdgeId add_edge(NodeId u, NodeId v, double weight = 1.0);

  const Edge& edge(EdgeId e) const { return edges_[e]; }
  Edge& edge(EdgeId e) { return edges_[e]; }

  double node_weight(NodeId v) const { return node_weight_[v]; }
  void set_node_weight(NodeId v, double w) { node_weight_[v] = w; }

  std::span<const Adjacency> neighbors(NodeId v) const {
    return adjacency_[v];
  }

  std::size_t degree(NodeId v) const { return adjacency_[v].size(); }

  const std::vector<Edge>& edges() const { return edges_; }

  bool valid_node(NodeId v) const { return v < adjacency_.size(); }

  /// Does an edge (u,v) exist (in either direction)?
  bool has_edge(NodeId u, NodeId v) const;

  /// The minimum-weight edge between u and v (the first such in u's
  /// adjacency order), or kInvalidEdge if none.
  EdgeId find_edge(NodeId u, NodeId v) const;

  /// Weight of find_edge(u, v), or kInfCost if none.
  double edge_weight_between(NodeId u, NodeId v) const;

 private:
  std::vector<std::vector<Adjacency>> adjacency_;
  std::vector<Edge> edges_;
  std::vector<double> node_weight_;
};

/// A source-destination traffic demand (si, di, ri) from the Section 3
/// problem definition.
struct Demand {
  NodeId source;
  NodeId destination;
  double rate = 1.0;  ///< non-negative demand r_i
};

}  // namespace eend::graph
