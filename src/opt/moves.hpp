// Move neighbourhoods shared by the design search layers (local_search,
// simulated_annealing, warm_start_search): relay removal, Steiner insertion
// and relay exchange all enumerate inactive neighbours of the current
// design in ascending id. MoveScratch keeps the membership and dedup mark
// arrays one search call reuses for every move it proposes.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace eend::opt {

/// `nodes` without `drop` (order kept).
inline std::vector<graph::NodeId> without(
    const std::vector<graph::NodeId>& nodes, graph::NodeId drop) {
  std::vector<graph::NodeId> out;
  out.reserve(nodes.size() - 1);
  for (graph::NodeId v : nodes)
    if (v != drop) out.push_back(v);
  return out;
}

class MoveScratch {
 public:
  explicit MoveScratch(const graph::Graph& g)
      : g_(&g), in_cur_(g.node_count(), 0), mark_(g.node_count(), 0) {}

  /// Make `nodes` the current design that active() answers for.
  void set_current(const std::vector<graph::NodeId>& nodes) {
    for (graph::NodeId v : cur_) in_cur_[v] = 0;
    cur_ = nodes;
    for (graph::NodeId v : cur_) in_cur_[v] = 1;
  }

  bool active(graph::NodeId v) const { return in_cur_[v] != 0; }

  /// Inactive neighbours of the nodes in `from` that pass `keep`, once
  /// each, in ascending id. Valid until the next call.
  template <typename Keep>
  const std::vector<graph::NodeId>& inactive_neighbors(
      std::span<const graph::NodeId> from, Keep keep) {
    for (graph::NodeId u : out_) mark_[u] = 0;
    out_.clear();
    for (graph::NodeId v : from)
      for (const auto& [u, e] : g_->neighbors(v)) {
        (void)e;
        if (in_cur_[u] || mark_[u] || !keep(u)) continue;
        mark_[u] = 1;
        out_.push_back(u);
      }
    std::sort(out_.begin(), out_.end());
    return out_;
  }

  const std::vector<graph::NodeId>& inactive_neighbors(
      std::span<const graph::NodeId> from) {
    return inactive_neighbors(from, [](graph::NodeId) { return true; });
  }

 private:
  const graph::Graph* g_;
  std::vector<char> in_cur_;
  std::vector<char> mark_;
  std::vector<graph::NodeId> cur_;
  std::vector<graph::NodeId> out_;
};

}  // namespace eend::opt
