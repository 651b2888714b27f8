#include "analytical/design_eval.hpp"

#include <algorithm>
#include <utility>

namespace eend::analytical {

namespace {
constexpr char kActive = 1;
constexpr char kEndpoint = 2;
}  // namespace

graph::EdgeId hop_edge(const graph::Graph& g, const RoutedDemand& r,
                       std::size_t i) {
  const graph::NodeId a = r.path[i];
  const graph::NodeId b = r.path[i + 1];
  graph::EdgeId e = graph::kInvalidEdge;
  if (r.edges.empty()) {
    e = g.find_edge(a, b);
  } else if (i < r.edges.size() && r.edges[i] < g.edge_count()) {
    const graph::Edge& x = g.edge(r.edges[i]);
    if ((x.u == a && x.v == b) || (x.u == b && x.v == a)) e = r.edges[i];
  }
  EEND_REQUIRE_MSG(e != graph::kInvalidEdge,
                   "path hop " << a << "->" << b << " is not an edge");
  return e;
}

Eq5Breakdown evaluate_eq5(const graph::Graph& g,
                          std::span<const RoutedDemand> routes,
                          const Eq5Params& params) {
  Eq5Scratch scratch;
  return evaluate_eq5(g, routes, params, scratch);
}

Eq5Breakdown evaluate_eq5(const graph::Graph& g,
                          std::span<const RoutedDemand> routes,
                          const Eq5Params& params, Eq5Scratch& scratch) {
  // Every marked node is on `active`, even after a throw, so clearing
  // through it restores an all-zero mark array.
  std::vector<char>& mark = scratch.mark;
  std::vector<graph::NodeId>& active = scratch.active;
  if (mark.size() == g.node_count()) {
    for (graph::NodeId v : active) mark[v] = 0;
  } else {
    mark.assign(g.node_count(), 0);
  }
  active.clear();
  scratch.hops.clear();
  const auto touch = [&](graph::NodeId v, char bit) {
    EEND_REQUIRE(g.valid_node(v));
    if (!mark[v]) active.push_back(v);
    mark[v] |= bit;
  };

  for (const RoutedDemand& r : routes) {
    EEND_REQUIRE_MSG(r.path.size() >= 1, "empty path");
    EEND_REQUIRE(r.path.front() == r.demand.source &&
                 r.path.back() == r.demand.destination);
    touch(r.demand.source, kEndpoint);
    touch(r.demand.destination, kEndpoint);
    for (std::size_t i = 0; i < r.path.size(); ++i) {
      touch(r.path[i], kActive);
      if (i + 1 < r.path.size()) {
        const graph::EdgeId e = hop_edge(g, r, i);
        const auto [lo, hi] = std::minmax(r.path[i], r.path[i + 1]);
        scratch.hops.push_back(
            {std::uint64_t{lo} << 32 | hi,
             static_cast<std::uint32_t>(scratch.hops.size()), r.packets,
             g.edge(e).weight});
      }
    }
  }

  Eq5Breakdown out;
  std::sort(active.begin(), active.end());
  out.active_nodes = active.size();
  for (graph::NodeId v : active) {
    const bool endpoint = (mark[v] & kEndpoint) != 0;
    if (!endpoint) ++out.relay_nodes;
    if (endpoint && !params.include_endpoint_idle) continue;
    out.idle += params.t_idle * g.node_weight(v);
  }

  // (key, seq) is a total order, so this sort is stable by key: each
  // pair's packets add up in encounter order, the pairs in ascending order.
  auto& hops = scratch.hops;
  std::sort(hops.begin(), hops.end(),
            [](const Eq5Scratch::Hop& x, const Eq5Scratch::Hop& y) {
              return x.key != y.key ? x.key < y.key : x.seq < y.seq;
            });
  for (std::size_t i = 0; i < hops.size();) {
    double pkts = 0.0;
    double w = hops[i].weight;
    const std::uint64_t key = hops[i].key;
    for (; i < hops.size() && hops[i].key == key; ++i) {
      pkts += hops[i].packets;
      w = std::min(w, hops[i].weight);  // parallel edges: the lightest
    }
    out.data += params.t_data_per_packet * pkts * w;
  }
  return out;
}

}  // namespace eend::analytical
