// Differential tests for the design evaluation kernel: the induced-subgraph
// router, the edge-carrying routes and the flat Eq. 5 against a verbatim
// copy of the code they replaced — a masked, early-exit Dijkstra over the
// whole graph per demand, and an Eq. 5 summed through std::set/std::map
// with every hop re-found by has_edge/edge_weight_between — and the two
// incremental evaluators, opt::MoveEvaluator and the RouteCache, against
// evaluation from scratch. Every figure is compared with ==, not within a
// tolerance: the kernel must be bit-identical on the instance families of
// KleinRaviDifferential.*.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/design_problem.hpp"
#include "obs/counters.hpp"
#include "opt/design_heuristic.hpp"
#include "opt/design_instance.hpp"
#include "opt/move_eval.hpp"
#include "util/rng.hpp"

namespace eend {
namespace {

using analytical::Eq5Breakdown;
using analytical::Eq5Params;
using analytical::RoutedDemand;
using graph::EdgeId;
using graph::Graph;
using graph::NodeId;

// ---------------------------------------------------------------------
// Reference: the masked Dijkstra, routing, Eq. 5, load scan and design
// evaluation as they stood before the kernel. The only addition is the
// parent edge each relaxation records, so routes carry reference ids.

struct RefTree {
  std::vector<double> distance;
  std::vector<NodeId> parent;
  std::vector<EdgeId> parent_edge;
};

RefTree ref_dijkstra(const Graph& g, NodeId source,
                     const std::vector<char>& allowed, NodeId target) {
  RefTree t;
  t.distance.assign(g.node_count(), graph::kInfCost);
  t.parent.assign(g.node_count(), graph::kInvalidNode);
  t.parent_edge.assign(g.node_count(), graph::kInvalidEdge);
  t.distance[source] = 0.0;
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  pq.emplace(0.0, source);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > t.distance[u]) continue;
    if (u == target) break;
    for (const auto& [v, e] : g.neighbors(u)) {
      if (!allowed[v]) continue;
      const double nd = d + g.edge(e).weight;
      if (nd < t.distance[v]) {
        t.distance[v] = nd;
        t.parent[v] = u;
        t.parent_edge[v] = e;
        pq.emplace(nd, v);
      }
    }
  }
  return t;
}

std::optional<std::vector<RoutedDemand>> ref_route(
    const core::NetworkDesignProblem& p, const std::vector<NodeId>& nodes,
    std::size_t* failed) {
  const Graph& g = p.graph();
  std::vector<char> allowed(g.node_count(), nodes.empty());
  for (NodeId v : nodes) allowed[v] = true;
  std::vector<RoutedDemand> routes;
  for (std::size_t i = 0; i < p.demands().size(); ++i) {
    const graph::Demand& d = p.demands()[i];
    if (!allowed[d.source] || !allowed[d.destination]) {
      *failed = i;
      return std::nullopt;
    }
    const RefTree t = ref_dijkstra(g, d.source, allowed, d.destination);
    if (t.distance[d.destination] == graph::kInfCost) {
      *failed = i;
      return std::nullopt;
    }
    RoutedDemand rd;
    rd.demand = d;
    rd.packets = d.rate;
    for (NodeId cur = d.destination; cur != d.source; cur = t.parent[cur]) {
      rd.path.push_back(cur);
      rd.edges.push_back(t.parent_edge[cur]);
    }
    rd.path.push_back(d.source);
    std::reverse(rd.path.begin(), rd.path.end());
    std::reverse(rd.edges.begin(), rd.edges.end());
    routes.push_back(std::move(rd));
  }
  return routes;
}

Eq5Breakdown ref_eq5(const Graph& g, const std::vector<RoutedDemand>& routes,
                     const Eq5Params& params) {
  Eq5Breakdown out;
  std::set<NodeId> active;
  std::set<NodeId> endpoints;
  std::map<std::pair<NodeId, NodeId>, double> edge_packets;
  for (const RoutedDemand& r : routes) {
    endpoints.insert(r.demand.source);
    endpoints.insert(r.demand.destination);
    for (std::size_t i = 0; i < r.path.size(); ++i) {
      active.insert(r.path[i]);
      if (i + 1 < r.path.size()) {
        EXPECT_TRUE(g.has_edge(r.path[i], r.path[i + 1]));
        const auto key = std::minmax(r.path[i], r.path[i + 1]);
        edge_packets[std::pair{key.first, key.second}] += r.packets;
      }
    }
  }
  out.active_nodes = active.size();
  for (NodeId v : active) {
    const bool endpoint = endpoints.count(v) > 0;
    if (!endpoint) ++out.relay_nodes;
    if (endpoint && !params.include_endpoint_idle) continue;
    out.idle += params.t_idle * g.node_weight(v);
  }
  for (const auto& [uv, pkts] : edge_packets)
    out.data += params.t_data_per_packet * pkts *
                g.edge_weight_between(uv.first, uv.second);
  return out;
}

std::vector<double> ref_loads(const Graph& g,
                              const std::vector<RoutedDemand>& routes,
                              const Eq5Params& eval) {
  std::vector<double> load(g.node_count(), 0.0);
  std::vector<char> active(g.node_count(), 0);
  for (const RoutedDemand& r : routes)
    for (std::size_t i = 0; i < r.path.size(); ++i) {
      active[r.path[i]] = 1;
      if (i + 1 < r.path.size()) {
        const double w = g.edge_weight_between(r.path[i], r.path[i + 1]);
        const double half = 0.5 * eval.t_data_per_packet * r.packets * w;
        load[r.path[i]] += half;
        load[r.path[i + 1]] += half;
      }
    }
  for (NodeId v = 0; v < g.node_count(); ++v)
    if (active[v]) load[v] += eval.t_idle * g.node_weight(v);
  return load;
}

opt::CandidateDesign ref_evaluate(const core::NetworkDesignProblem& p,
                                  const std::vector<NodeId>& nodes,
                                  const opt::DesignObjective& obj) {
  opt::CandidateDesign out;
  std::size_t failed = 0;
  const auto routes = ref_route(p, nodes, &failed);
  if (!routes) {
    out.nodes = nodes;
    std::sort(out.nodes.begin(), out.nodes.end());
    return out;
  }
  out.score = ref_eq5(p.graph(), *routes, obj.eval);
  if (obj.battery_budget_j > 0.0) {
    double overload = 0.0;
    for (const double l : ref_loads(p.graph(), *routes, obj.eval)) {
      out.max_node_load = std::max(out.max_node_load, l);
      overload += std::max(0.0, l - obj.battery_budget_j);
    }
    out.lifetime_penalty = obj.overload_penalty * overload;
  }
  std::set<NodeId> used;
  for (const auto& r : *routes) used.insert(r.path.begin(), r.path.end());
  out.nodes.assign(used.begin(), used.end());
  out.feasible = true;
  return out;
}

// ---------------------------------------------------------------------
// The check: random allowed subsets of one problem, every one routed and
// scored by both sides. One workspace serves every subset, so stale state
// carried from one evaluation to the next would show too.

struct Tally {
  int subsets = 0;
  int infeasible = 0;
  int mismatches = 0;
};

std::string describe(const std::vector<NodeId>& nodes) {
  std::ostringstream os;
  os << "{";
  for (NodeId v : nodes) os << " " << v;
  os << " }";
  return os.str();
}

bool same_design(const opt::CandidateDesign& a,
                 const opt::CandidateDesign& b) {
  return a.feasible == b.feasible && a.nodes == b.nodes &&
         a.score.idle == b.score.idle && a.score.data == b.score.data &&
         a.score.active_nodes == b.score.active_nodes &&
         a.score.relay_nodes == b.score.relay_nodes &&
         a.max_node_load == b.max_node_load &&
         a.lifetime_penalty == b.lifetime_penalty && a.cost() == b.cost();
}

bool same_routes(std::span<const RoutedDemand> a,
                 std::span<const RoutedDemand> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].path != b[i].path || a[i].edges != b[i].edges ||
        a[i].packets != b[i].packets)
      return false;
  return true;
}

/// Plain Eq. 5, a reweighted Eq. 5 that charges endpoint idle, and a
/// lifetime objective whose budget leaves some nodes overloaded.
std::vector<opt::DesignObjective> objectives_for(
    const core::NetworkDesignProblem& p) {
  const Graph& g = p.graph();
  std::vector<opt::DesignObjective> objectives(3);
  objectives[1].eval.t_idle = 30.0;
  objectives[1].eval.t_data_per_packet = 0.01;
  objectives[1].eval.include_endpoint_idle = true;
  // Battery budget at half the heaviest node load of the unrestricted
  // routing: some nodes overloaded, most not.
  std::size_t failed = 0;
  if (const auto all = ref_route(p, {}, &failed)) {
    const auto loads = ref_loads(g, *all, objectives[0].eval);
    objectives[2].battery_budget_j =
        0.5 * *std::max_element(loads.begin(), loads.end());
  }
  if (!(objectives[2].battery_budget_j > 0.0))
    objectives[2].battery_budget_j = 1.0;
  return objectives;
}

void check_problem(const core::NetworkDesignProblem& p, Rng& rng,
                   int subsets, Tally& tally, const std::string& label) {
  const Graph& g = p.graph();
  const std::vector<NodeId> terms = p.terminals();
  const std::vector<opt::DesignObjective> objectives = objectives_for(p);
  opt::EvalWorkspace ws;
  for (int s = 0; s < subsets; ++s) {
    // Empty = every node; otherwise a random subset in random order, with
    // duplicates, usually holding every endpoint.
    std::vector<NodeId> nodes;
    if (s > 0) {
      const double keep = rng.uniform(0.2, 0.95);
      for (NodeId v = 0; v < g.node_count(); ++v)
        if (rng.bernoulli(keep)) nodes.push_back(v);
      if (rng.bernoulli(0.8))
        for (NodeId t : terms)
          if (rng.bernoulli(0.9)) nodes.push_back(t);
      if (nodes.empty()) nodes.push_back(terms.front());
      if (rng.bernoulli(0.3)) nodes.push_back(nodes.front());
      for (std::size_t i = nodes.size(); i > 1; --i)
        std::swap(nodes[i - 1], nodes[rng.next_below(i)]);
    }
    ++tally.subsets;
    bool same = true;

    std::size_t want_failed = 0, got_failed = 0;
    const auto want = ref_route(p, nodes, &want_failed);
    const auto got = p.try_route_in_subgraph(nodes, &got_failed);
    const bool routed =
        p.route_in_subgraph(ws.routing, nodes, &got_failed) == want.has_value();
    same &= routed && got.has_value() == want.has_value();
    if (!want) {
      ++tally.infeasible;
      same &= got_failed == want_failed;
    } else if (got) {
      for (std::size_t i = 0; i < want->size(); ++i) {
        same &= (*got)[i].path == (*want)[i].path &&
                (*got)[i].edges == (*want)[i].edges &&
                (*got)[i].packets == (*want)[i].packets;
        same &= ws.routing.routes[i].path == (*want)[i].path &&
                ws.routing.routes[i].edges == (*want)[i].edges;
      }
    }

    for (const opt::DesignObjective& obj : objectives) {
      if (!nodes.empty()) {  // a design needs at least one node
        const opt::CandidateDesign a = ref_evaluate(p, nodes, obj);
        const opt::CandidateDesign b =
            opt::evaluate_design(p, nodes, obj, nullptr, nullptr, ws);
        same &= same_design(a, b);
      }
      if (want) {
        const Eq5Breakdown e = analytical::evaluate_eq5(g, *want, obj.eval);
        const Eq5Breakdown r = ref_eq5(g, *want, obj.eval);
        same &= e.idle == r.idle && e.data == r.data &&
                e.active_nodes == r.active_nodes &&
                e.relay_nodes == r.relay_nodes;
        // Hand-built routes (no carried ids) take the lookup path.
        std::vector<RoutedDemand> bare = *want;
        for (RoutedDemand& rd : bare) rd.edges.clear();
        const Eq5Breakdown h = analytical::evaluate_eq5(g, bare, obj.eval);
        same &= h.idle == r.idle && h.data == r.data;
        same &= opt::node_energy_loads(g, *want, obj.eval) ==
                ref_loads(g, *want, obj.eval);
      }
    }
    if (!same) {
      ++tally.mismatches;
      ADD_FAILURE() << label << " subset " << s << " " << describe(nodes);
    }
  }
}

/// A random connected graph: a spanning tree plus `chords` extra edges
/// (parallel edges included), with edge weights drawn from {1, 2, 3} so
/// equal-cost paths are common.
Graph random_connected_graph(Rng& rng, std::size_t n, std::size_t chords) {
  Graph g(n);
  for (NodeId v = 1; v < n; ++v)
    g.add_edge(v, static_cast<NodeId>(rng.next_below(v)),
               1.0 + static_cast<double>(rng.next_below(3)));
  for (std::size_t c = 0; c < chords; ++c) {
    const auto a = static_cast<NodeId>(rng.next_below(n));
    const auto b = static_cast<NodeId>(rng.next_below(n));
    if (a != b) g.add_edge(a, b, 1.0 + static_cast<double>(rng.next_below(3)));
  }
  return g;
}

/// `count` demands between random distinct nodes of `pool`, with rates
/// drawn from {0.1, 0.7, 1.3}: sums of these round, so summation order
/// shows in the last bits.
void add_random_demands(core::NetworkDesignProblem& p, Rng& rng,
                        const std::vector<NodeId>& pool, std::size_t count) {
  static constexpr double kRates[] = {0.1, 0.7, 1.3};
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t i = rng.next_below(pool.size());
    const std::size_t j = (i + 1 + rng.next_below(pool.size() - 1)) %
                          pool.size();
    p.add_demand({pool[i], pool[j], kRates[rng.next_below(3)]});
  }
}

TEST(EvalDifferential, MatchesReferenceOnDesignInstances) {
  // The instance family behind every design row, plus a twin with every
  // node and edge weight jittered (as the portfolio's GRASP starts do), so
  // the paths differ from the plain instance's.
  Tally tally;
  for (std::size_t n : {20, 50, 100, 200})
    for (std::size_t demands : {2, 7, 16}) {
      opt::DesignInstanceSpec spec;
      spec.node_count = n;
      spec.demand_count = demands;
      spec.seed = 100 * n + demands;
      spec.demand_weights = {1.0, 0.1, 0.7, 1.3};
      const auto inst = opt::make_design_instance(spec);
      Rng rng(spec.seed);
      check_problem(inst.problem, rng, 12, tally,
                    "n=" + std::to_string(n) + " plain");
      Graph g = inst.problem.graph();
      for (NodeId v = 0; v < g.node_count(); ++v)
        g.set_node_weight(v, g.node_weight(v) * rng.uniform(0.5, 1.5));
      for (EdgeId e = 0; e < g.edge_count(); ++e)
        g.edge(e).weight *= rng.uniform(0.5, 1.5);
      core::NetworkDesignProblem twin(std::move(g));
      twin.set_demands(inst.problem.demands());
      check_problem(twin, rng, 12, tally,
                    "n=" + std::to_string(n) + " jittered");
    }
  EXPECT_EQ(tally.mismatches, 0) << "of " << tally.subsets << " subsets";
  EXPECT_GT(tally.infeasible, 0);
  EXPECT_LT(tally.infeasible, tally.subsets);
}

/// Edge weights in {1, 2, 3} and node weights in {0, 1, 2}, parallel edges
/// included: many equal-cost paths, so the (distance, id) pop order and
/// strict-< relaxation decide which one each demand takes.
core::NetworkDesignProblem tie_heavy_problem(Rng& rng) {
  const std::size_t n = 6 + rng.next_below(35);
  Graph g = random_connected_graph(rng, n, n);
  for (NodeId v = 0; v < n; ++v)
    g.set_node_weight(v, static_cast<double>(rng.next_below(3)));
  core::NetworkDesignProblem p(std::move(g));
  std::vector<NodeId> pool(n);
  for (NodeId v = 0; v < n; ++v) pool[v] = v;
  add_random_demands(p, rng, pool, 1 + rng.next_below(8));
  return p;
}

/// Two or three separate blocks: demands inside a block route, demands
/// across blocks fail.
core::NetworkDesignProblem disconnected_problem(Rng& rng) {
  const std::size_t blocks = 2 + rng.next_below(2);
  Graph g;
  std::vector<std::vector<NodeId>> members(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t n = 4 + rng.next_below(12);
    const Graph part = random_connected_graph(rng, n, n / 2);
    const auto base = static_cast<NodeId>(g.node_count());
    for (NodeId v = 0; v < n; ++v) {
      g.add_node(static_cast<double>(1 + rng.next_below(4)));
      members[b].push_back(base + v);
    }
    for (const graph::Edge& e : part.edges())
      g.add_edge(base + e.u, base + e.v, e.weight);
  }
  core::NetworkDesignProblem p(std::move(g));
  for (int k = 0; k < 4; ++k)
    add_random_demands(p, rng, members[rng.next_below(blocks)], 1);
  std::vector<NodeId> everyone;
  for (const auto& m : members)
    everyone.insert(everyone.end(), m.begin(), m.end());
  add_random_demands(p, rng, everyone, 2);
  return p;
}

TEST(EvalDifferential, MatchesReferenceOnTieHeavyGraphs) {
  Rng rng(2024);
  Tally tally;
  for (int trial = 0; trial < 150; ++trial) {
    const core::NetworkDesignProblem p = tie_heavy_problem(rng);
    check_problem(p, rng, 8, tally, "trial " + std::to_string(trial));
  }
  EXPECT_EQ(tally.mismatches, 0) << "of " << tally.subsets << " subsets";
  EXPECT_GT(tally.infeasible, 0);
}

TEST(EvalDifferential, MatchesReferenceWithDisconnectedTerminals) {
  // The first failing demand must be the same one on both sides.
  Rng rng(77);
  Tally tally;
  for (int trial = 0; trial < 60; ++trial) {
    const core::NetworkDesignProblem p = disconnected_problem(rng);
    check_problem(p, rng, 8, tally, "trial " + std::to_string(trial));
  }
  EXPECT_EQ(tally.mismatches, 0) << "of " << tally.subsets << " subsets";
  EXPECT_GT(tally.infeasible, 0);
}

TEST(EvalDifferential, RouteCacheReuseIsExactUnderTies) {
  // The tie-heavy family, where equal-cost paths are the rule: a cached
  // route that avoids every node a subset drops is reused verbatim, and
  // must be the very route a fresh search inside the subset takes.
  Rng rng(4242);
  core::RoutingWorkspace ws;
  int subsets = 0, mismatches = 0;
  long reused = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const core::NetworkDesignProblem p = tie_heavy_problem(rng);
    const std::size_t n = p.graph().node_count();
    for (int c = 0; c < 4; ++c) {
      std::vector<NodeId> cached_nodes = p.terminals();
      const double keep = rng.uniform(0.4, 1.0);
      for (NodeId v = 0; v < n; ++v)
        if (rng.bernoulli(keep)) cached_nodes.push_back(v);
      std::size_t failed = 0;
      const auto cached = ref_route(p, cached_nodes, &failed);
      if (!cached) continue;
      for (int k = 0; k < 6; ++k) {
        const double drop = rng.uniform(0.02, 0.3);
        std::vector<NodeId> nodes;
        for (NodeId v : cached_nodes)
          if (!rng.bernoulli(drop)) nodes.push_back(v);
        if (nodes.empty()) continue;
        ++subsets;
        std::size_t want_failed = 0, got_failed = 0;
        const auto want = ref_route(p, nodes, &want_failed);
        const bool got = p.route_in_subgraph(ws, nodes, &got_failed,
                                             &cached_nodes, &*cached);
        bool same = got == want.has_value();
        if (want && got) {
          same &= same_routes(ws.routes, *want);
          for (const RoutedDemand& r : *cached)
            reused += std::all_of(r.path.begin(), r.path.end(), [&](NodeId v) {
              return std::find(nodes.begin(), nodes.end(), v) != nodes.end();
            });
        } else if (!want && !got) {
          same &= got_failed == want_failed;
        }
        if (!same) {
          ++mismatches;
          ADD_FAILURE() << "trial " << trial << " subset " << describe(nodes)
                        << " of " << describe(cached_nodes);
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << subsets << " subsets";
  EXPECT_GT(reused, 1000);
}

// ---------------------------------------------------------------------
// Incremental move evaluation against full evaluation: every removal,
// insertion and exchange of seeded incumbents, in random order, scored by
// an opt::MoveEvaluator per objective (reused across incumbents, so stale
// state would show) and by evaluate_design from scratch.

struct MoveTally {
  int incumbents = 0;
  long moves = 0;
  long infeasible = 0;
  long mismatches = 0;
};

/// Up to `count` random allowed sets that route every demand, each both as
/// drawn (unused nodes included) and as evaluate_design normalizes it.
std::vector<std::vector<NodeId>> seeded_designs(
    const core::NetworkDesignProblem& p, Rng& rng, int count) {
  const Graph& g = p.graph();
  std::vector<std::vector<NodeId>> out;
  for (int tries = 0; tries < 20 * count && out.size() < 2u * count;
       ++tries) {
    std::vector<NodeId> nodes = p.terminals();
    const double keep = rng.uniform(0.05, 0.4);
    for (NodeId v = 0; v < g.node_count(); ++v)
      if (rng.bernoulli(keep)) nodes.push_back(v);
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    const opt::CandidateDesign d =
        opt::evaluate_design(p, nodes, opt::DesignObjective{});
    if (!d.feasible) continue;
    out.push_back(nodes);
    out.push_back(d.nodes);
  }
  return out;
}

void check_moves(const core::NetworkDesignProblem& p, Rng& rng, int designs,
                 MoveTally& tally, const std::string& label) {
  constexpr NodeId kNone = graph::kInvalidNode;
  const std::size_t n = p.graph().node_count();
  const std::vector<opt::DesignObjective> objectives = objectives_for(p);
  std::vector<opt::MoveEvaluator> evals;
  evals.reserve(objectives.size());
  for (const opt::DesignObjective& obj : objectives) evals.emplace_back(p, obj);
  opt::EvalWorkspace full;
  for (const std::vector<NodeId>& s : seeded_designs(p, rng, designs)) {
    ++tally.incumbents;
    std::vector<char> in_s(n, 0);
    for (NodeId v : s) in_s[v] = 1;
    std::vector<std::pair<NodeId, NodeId>> moves;  // (removed, added)
    for (NodeId v : s) moves.emplace_back(v, kNone);
    for (NodeId u = 0; u < n; ++u)
      if (!in_s[u]) {
        moves.emplace_back(kNone, u);
        for (NodeId v : s) moves.emplace_back(v, u);
      }
    for (std::size_t i = moves.size(); i > 1; --i)
      std::swap(moves[i - 1], moves[rng.next_below(i)]);
    for (std::size_t k = 0; k < objectives.size(); ++k) {
      evals[k].reset(s);
      for (const auto& [removed, added] : moves) {
        std::vector<NodeId> cand;
        for (NodeId v : s)
          if (v != removed) cand.push_back(v);
        if (added != kNone) cand.push_back(added);
        const opt::CandidateDesign want = opt::evaluate_design(
            p, cand, objectives[k], nullptr, nullptr, full);
        const opt::CandidateDesign& got = evals[k].evaluate(removed, added);
        ++tally.moves;
        bool same = same_design(got, want);
        if (want.feasible)
          same &= same_routes(evals[k].routes(), full.routing.routes);
        else
          ++tally.infeasible;
        if (!same) {
          ++tally.mismatches;
          ADD_FAILURE() << label << " objective " << k << " incumbent "
                        << describe(s) << " removed " << removed
                        << " added " << added;
        }
      }
    }
  }
  for (opt::MoveEvaluator& e : evals) e.publish();
}

/// Counts the move evaluators published: kept routes and searches run.
struct PublishedWork {
  obs::CounterRegistry registry;
  obs::ScopedRegistry scope{&registry};
  std::uint64_t get(const std::string& name) const {
    const auto snap = registry.snapshot();
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  }
};

TEST(EvalDifferential, IncrementalMovesMatchFullEvaluation) {
  PublishedWork work;
  MoveTally tally;
  // Design instances at n = 20 and 50, and one at the benchmark's scale
  // (n = 100, 8 demands).
  std::vector<std::pair<std::size_t, std::size_t>> sizes = {{100, 8}};
  for (std::size_t n : {20, 50})
    for (std::size_t demands : {2, 7, 16}) sizes.emplace_back(n, demands);
  for (const auto& [n, demands] : sizes) {
    opt::DesignInstanceSpec spec;
    spec.node_count = n;
    spec.demand_count = demands;
    spec.seed = 300 * n + demands;
    spec.demand_weights = {1.0, 0.1, 0.7, 1.3};
    const auto inst = opt::make_design_instance(spec);
    Rng rng(spec.seed);
    check_moves(inst.problem, rng, 1, tally, "n=" + std::to_string(n));
  }
  Rng rng(2025);
  for (int trial = 0; trial < 50; ++trial)
    check_moves(tie_heavy_problem(rng), rng, 2, tally,
                "tie-heavy trial " + std::to_string(trial));
  for (int trial = 0; trial < 30; ++trial) {
    // Keep the demands that route on the whole graph: the design then
    // spans disconnected blocks, and moves that cut a block fail.
    core::NetworkDesignProblem p = disconnected_problem(rng);
    std::vector<graph::Demand> routable;
    for (const graph::Demand& d : p.demands())
      if (graph::dijkstra(p.graph(), d.source).reachable(d.destination))
        routable.push_back(d);
    p.set_demands(routable);
    check_moves(p, rng, 2, tally, "disconnected trial " + std::to_string(trial));
  }
  EXPECT_EQ(tally.mismatches, 0) << "of " << tally.moves << " moves";
  EXPECT_GT(tally.incumbents, 150);
  EXPECT_GT(tally.infeasible, 0);
  EXPECT_LT(tally.infeasible, tally.moves);
  // The rules did skip searches (the count is 0 with telemetry off).
  if (obs::kEnabled) {
    EXPECT_GT(work.get("opt.eval.routes_reused"), 0u);
  }
}

}  // namespace
}  // namespace eend
