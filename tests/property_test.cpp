// Property-based tests (parameterized gtest): invariants that must hold
// across randomized inputs and across every protocol stack.
#include <gtest/gtest.h>

#include <algorithm>

#include "analytical/route_energy.hpp"
#include "graph/shortest_path.hpp"
#include "graph/steiner.hpp"
#include "net/network.hpp"
#include "util/rng.hpp"

namespace eend {
namespace {

// ---------------------------------------------------------------------
// Dijkstra vs Bellman-Ford on random weighted graphs.
class ShortestPathProperty : public ::testing::TestWithParam<std::uint64_t> {
};

/// A ring of n nodes plus up to 2n random chords, weights in [0.1, 5).
graph::Graph random_ring_graph(Rng& rng, std::size_t n) {
  graph::Graph g(n);
  for (graph::NodeId v = 0; v < n; ++v)
    g.add_edge(v, static_cast<graph::NodeId>((v + 1) % n),
               rng.uniform(0.1, 5.0));
  const std::size_t extra = rng.next_below(2 * n);
  for (std::size_t i = 0; i < extra; ++i) {
    const auto a = static_cast<graph::NodeId>(rng.next_below(n));
    const auto b = static_cast<graph::NodeId>(rng.next_below(n));
    if (a != b) g.add_edge(a, b, rng.uniform(0.1, 5.0));
  }
  return g;
}

TEST_P(ShortestPathProperty, DijkstraMatchesBellmanFord) {
  Rng rng(GetParam());
  const std::size_t n = 4 + rng.next_below(12);
  const graph::Graph g = random_ring_graph(rng, n);
  const auto src = static_cast<graph::NodeId>(rng.next_below(n));
  const auto d = graph::dijkstra(g, src);
  const auto bf = graph::bellman_ford(g, src);
  for (graph::NodeId v = 0; v < n; ++v)
    EXPECT_NEAR(d.distance[v], bf.distance[v], 1e-9) << "node " << v;
  // Paths reconstruct to their own costs.
  for (graph::NodeId v = 0; v < n; ++v) {
    if (!d.reachable(v) || v == src) continue;
    const auto path = d.path_to(v);
    EXPECT_NEAR(graph::path_cost(g, path), d.distance[v], 1e-9);
  }
}

TEST_P(ShortestPathProperty, MaskedTargetStopMatchesInducedSubgraph) {
  // The induced-subgraph router, stopped at each target, against a full
  // dijkstra() on the induced subgraph built explicitly (same node ids,
  // allowed-to-allowed edges in their original order): the same path, the
  // relaxed edges joining its hops, and their weights summing bit-exactly
  // to the full run's distance. One router serves every target in turn.
  Rng rng(GetParam() * 31337);
  const std::size_t n = 4 + rng.next_below(28);
  const graph::Graph g = random_ring_graph(rng, n);
  const auto src = static_cast<graph::NodeId>(rng.next_below(n));
  std::vector<graph::NodeId> allowed;
  for (graph::NodeId v = 0; v < n; ++v)
    if (v == src || rng.bernoulli(0.7)) allowed.push_back(v);
  graph::Graph sub(n);
  for (const graph::Edge& e : g.edges()) {
    const auto in = [&](graph::NodeId v) {
      return std::binary_search(allowed.begin(), allowed.end(), v);
    };
    if (in(e.u) && in(e.v)) sub.add_edge(e.u, e.v, e.weight);
  }

  const auto full = graph::dijkstra(sub, src);
  graph::SubgraphRouter router;
  std::reverse(allowed.begin(), allowed.end());  // any order will do
  router.restrict_to(g, allowed);
  std::vector<graph::NodeId> path;
  std::vector<graph::EdgeId> edges;
  for (graph::NodeId dst : allowed) {
    const bool found = router.route(src, dst, path, edges);
    ASSERT_EQ(found, full.reachable(dst)) << "node " << dst;
    if (!found) continue;
    EXPECT_EQ(path, full.path_to(dst)) << "node " << dst;
    ASSERT_EQ(edges.size() + 1, path.size());
    double cost = 0.0;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      const graph::Edge& e = g.edge(edges[i]);
      EXPECT_TRUE((e.u == path[i] && e.v == path[i + 1]) ||
                  (e.v == path[i] && e.u == path[i + 1]));
      cost += e.weight;
    }
    EXPECT_EQ(cost, full.distance[dst]) << "node " << dst;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, ShortestPathProperty,
                         ::testing::Range<std::uint64_t>(1, 25));

// ---------------------------------------------------------------------
// KMB feasibility + 2-approximation sanity against the terminal-spanning
// lower bound (an MST over terminals in the metric closure / 2).
class SteinerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SteinerProperty, KmbFeasibleOnConnectedGraphs) {
  Rng rng(GetParam() * 7919);
  const std::size_t n = 6 + rng.next_below(10);
  graph::Graph g(n);
  for (graph::NodeId v = 0; v + 1 < n; ++v)
    g.add_edge(v, v + 1, rng.uniform(0.5, 3.0));
  for (std::size_t i = 0; i < n; ++i) {
    const auto a = static_cast<graph::NodeId>(rng.next_below(n));
    const auto b = static_cast<graph::NodeId>(rng.next_below(n));
    if (a != b) g.add_edge(a, b, rng.uniform(0.5, 3.0));
  }
  std::vector<graph::NodeId> terms;
  for (graph::NodeId v = 0; v < n; ++v)
    if (rng.bernoulli(0.4)) terms.push_back(v);
  if (terms.size() < 2) terms = {0, static_cast<graph::NodeId>(n - 1)};

  const auto t = graph::kmb_steiner_tree(g, terms);
  ASSERT_TRUE(t.feasible);
  // Tree property: |E| = |V| - #components(=1).
  EXPECT_EQ(t.edges.size(), t.nodes.size() - 1);
  // Cost at least the cheapest terminal-to-terminal distance.
  const auto spt = graph::dijkstra(g, terms[0]);
  double nearest = graph::kInfCost;
  for (std::size_t i = 1; i < terms.size(); ++i)
    nearest = std::min(nearest, spt.distance[terms[i]]);
  EXPECT_GE(t.edge_cost + 1e-9, nearest);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, SteinerProperty,
                         ::testing::Range<std::uint64_t>(1, 15));

// ---------------------------------------------------------------------
// Energy meter: random mode traces never produce negative buckets, and the
// category decomposition always sums to the total.
class MeterProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MeterProperty, RandomTraceConserved) {
  Rng rng(GetParam() * 104729);
  const auto card = energy::cabletron();
  energy::EnergyMeter m(card);
  double now = 0.0;
  m.begin(now, energy::RadioMode::Idle);
  bool active = false;
  for (int step = 0; step < 200; ++step) {
    now += rng.uniform(0.0, 0.5);
    const int choice = static_cast<int>(rng.next_below(active ? 2 : 4));
    if (active) {
      m.set_passive_mode(now, rng.bernoulli(0.5) ? energy::RadioMode::Idle
                                                 : energy::RadioMode::Sleep);
      active = false;
      continue;
    }
    switch (choice) {
      case 0:
        m.set_passive_mode(now, energy::RadioMode::Idle);
        break;
      case 1:
        m.set_passive_mode(now, energy::RadioMode::Sleep);
        break;
      case 2:
        m.set_transmit(now, rng.uniform(0.5, 2.0),
                       rng.bernoulli(0.5) ? energy::Category::Data
                                          : energy::Category::Control);
        active = true;
        break;
      case 3:
        m.set_receive(now, energy::Category::Data);
        active = true;
        break;
    }
  }
  now += 1.0;
  m.finish(now);
  EXPECT_GE(m.data_energy(), 0.0);
  EXPECT_GE(m.control_energy(), 0.0);
  EXPECT_GE(m.passive_energy(), 0.0);
  EXPECT_NEAR(m.total(),
              m.data_energy() + m.control_energy() + m.passive_energy(),
              1e-9);
  const double time_sum =
      m.time_in(energy::RadioMode::Transmit) +
      m.time_in(energy::RadioMode::Receive) +
      m.time_in(energy::RadioMode::Idle) + m.time_in(energy::RadioMode::Sleep);
  EXPECT_NEAR(time_sum, now, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomTraces, MeterProperty,
                         ::testing::Range<std::uint64_t>(1, 20));

// ---------------------------------------------------------------------
// Characteristic hop count: the closed form minimizes route power across
// every card and utilization (within integer rounding).
struct MoptCase {
  std::string card;
  double rb;
};

class MoptProperty
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(MoptProperty, BruteForceBracketsContinuousOptimum) {
  // Route power is convex in the hop count, so the best integer solution
  // must be floor(m_opt) or ceil(m_opt) (clamped to >= 1).
  const auto card = energy::card_by_name(std::get<0>(GetParam()));
  const double rb = std::get<1>(GetParam());
  const double D = card.max_range_m;
  const int brute = analytical::brute_force_best_hops(card, D, rb, 32);
  const double m = analytical::mopt_continuous(card, D, rb);
  const int lo = std::max(1, static_cast<int>(std::floor(m)));
  const int hi = std::max(1, static_cast<int>(std::ceil(m)));
  EXPECT_TRUE(brute == lo || brute == hi)
      << "brute=" << brute << " m_opt=" << m;
  // And the paper's rounding never loses more than the floor/ceil gap.
  const int closed =
      std::max(1, analytical::characteristic_hop_count(card, D, rb));
  EXPECT_TRUE(closed == lo || closed == hi);
}

INSTANTIATE_TEST_SUITE_P(
    CardsAndRates, MoptProperty,
    ::testing::Combine(::testing::Values("Aironet350", "Cabletron", "Mica2",
                                         "LEACH-n4", "LEACH-n2",
                                         "HypoCabletron"),
                       ::testing::Values(0.1, 0.2, 0.25, 0.35, 0.5)));

// ---------------------------------------------------------------------
// Whole-stack invariants on a small network, across every protocol stack:
// delivery ratio in [0,1], energy conservation, goodput consistency.
class StackProperty : public ::testing::TestWithParam<int> {
 public:
  static net::StackSpec stack(int idx) {
    using S = net::StackSpec;
    switch (idx) {
      case 0: return S::dsr_active();
      case 1: return S::dsr_odpm();
      case 2: return S::dsr_odpm_pc();
      case 3: return S::titan_pc();
      case 4: return S::dsrh_odpm_rate();
      case 5: return S::dsrh_odpm_norate();
      case 6: return S::dsdvh_odpm_psm();
      case 7: return S::dsdvh_odpm_span();
      case 8: return S::mtpr_odpm();
      case 9: return S::mtpr_plus_odpm();
      case 10: return S::dsr_perfect();
      default: return S::titan_pc_perfect();
    }
  }
};

TEST_P(StackProperty, RunInvariantsHold) {
  net::ScenarioConfig sc;
  sc.node_count = 16;
  sc.field_w = sc.field_h = 450.0;
  sc.flow_count = 3;
  sc.rate_pps = 2.0;
  sc.duration_s = 60.0;
  sc.seed = 11;
  net::Network n(sc, StackProperty::stack(GetParam()));
  const auto r = n.run();

  EXPECT_GE(r.delivery_ratio, 0.0);
  EXPECT_LE(r.delivery_ratio, 1.0);
  EXPECT_LE(r.delivered, r.sent);
  EXPECT_GT(r.sent, 0u);

  // Energy conservation: categories sum to the total.
  EXPECT_NEAR(r.total_energy_j,
              r.data_energy_j + r.control_energy_j + r.passive_energy_j,
              1e-6);
  EXPECT_GE(r.transmit_energy_j, 0.0);
  EXPECT_GE(r.passive_energy_j, 0.0);

  // Goodput is delivered bits over total energy.
  if (r.total_energy_j > 0.0) {
    const double recomputed =
        static_cast<double>(r.delivered) * sc.payload_bits / r.total_energy_j;
    EXPECT_NEAR(r.goodput_bit_per_j, recomputed, 1e-6);
  }

  // The energy bound: no node can beat sleep power or exceed a
  // transmit-everything bound.
  const double dur = sc.duration_s;
  const auto& card = sc.card;
  const double nodes = static_cast<double>(sc.node_count);
  EXPECT_GE(r.total_energy_j, nodes * card.p_sleep * dur * 0.5);
  EXPECT_LE(r.total_energy_j, nodes * card.max_transmit_power() * dur);
}

INSTANTIATE_TEST_SUITE_P(AllStacks, StackProperty, ::testing::Range(0, 12));

// ---------------------------------------------------------------------
// Determinism across stacks: same seed, same result.
TEST_P(StackProperty, RunsAreDeterministic) {
  net::ScenarioConfig sc;
  sc.node_count = 12;
  sc.field_w = sc.field_h = 400.0;
  sc.flow_count = 2;
  sc.duration_s = 30.0;
  sc.seed = 23;
  net::Network a(sc, StackProperty::stack(GetParam()));
  net::Network b(sc, StackProperty::stack(GetParam()));
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(ra.sent, rb.sent);
  EXPECT_EQ(ra.delivered, rb.delivered);
  EXPECT_DOUBLE_EQ(ra.total_energy_j, rb.total_energy_j);
  EXPECT_EQ(ra.channel_transmissions, rb.channel_transmissions);
}

}  // namespace
}  // namespace eend
