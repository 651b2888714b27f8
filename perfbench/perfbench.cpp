// The repository benchmark: one named workload, one seed, one
// closed loop with a single caller (the next operation starts when the
// previous one returns), jobs = 1 throughout.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--commit C]
//
// Workloads (perfbench/README.md says why each exists):
//   sim_dsdv_small  §5.2.1 50-node field, DSDVH stacks, one op = one
//                   replication (Network construction + run, every stack)
//   sim_dsr_large   huge_field(1000), DSR stacks, same op shape
//   design_cold     n=100 design instances, one op = the six `design`
//                   heuristics on one instance sharing one Klein-Ravi tree
//   churn_serve     n=100 serving loops, one op = one epoch
//                   (ChurnState::advance + opt::warm_start_search)
//
// Every run sets its inputs up, runs one untimed warm-up op, then cycles
// through the op list until --seconds have passed; an untraced run repeats
// the set-up on a spare workload between ops (setup_s is the median). The
// first pass is always completed: its outputs are the run's deterministic
// values, and every later pass must reproduce them exactly. Every op's
// output is checked by code in this file; a failed check counts as a failed
// op.
//
// --trace 0 measures the end-to-end metrics with no span or counter
// registry installed. --trace 1 traces the whole first pass and every other
// op of the later passes: a traced op records a span around each call into
// a layer's public functions, each span with its own obs::CounterRegistry
// (so counts land on the layer that did the work). The per-layer metrics
// come from the traced ops, and trace_overhead_pct compares the later
// passes' traced and untraced ops.
//
// Output, on stdout: (traced runs) a per-layer table, then an `env:` line
// with the build labels, a `deterministic:` line the self-test compares
// across runs, and last the result object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "churn/trace.hpp"
#include "core/design_problem.hpp"
#include "net/network.hpp"
#include "obs/counters.hpp"
#include "opt/design_heuristic.hpp"
#include "opt/design_instance.hpp"
#include "opt/portfolio.hpp"
#include "opt/warm_start.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace eend;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinSetups = 3;
constexpr double kSetupShare = 0.1;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double mean(const std::vector<double>& xs) {
  double s = 0.0;
  for (const double x : xs) s += x;
  return xs.empty() ? 0.0 : s / static_cast<double>(xs.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ------------------------------------------------------------- tracing ---

/// In-memory span recorder. A span's self time is its duration minus the
/// time its child spans cover; spans nest strictly (one thread), so the
/// covered part is the sum of the children's durations.
class Tracer {
 public:
  struct Stat {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  void open(const std::string& name) {
    auto f = std::make_unique<Frame>();
    f->name = name;
    f->scope = std::make_unique<obs::ScopedRegistry>(&f->reg);
    f->start = Clock::now();
    frames_.push_back(std::move(f));
  }

  void close() {
    const auto end = Clock::now();
    std::unique_ptr<Frame> f = std::move(frames_.back());
    frames_.pop_back();
    f->scope.reset();  // restore the enclosing span's registry
    const double d = std::chrono::duration<double>(end - f->start).count();
    Stat& s = stats_[f->name];
    ++s.count;
    s.total_s += d;
    s.self_s += d - f->child_s;
    if (!frames_.empty()) frames_.back()->child_s += d;
    const obs::CounterSnapshot snap = f->reg.snapshot();
    pass_counts_[f->name].merge_from(snap);
    total_counts_[f->name].merge_from(snap);
  }

  const Stat& stat(const std::string& name) const {
    static const Stat kNone;
    const auto it = stats_.find(name);
    return it == stats_.end() ? kNone : it->second;
  }
  double mean_self_s(const std::string& name) const {
    const Stat& s = stat(name);
    return ratio(s.self_s, static_cast<double>(s.count));
  }
  const std::map<std::string, Stat>& stats() const { return stats_; }

  /// Counts published inside spans named `span` since the run began.
  double total_count(const std::string& span,
                     const std::string& counter) const {
    return lookup(total_counts_, span, counter);
  }

  /// Counts recorded since the last call, keyed by span name.
  std::map<std::string, obs::CounterSnapshot> take_pass_counts() {
    return std::exchange(pass_counts_, {});
  }

  static double lookup(const std::map<std::string, obs::CounterSnapshot>& m,
                       const std::string& span, const std::string& counter) {
    const auto it = m.find(span);
    if (it == m.end()) return 0.0;
    const auto c = it->second.counters.find(counter);
    return c == it->second.counters.end() ? 0.0
                                          : static_cast<double>(c->second);
  }

 private:
  struct Frame {
    std::string name;
    Clock::time_point start;
    double child_s = 0.0;
    obs::CounterRegistry reg;
    std::unique_ptr<obs::ScopedRegistry> scope;
  };
  std::vector<std::unique_ptr<Frame>> frames_;
  std::map<std::string, Stat> stats_;
  std::map<std::string, obs::CounterSnapshot> pass_counts_;
  std::map<std::string, obs::CounterSnapshot> total_counts_;
};

/// RAII span; a null tracer records nothing and installs no registry.
class Span {
 public:
  Span(Tracer* t, const char* name) : t_(t) {
    if (t_) t_->open(name);
  }
  ~Span() {
    if (t_) t_->close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

// -------------------------------------------------------- output checks ---

/// Failed-check reporter: the first few reasons go to stderr.
struct Checks {
  std::size_t reported = 0;
  bool fail(const std::string& why) {
    if (++reported <= 10)
      std::cerr << "perfbench: check failed: " << why << "\n";
    return false;
  }
};

/// Independent feasibility check (shares no code with evaluate_design or
/// RouteCache): how many demands have both endpoints in `nodes`, connected
/// by a path that uses only `nodes`. A node id out of range connects none.
std::size_t connected_demands(const core::NetworkDesignProblem& problem,
                              const std::vector<graph::NodeId>& nodes) {
  const graph::Graph& g = problem.graph();
  std::vector<char> in(g.node_count(), 0);
  for (const graph::NodeId v : nodes) {
    if (v >= g.node_count()) return 0;
    in[v] = 1;
  }
  std::vector<int> seen(g.node_count(), -1);
  std::vector<graph::NodeId> queue;
  std::size_t connected = 0;
  int round = 0;
  for (const graph::Demand& d : problem.demands()) {
    ++round;
    if (!in[d.source] || !in[d.destination]) continue;
    queue.assign(1, d.source);
    seen[d.source] = round;
    bool reached = d.source == d.destination;
    for (std::size_t head = 0; head < queue.size() && !reached; ++head)
      for (const graph::Adjacency& a : g.neighbors(queue[head])) {
        if (!in[a.neighbor] || seen[a.neighbor] == round) continue;
        seen[a.neighbor] = round;
        if (a.neighbor == d.destination) reached = true;
        queue.push_back(a.neighbor);
      }
    if (reached) ++connected;
  }
  return connected;
}

// ------------------------------------------------------------ workloads ---

/// Which pass an op belongs to: the untimed warm-up, the first pass (the
/// reference every later pass must repeat), or a later pass.
enum class Pass { kWarmup, kFirst, kLater };

/// What one op hands back to the loop.
struct OpOutput {
  double seconds = 0.0;  ///< the op's headline host time
  bool ok = true;        ///< every output check passed
  /// Deterministic outputs; every later pass must reproduce them exactly.
  std::vector<double> digest;
};

using Metrics = json::Object;

void put(Metrics& m, const std::string& name, double value,
         const std::string& unit) {
  m.emplace_back(name, json::Object{{"value", json::Value(value)},
                                    {"unit", json::Value(unit)}});
}

/// The per-layer metrics, in BENCHMARK.json's order: every traced run
/// prints all of them, and a layer its workload never calls reads 0.
constexpr std::pair<const char*, const char*> kPerLayer[] = {
    {"trace_overhead_pct", "%"},
    {"net.build_s", "s"},
    {"net.run_s", "s"},
    {"sim.events_per_s", "events/s"},
    {"sim.ns_per_event", "ns"},
    {"sim.events_fired", "count"},
    {"sim.events_cancelled", "count"},
    {"sim.closure_pool_spills", "count"},
    {"sim.spills_per_tx", "ratio"},
    {"pool.fresh_blocks", "count"},
    {"pool.reuse_hits", "count"},
    {"mac.transmissions", "count"},
    {"mac.collision_ratio", "ratio"},
    {"mac.queue_drops", "count"},
    {"routing.update_tx", "count"},
    {"routing.rreq_tx", "count"},
    {"routing.control_share", "ratio"},
    {"energy.total_j", "J"},
    {"energy.control_j", "J"},
    {"traffic.sent", "count"},
    {"traffic.delivered", "count"},
    {"core.instance_s", "s"},
    {"graph.kr_s", "s"},
    {"graph.mpc_s", "s"},
    {"graph.kmb_s", "s"},
    {"graph.kr_cost_j", "J"},
    {"opt.ls_s", "s"},
    {"opt.sa_s", "s"},
    {"opt.portfolio_s", "s"},
    {"opt.ls.evaluations", "count"},
    {"opt.ls.accept_ratio", "ratio"},
    {"opt.sa.proposals", "count"},
    {"opt.sa.accept_ratio", "ratio"},
    {"opt.eval_us", "us"},
    {"churn.advance_s", "s"},
    {"churn.events_applied", "count"},
    {"churn.topology_epochs", "count"},
    {"opt.warm_s", "s"},
    {"opt.warm.evaluations", "count"},
    {"opt.warm.rerouted_demands", "count"},
    {"opt.warm.fallback_rate", "ratio"},
    {"opt.cache.hit_ratio", "ratio"},
    {"graph.kr_ref_s", "s"},
};

/// Per-layer values by name; only names of kPerLayer are accepted.
class LayerMetrics {
 public:
  void set(const std::string& name, double value) {
    if (std::none_of(std::begin(kPerLayer), std::end(kPerLayer),
                     [&](const auto& e) { return name == e.first; }))
      throw std::logic_error("per-layer metric not in the catalog: " + name);
    values_[name] = value;
  }
  void emit(Metrics& m) const {
    for (const auto& [name, unit] : kPerLayer) {
      const auto it = values_.find(name);
      put(m, name, it == values_.end() ? 0.0 : it->second, unit);
    }
  }

 private:
  std::map<std::string, double> values_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the generated inputs from the seed.
  virtual void setup(std::uint64_t seed, Tracer* t) = 0;
  virtual std::size_t ops_per_pass() const = 0;
  virtual OpOutput run_op(std::size_t i, Tracer* t, Pass pass,
                          Checks& checks) = 0;
  /// Energy the first pass's outputs cost per op (deterministic).
  virtual double energy_j() const = 0;
  /// Share of the first pass's traffic or demands delivered (deterministic).
  virtual double delivery_ratio() const = 0;
  /// Per-layer metrics from the traced passes; `pass` holds the first
  /// traced pass's counts by span. Also prints each ratio with its base.
  virtual void per_layer(LayerMetrics& m, const Tracer& t,
                         const std::map<std::string, obs::CounterSnapshot>&
                             pass) = 0;
  /// Deterministic quality values for the self-test (first pass).
  virtual json::Object quality() const = 0;
};

void print_ratio(const std::string& name, double num, const std::string& nb,
                 double den, const std::string& db) {
  std::cout << "  " << name << " = " << ratio(num, den) << "  (" << nb
            << " " << num << " / " << db << " " << den << ")\n";
}

// ---- sim_*: protocol-stack simulation ------------------------------------

class SimWorkload final : public Workload {
 public:
  struct Config {
    net::ScenarioConfig base;
    std::vector<std::string> stacks;
    std::vector<double> rates;
    std::size_t seeds_per_cell = 1;
    bool proactive = false;  ///< DSDV (update counts) vs DSR (RREQ counts)
  };
  explicit SimWorkload(Config c) : cfg_(std::move(c)) {}

  void setup(std::uint64_t seed, Tracer* t) override {
    Span span(t, "setup.scenarios");
    stacks_.clear();
    for (const std::string& name : cfg_.stacks)
      stacks_.push_back(net::stack_preset(name));
    items_.clear();
    for (const double rate : cfg_.rates)
      for (std::size_t r = 0; r < cfg_.seeds_per_cell; ++r) {
        Item it;
        it.scenario = cfg_.base;
        it.scenario.rate_pps = rate;
        it.scenario.seed = 1000 * seed + items_.size();
        it.scenario.validate();
        // The placement and flows this scenario implies; the op checks the
        // Networks it builds carry exactly these inputs.
        it.node_count = net::place_nodes(it.scenario).size();
        it.flows = net::make_flows(it.scenario);
        items_.push_back(std::move(it));
      }
  }

  std::size_t ops_per_pass() const override { return items_.size(); }

  /// One replication: the scenario through every stack of the workload (the
  /// stacks differ several-fold in cost, so a per-stack op would put the
  /// median in the gap between them).
  OpOutput run_op(std::size_t i, Tracer* t, Pass pass,
                  Checks& checks) override {
    const Item& it = items_[i];
    OpOutput out;
    for (const net::StackSpec& stack : stacks_) {
      const auto t0 = Clock::now();
      std::optional<net::Network> network;
      {
        Span span(t, "net.build");
        network.emplace(it.scenario, stack);
      }
      const auto t1 = Clock::now();
      metrics::RunResult r;
      {
        Span span(t, "net.run");
        r = network->run();
      }
      const auto t2 = Clock::now();
      out.seconds += std::chrono::duration<double>(t2 - t0).count();
      const double events =
          static_cast<double>(network->simulator().executed_events());
      if (pass != Pass::kWarmup) {
        events_ += events;
        run_s_ += std::chrono::duration<double>(t2 - t1).count();
      }
      if (!check_run(*network, r, it, checks)) out.ok = false;
      out.digest.insert(out.digest.end(),
                        {static_cast<double>(r.sent),
                         static_cast<double>(r.delivered), r.total_energy_j,
                         r.control_energy_j, r.goodput_bit_per_j,
                         static_cast<double>(r.channel_transmissions),
                         events});
      if (pass == Pass::kFirst) {
        first_.delivery.push_back(r.delivery_ratio);
        first_.goodput.push_back(r.goodput_bit_per_j);
        first_.update_tx += static_cast<double>(r.update_transmissions);
        first_.rreq_tx += static_cast<double>(r.rreq_transmissions);
        first_.energy_j += r.total_energy_j;
        first_.control_j += r.control_energy_j;
        first_.sent += static_cast<double>(r.sent);
        first_.delivered += static_cast<double>(r.delivered);
        first_.tx += static_cast<double>(r.channel_transmissions);
        first_.collisions += static_cast<double>(r.mac_collisions);
        first_.queue_drops += static_cast<double>(r.mac_queue_drops);
      }
    }
    return out;
  }

  /// Simulated energy of one replication (every stack), first-pass mean.
  double energy_j() const override {
    return ratio(first_.energy_j, static_cast<double>(items_.size()));
  }
  /// Mean §5 delivery ratio over the first pass's runs.
  double delivery_ratio() const override { return mean(first_.delivery); }

  void per_layer(LayerMetrics& m, const Tracer& t,
                 const std::map<std::string, obs::CounterSnapshot>& pass)
      override {
    const auto count = [&](const char* c) {
      return Tracer::lookup(pass, "net.run", c);
    };
    m.set("net.build_s", t.mean_self_s("net.build"));
    m.set("net.run_s", t.mean_self_s("net.run"));
    m.set("sim.events_per_s", ratio(events_, run_s_));
    const double fired_total = t.total_count("net.run", "sim.events_fired");
    m.set("sim.ns_per_event",
          1e9 * ratio(t.stat("net.run").self_s, fired_total));
    m.set("sim.events_fired", count("sim.events_fired"));
    m.set("sim.events_cancelled", count("sim.events_cancelled"));
    const double spills = count("sim.closure_pool_spills");
    m.set("sim.closure_pool_spills", spills);
    m.set("sim.spills_per_tx", ratio(spills, first_.tx));
    m.set("pool.fresh_blocks", count("pool.fresh_blocks"));
    m.set("pool.reuse_hits", count("pool.reuse_hits"));
    m.set("mac.transmissions", first_.tx);
    m.set("mac.collision_ratio", ratio(first_.collisions, first_.tx));
    m.set("mac.queue_drops", first_.queue_drops);
    m.set("routing.update_tx", first_.update_tx);
    m.set("routing.rreq_tx", first_.rreq_tx);
    const double control_tx =
        cfg_.proactive ? first_.update_tx : first_.rreq_tx;
    m.set("routing.control_share", ratio(control_tx, first_.tx));
    m.set("energy.total_j", first_.energy_j);
    m.set("energy.control_j", first_.control_j);
    m.set("traffic.sent", first_.sent);
    m.set("traffic.delivered", first_.delivered);

    std::cout << "ratios (first traced pass):\n";
    print_ratio("sim.ns_per_event", 1e9 * t.stat("net.run").self_s,
                "net.run self ns", fired_total, "sim.events_fired");
    print_ratio("sim.spills_per_tx", spills, "sim.closure_pool_spills",
                first_.tx, "mac.transmissions");
    print_ratio("mac.collision_ratio", first_.collisions, "mac.collisions",
                first_.tx, "mac.transmissions");
    print_ratio("routing.control_share", control_tx,
                cfg_.proactive ? "routing.update_tx" : "routing.rreq_tx",
                first_.tx, "mac.transmissions");
  }

  json::Object quality() const override {
    return {{"energy_j", json::Value(energy_j())},
            {"delivery_ratio", json::Value(delivery_ratio())},
            {"sim.goodput_bit_per_j", json::Value(mean(first_.goodput))}};
  }

 private:
  struct Item {
    net::ScenarioConfig scenario;
    std::size_t node_count = 0;
    std::vector<traffic::FlowSpec> flows;
  };
  struct FirstPass {
    std::vector<double> delivery, goodput;
    double update_tx = 0, rreq_tx = 0, energy_j = 0, control_j = 0,
           sent = 0, delivered = 0, tx = 0, collisions = 0, queue_drops = 0;
  };

  static bool check_run(net::Network& network, const metrics::RunResult& r,
                        const Item& it, Checks& checks) {
    const std::string tag = network.stack().label + " seed " +
                            std::to_string(it.scenario.seed);
    bool ok = true;
    if (network.node_count() != it.node_count)
      ok = checks.fail(tag + ": node count differs from the scenario");
    if (!same_flows(network.flows(), it.flows))
      ok = checks.fail(tag + ": flows differ from the generated ones");
    if (r.delivered > r.sent) ok = checks.fail(tag + ": delivered > sent");
    if (network.simulator().executed_events() == 0)
      ok = checks.fail(tag + ": no events executed");
    const double by_use =
        r.data_energy_j + r.control_energy_j + r.passive_energy_j;
    const double by_mode = r.transmit_energy_j + r.receive_energy_j +
                           r.idle_energy_j + r.sleep_energy_j +
                           r.switch_energy_j;
    const double tol = 1e-9 * std::max(1.0, r.total_energy_j);
    if (!(r.total_energy_j > 0.0) ||
        std::abs(by_use - r.total_energy_j) > tol ||
        std::abs(by_mode - r.total_energy_j) > tol)
      ok = checks.fail(tag + ": energy categories do not sum to total");
    return ok;
  }

  static bool same_flows(const std::vector<traffic::FlowSpec>& a,
                         const std::vector<traffic::FlowSpec>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t j = 0; j < a.size(); ++j)
      if (a[j].source != b[j].source ||
          a[j].destination != b[j].destination ||
          a[j].packets_per_s != b[j].packets_per_s ||
          a[j].start_s != b[j].start_s)
        return false;
    return true;
  }

  Config cfg_;
  std::vector<net::StackSpec> stacks_;
  std::vector<Item> items_;
  FirstPass first_;
  double events_ = 0.0;  ///< executed events over every op of the run
  double run_s_ = 0.0;   ///< host seconds inside Network::run, same ops
};

// ---- design_cold: the `design` kind's six heuristics per instance --------

constexpr std::size_t kDesignNodes = 100;
constexpr std::size_t kDesignDemands = 8;
constexpr std::size_t kStarts = 8;
constexpr std::size_t kAnnealIters = 300;

opt::DesignInstanceSpec instance_spec(std::uint64_t seed) {
  opt::DesignInstanceSpec spec;
  spec.node_count = kDesignNodes;
  spec.demand_count = kDesignDemands;
  spec.seed = seed;
  return spec;
}

opt::DesignInstance build_instance(const opt::DesignInstanceSpec& spec,
                                   Tracer* t) {
  Span span(t, "core.instance");
  return opt::make_design_instance(spec);
}

class DesignWorkload final : public Workload {
 public:
  explicit DesignWorkload(std::size_t instances) : count_(instances) {}

  void setup(std::uint64_t seed, Tracer* t) override {
    instances_.clear();
    for (std::size_t k = 0; k < count_; ++k) {
      const opt::DesignInstanceSpec spec = instance_spec(1000 * seed + k);
      instances_.push_back({spec.seed, build_instance(spec, t)});
    }
  }

  std::size_t ops_per_pass() const override { return instances_.size(); }

  OpOutput run_op(std::size_t i, Tracer* t, Pass pass,
                  Checks& checks) override {
    const bool first = pass == Pass::kFirst;
    const core::NetworkDesignProblem& problem = instances_[i].inst.problem;
    const std::uint64_t seed = instances_[i].seed;
    opt::HeuristicOptions ho;
    ho.starts = kStarts;
    ho.anneal_iterations = kAnnealIters;
    ho.jobs = 1;

    // Span names per heuristic; mpc and kmb are one constructive solve
    // (solve_mpc_reduction / solve_edge_weighted) plus one evaluation.
    static const std::vector<std::pair<std::string, const char*>> kRuns = {
        {"klein_ravi", "opt.klein_ravi"}, {"mpc", "graph.mpc"},
        {"kmb", "graph.kmb"},             {"local_search", "opt.ls"},
        {"annealing", "opt.sa"},          {"portfolio", "opt.portfolio"}};
    std::vector<opt::CandidateDesign> designs;
    designs.reserve(kRuns.size());
    OpOutput out;
    const auto t0 = Clock::now();
    {
      Span root(t, "design.instance");
      graph::SteinerTree kr_tree;
      {
        Span span(t, "graph.kr");
        kr_tree = problem.solve_node_weighted();
      }
      ho.klein_ravi_tree = &kr_tree;
      for (const auto& [name, span_name] : kRuns) {
        Span span(t, span_name);
        designs.push_back(
            opt::heuristic_by_name(name).run(problem, ho, seed));
      }
    }
    out.seconds = seconds_since(t0);

    const std::string tag = "design seed " + std::to_string(seed);
    const std::size_t demands = problem.demands().size();
    for (std::size_t h = 0; h < kRuns.size(); ++h) {
      const std::size_t connected =
          connected_demands(problem, designs[h].nodes);
      if (!designs[h].feasible || connected != demands)
        out.ok = checks.fail(tag + ": " + kRuns[h].first +
                             " design does not connect every demand");
      out.digest.push_back(designs[h].cost());
      if (first) {
        connected_ += static_cast<double>(connected);
        demands_ += static_cast<double>(demands);
      }
    }
    const double kr = designs[0].cost();
    if (!(designs[3].cost() <= kr))
      out.ok = checks.fail(tag + ": local_search costs more than Klein-Ravi");
    if (!(designs[5].cost() <= kr))
      out.ok = checks.fail(tag + ": portfolio costs more than Klein-Ravi");
    if (first) {
      portfolio_cost_.push_back(designs[5].cost());
      kr_cost_.push_back(kr);
    }
    return out;
  }

  /// Mean portfolio Eq. 5 cost over the first pass's instances.
  double energy_j() const override { return mean(portfolio_cost_); }
  /// Share of demands the six designs connect, by the benchmark's search.
  double delivery_ratio() const override {
    return ratio(connected_, demands_);
  }

  void per_layer(LayerMetrics& m, const Tracer& t,
                 const std::map<std::string, obs::CounterSnapshot>& pass)
      override {
    m.set("core.instance_s", t.mean_self_s("core.instance"));
    m.set("graph.kr_s", t.mean_self_s("graph.kr"));
    m.set("graph.mpc_s", t.mean_self_s("graph.mpc"));
    m.set("graph.kmb_s", t.mean_self_s("graph.kmb"));
    m.set("graph.kr_cost_j", mean(kr_cost_));
    m.set("opt.ls_s", t.mean_self_s("opt.ls"));
    m.set("opt.sa_s", t.mean_self_s("opt.sa"));
    m.set("opt.portfolio_s", t.mean_self_s("opt.portfolio"));
    const double ls_evals =
        Tracer::lookup(pass, "opt.ls", "opt.ls.evaluations");
    const double ls_moves =
        Tracer::lookup(pass, "opt.ls", "opt.ls.moves_accepted");
    const double sa_props =
        Tracer::lookup(pass, "opt.sa", "opt.sa.proposals");
    const double sa_acc = Tracer::lookup(pass, "opt.sa", "opt.sa.accepted");
    m.set("opt.ls.evaluations", ls_evals);
    m.set("opt.ls.accept_ratio", ratio(ls_moves, ls_evals));
    m.set("opt.sa.proposals", sa_props);
    m.set("opt.sa.accept_ratio", ratio(sa_acc, sa_props));
    const double ls_evals_total =
        t.total_count("opt.ls", "opt.ls.evaluations");
    m.set("opt.eval_us",
          1e6 * ratio(t.stat("opt.ls").self_s, ls_evals_total));

    std::cout << "ratios (first traced pass):\n";
    print_ratio("opt.ls.accept_ratio", ls_moves, "opt.ls.moves_accepted",
                ls_evals, "opt.ls.evaluations");
    print_ratio("opt.sa.accept_ratio", sa_acc, "opt.sa.accepted", sa_props,
                "opt.sa.proposals");
    print_ratio("opt.eval_us", 1e6 * t.stat("opt.ls").self_s,
                "opt.ls self us", ls_evals_total, "opt.ls.evaluations");
  }

  json::Object quality() const override {
    return {{"energy_j", json::Value(energy_j())},
            {"delivery_ratio", json::Value(delivery_ratio())},
            {"graph.kr_cost_j", json::Value(mean(kr_cost_))}};
  }

 private:
  struct Item {
    std::uint64_t seed;
    opt::DesignInstance inst;
  };
  std::size_t count_;
  std::vector<Item> instances_;
  std::vector<double> portfolio_cost_, kr_cost_;
  double connected_ = 0.0, demands_ = 0.0;  ///< first pass, every design
};

// ---- churn_serve: warm repair per epoch ----------------------------------

constexpr double kFallbackPct = 5.0;

class ChurnWorkload final : public Workload {
 public:
  ChurnWorkload(std::size_t traces, std::size_t epochs)
      : traces_(traces), epochs_(epochs) {}

  void setup(std::uint64_t seed, Tracer* t) override {
    loops_.clear();
    for (std::size_t k = 0; k < traces_; ++k) {
      Loop loop;
      loop.spec = instance_spec(1000 * seed + k);
      loop.inst = build_instance(loop.spec, t);

      // bench_design_churn's busy trace, generated once and replayed as an
      // explicit schedule, so the timed op is the program's work on
      // recorded inputs.
      churn::TraceSpec gen;
      gen.epochs = epochs_;
      gen.arrivals_per_epoch = 1;
      gen.departures_per_epoch = 1;
      gen.swings_per_epoch = 2;
      gen.failures_per_epoch = 1;
      gen.rate_swing = 0.5;
      gen.move_fraction = 0.1;
      gen.move_sigma_m = 60.0;
      gen.seed = loop.spec.seed;
      loop.trace.epochs = epochs_;
      loop.trace.seed = gen.seed;
      {
        Span span(t, "setup.trace");
        churn::ChurnState state(loop.inst, loop.spec);
        for (std::size_t e = 1; e < epochs_; ++e) {
          churn::EpochEvents ee;
          ee.at = e;
          ee.events = state.advance(gen, e).applied;
          if (!ee.events.empty()) loop.trace.schedule.push_back(std::move(ee));
        }
      }

      // Epoch 0: the cold design is the serving design (run_churn's
      // cold_solve: Klein-Ravi-seeded portfolio, then a cache fill).
      {
        Span span(t, "setup.cold_design");
        const graph::SteinerTree kr = loop.inst.problem.solve_node_weighted();
        opt::PortfolioOptions po;
        po.starts = kStarts;
        po.jobs = 1;
        po.anneal.iterations = kAnnealIters;
        po.seed = loop.spec.seed;
        po.klein_ravi_tree = &kr;
        const opt::PortfolioResult pr =
            opt::design_portfolio(loop.inst.problem, po);
        loop.cold = opt::evaluate_design(loop.inst.problem, pr.best.nodes,
                                         opt::DesignObjective{}, nullptr,
                                         &loop.cold_routes);
      }
      loops_.push_back(std::move(loop));
    }
  }

  std::size_t ops_per_pass() const override {
    return loops_.size() * (epochs_ - 1);
  }

  OpOutput run_op(std::size_t i, Tracer* t, Pass pass,
                  Checks& checks) override {
    const bool first = pass == Pass::kFirst;
    const Loop& loop = loops_[i / (epochs_ - 1)];
    const std::size_t epoch = 1 + i % (epochs_ - 1);
    if (epoch == 1 || !state_) {  // a serving loop starts from epoch 0
      state_.emplace(loop.inst, loop.spec);
      serving_ = loop.cold;
      routes_ = loop.cold_routes;
    }

    OpOutput out;
    opt::WarmStartResult wr;
    bool topology_changed = false;
    std::size_t applied = 0;
    const auto t0 = Clock::now();
    {
      Span root(t, "churn.epoch");
      churn::EpochDelta delta;
      {
        Span span(t, "churn.advance");
        delta = state_->advance(loop.trace, epoch);
      }
      applied = delta.applied.size();
      topology_changed = delta.topology_changed;
      // run_churn's conventions: failed nodes leave the design, and route
      // caches die with a topology change. The busy trace moves nodes every
      // epoch, so here no cache outlives its epoch: warm_start_search only
      // reuses routes within the call.
      const std::vector<graph::NodeId> failed = state_->failed_nodes();
      if (!failed.empty())
        std::erase_if(serving_.nodes, [&](graph::NodeId v) {
          return std::binary_search(failed.begin(), failed.end(), v);
        });
      if (delta.topology_changed) routes_.clear();
      opt::WarmStartOptions wo;
      wo.starts = kStarts;
      wo.anneal_iterations = kAnnealIters;
      wo.jobs = 1;
      wo.fallback_pct = kFallbackPct;
      opt::RouteCache next_routes;
      {
        Span span(t, "opt.warm");
        wr = opt::warm_start_search(state_->problem(), serving_,
                                    delta.touched_nodes, wo, loop.spec.seed,
                                    routes_.empty() ? nullptr : &routes_,
                                    &next_routes);
      }
      serving_ = wr.design;
      routes_ = std::move(next_routes);
    }
    out.seconds = seconds_since(t0);

    const core::NetworkDesignProblem& problem = state_->problem();
    const std::string tag = "churn seed " + std::to_string(loop.spec.seed) +
                            " epoch " + std::to_string(epoch);
    const std::size_t connected = connected_demands(problem, wr.design.nodes);
    if (!wr.design.feasible || connected != problem.demands().size())
      out.ok = checks.fail(tag + ": design does not connect every demand");

    // The quality gate's reference, recomputed here: the first pass checks
    // every epoch against it, later passes must repeat the first exactly.
    if (first || t) {
      graph::SteinerTree kr;
      {
        Span span(t, "graph.kr_ref");
        kr = problem.solve_node_weighted();
      }
      const double ref =
          opt::design_from_tree(problem, kr, opt::DesignObjective{}).cost();
      if (!(wr.design.cost() <= (1.0 + kFallbackPct / 100.0) * ref))
        out.ok = checks.fail(tag + ": warm design costs more than " +
                             std::to_string(1.0 + kFallbackPct / 100.0) +
                             " x the Klein-Ravi reference");
    }

    out.digest = {wr.design.cost(), static_cast<double>(applied),
                  wr.fell_back ? 1.0 : 0.0,
                  static_cast<double>(wr.evaluations),
                  static_cast<double>(wr.rerouted_demands)};
    if (first) {
      cost_.push_back(wr.design.cost());
      connected_ += static_cast<double>(connected);
      demands_ += static_cast<double>(problem.demands().size());
      if (topology_changed) ++topology_epochs_;
    }
    return out;
  }

  /// Mean warm design Eq. 5 cost over the first pass's epochs.
  double energy_j() const override { return mean(cost_); }
  /// Share of demands the warm designs connect, by the benchmark's search.
  double delivery_ratio() const override {
    return ratio(connected_, demands_);
  }

  void per_layer(LayerMetrics& m, const Tracer& t,
                 const std::map<std::string, obs::CounterSnapshot>& pass)
      override {
    const double epochs = static_cast<double>(ops_per_pass());
    const auto warm = [&](const char* c) {
      return Tracer::lookup(pass, "opt.warm", c);
    };
    m.set("core.instance_s", t.mean_self_s("core.instance"));
    m.set("churn.advance_s", t.mean_self_s("churn.advance"));
    m.set("churn.events_applied",
          Tracer::lookup(pass, "churn.advance", "churn.events_applied"));
    m.set("churn.topology_epochs", topology_epochs_);
    m.set("opt.warm_s", t.mean_self_s("opt.warm"));
    m.set("opt.warm.evaluations", warm("opt.warm.evaluations"));
    m.set("opt.warm.rerouted_demands", warm("opt.warm.rerouted_demands"));
    const double fallbacks = warm("opt.warm.fallbacks");
    m.set("opt.warm.fallback_rate", ratio(fallbacks, epochs));
    const double hits = warm("opt.cache.route_hits");
    const double misses = warm("opt.cache.route_misses");
    m.set("opt.cache.hit_ratio", ratio(hits, hits + misses));
    m.set("graph.kr_ref_s", t.mean_self_s("graph.kr_ref"));

    std::cout << "ratios (first traced pass):\n";
    print_ratio("opt.warm.fallback_rate", fallbacks, "opt.warm.fallbacks",
                epochs, "epochs");
    print_ratio("opt.cache.hit_ratio", hits, "opt.cache.route_hits",
                hits + misses, "route hits+misses");
  }

  json::Object quality() const override {
    return {{"energy_j", json::Value(energy_j())},
            {"delivery_ratio", json::Value(delivery_ratio())},
            {"churn.topology_epochs", json::Value(topology_epochs_)}};
  }

 private:
  struct Loop {
    opt::DesignInstanceSpec spec;
    opt::DesignInstance inst;
    churn::TraceSpec trace;
    opt::CandidateDesign cold;
    opt::RouteCache cold_routes;
  };
  std::size_t traces_, epochs_;
  std::vector<Loop> loops_;
  // The serving loop in progress.
  std::optional<churn::ChurnState> state_;
  opt::CandidateDesign serving_;
  opt::RouteCache routes_;
  std::vector<double> cost_;
  double connected_ = 0.0, demands_ = 0.0;  ///< first pass
  double topology_epochs_ = 0.0;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "sim_dsdv_small") {
    SimWorkload::Config c;
    c.base = net::ScenarioConfig::small_network();
    c.base.duration_s = 120.0;
    c.stacks = {"dsdvh_odpm_psm", "dsdvh_odpm_span"};
    c.rates = {2, 3, 4, 5, 6};
    c.seeds_per_cell = 3;
    c.proactive = true;
    return std::make_unique<SimWorkload>(c);
  }
  if (name == "sim_dsr_large") {
    SimWorkload::Config c;
    c.base = net::ScenarioConfig::huge_field(1000);
    c.base.duration_s = 45.0;
    c.stacks = {"dsr_active", "dsr_odpm"};
    c.rates = {c.base.rate_pps};
    c.seeds_per_cell = 10;
    return std::make_unique<SimWorkload>(c);
  }
  if (name == "design_cold") return std::make_unique<DesignWorkload>(40);
  if (name == "churn_serve") return std::make_unique<ChurnWorkload>(16, 8);
  return nullptr;
}

/// Peak resident memory of this process image. VmHWM, not getrusage's
/// ru_maxrss: the latter survives execve, so it would report the launching
/// interpreter's peak whenever that exceeds this program's own.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  return 0.0;
}

int run(const Flags& flags) {
  const std::string name = flags.get("workload", "");
  const std::int64_t seed_arg = flags.get_int("seed", -1);
  const double seconds = flags.get_double("seconds", 0.0);
  const std::int64_t trace_arg = flags.get_int("trace", -1);
  std::unique_ptr<Workload> w = make_workload(name);
  if (!w || seed_arg < 0 || !(seconds > 0.0) ||
      (trace_arg != 0 && trace_arg != 1)) {
    std::cerr << "usage: perfbench --workload sim_dsdv_small|sim_dsr_large|"
                 "design_cold|churn_serve --seed N --seconds S --trace 0|1\n";
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(seed_arg);
  const bool trace = trace_arg == 1;
  Tracer tracer;

  // The live inputs are set up once. An untraced run then repeats the
  // set-up on a spare workload between ops, for kSetupShare of the time
  // spent so far, and tops it up to kMinSetups samples at the end. The host's
  // speed shifts from one second to the next, and set-up of the sim and
  // design workloads takes milliseconds, so samples spread over the run
  // represent it; samples from one window at the start would not.
  std::vector<double> setup_s;
  double setup_total = 0.0;
  const auto timed_setup = [&](Workload& target, Tracer* t) {
    const auto t0 = Clock::now();
    target.setup(seed, t);
    setup_s.push_back(seconds_since(t0));
    setup_total += setup_s.back();
  };
  timed_setup(*w, trace ? &tracer : nullptr);
  tracer.take_pass_counts();  // setup counts are not per-pass work
  const std::unique_ptr<Workload> spare = trace ? nullptr : make_workload(name);

  Checks checks;
  std::size_t attempted = 0, failed = 0;
  const auto record = [&](const OpOutput& o) {
    ++attempted;
    if (!o.ok) ++failed;
  };
  record(w->run_op(0, nullptr, Pass::kWarmup, checks));  // untimed

  // Passes cycle the op list. Pass 0 always completes: it is the reference
  // every later op must repeat, and in a traced run it is traced whole, so
  // its counts are one pass's work. Later passes of a traced run trace
  // every other op, alternating with the pass, and trace_overhead_pct
  // compares those traced and untraced ops; pass 1 also always completes.
  std::vector<std::vector<double>> reference(w->ops_per_pass());
  std::vector<double> op_s, traced_s, untraced_s;
  std::map<std::string, obs::CounterSnapshot> first_counts;
  const auto t_start = Clock::now();
  const std::size_t must_complete = trace ? 2 : 1;
  bool done = false;
  for (std::size_t pass = 0; !done; ++pass) {
    for (std::size_t i = 0; i < w->ops_per_pass() && !done; ++i) {
      if (pass >= must_complete && seconds_since(t_start) >= seconds) {
        done = true;
        break;
      }
      const bool traced = trace && (pass == 0 || (i + pass) % 2 == 1);
      OpOutput o = w->run_op(i, traced ? &tracer : nullptr,
                             pass == 0 ? Pass::kFirst : Pass::kLater, checks);
      if (pass == 0)
        reference[i] = o.digest;
      else if (o.digest != reference[i])
        o.ok = checks.fail("op " + std::to_string(i) + " of pass " +
                           std::to_string(pass) +
                           " differs from the first pass");
      record(o);
      op_s.push_back(o.seconds);
      if (pass > 0) (traced ? traced_s : untraced_s).push_back(o.seconds);
      while (spare && setup_total < kSetupShare * seconds_since(t_start))
        timed_setup(*spare, nullptr);
    }
    if (pass == 0) first_counts = tracer.take_pass_counts();
    done = done ||
           (pass + 1 >= must_complete && seconds_since(t_start) >= seconds);
  }

  while (spare && setup_s.size() < kMinSetups) timed_setup(*spare, nullptr);

  Metrics metrics;
  json::Object counters_json;
  if (!trace) {
    put(metrics, "setup_s", quantile(setup_s, 0.5), "s");
    put(metrics, "peak_rss_mb", peak_rss_mb(), "MB");
    put(metrics, "op_s.p50", quantile(op_s, 0.5), "s");
    put(metrics, "op_s.p75", quantile(op_s, 0.75), "s");
    put(metrics, "energy_j", w->energy_j(), "J");
    put(metrics, "delivery_ratio", w->delivery_ratio(), "ratio");
  } else {
    std::cout << "per-layer spans (traced passes; self = span minus "
                 "child spans):\n";
    std::printf("  %-20s %8s %12s %12s %14s\n", "span", "count", "total_s",
                "self_s", "self_s/span");
    for (const auto& [span, s] : tracer.stats())
      std::printf("  %-20s %8zu %12.6f %12.6f %14.9f\n", span.c_str(),
                  s.count, s.total_s, s.self_s,
                  ratio(s.self_s, static_cast<double>(s.count)));
    LayerMetrics layers;
    w->per_layer(layers, tracer, first_counts);
    const double u = quantile(untraced_s, 0.5);
    layers.set("trace_overhead_pct",
               100.0 * ratio(quantile(traced_s, 0.5) - u, u));
    layers.emit(metrics);
    std::cout << "counters (first traced pass, by span):\n";
    for (const auto& [span, snap] : first_counts) {
      json::Object c;
      for (const auto& [counter, v] : snap.counters) {
        std::cout << "  " << span << " / " << counter << " = " << v << "\n";
        c.emplace_back(counter, json::Value(static_cast<double>(v)));
      }
      counters_json.emplace_back(span, json::Value(std::move(c)));
    }
  }

  const json::Object env{
      {"workload", json::Value(name)},
      {"seed", json::Value(static_cast<double>(seed))},
      {"build_type", json::Value(PERFBENCH_BUILD_TYPE)},
      {"obs_enabled", json::Value(obs::kEnabled)},
      {"compiler", json::Value(PERFBENCH_COMPILER)},
      {"nproc", json::Value(static_cast<double>(
                    std::thread::hardware_concurrency()))},
      {"commit", json::Value(flags.get("commit", "unknown"))},
      {"trace", json::Value(trace)},
      {"seconds", json::Value(seconds)},
      {"ops_per_pass", json::Value(static_cast<double>(w->ops_per_pass()))},
      {"timed_ops", json::Value(static_cast<double>(op_s.size()))},
      {"setups", json::Value(static_cast<double>(setup_s.size()))}};
  std::cout << "env: " << json::dump(json::Value(env)) << "\n";
  std::cout << "deterministic: "
            << json::dump(json::Value(json::Object{
                   {"quality", json::Value(w->quality())},
                   {"counters", json::Value(std::move(counters_json))}}))
            << "\n";
  const json::Object result{
      {"correct", json::Value(failed == 0)},
      {"attempted", json::Value(static_cast<double>(attempted))},
      {"failed", json::Value(static_cast<double>(failed))},
      {"metrics", json::Value(std::move(metrics))}};
  std::cout << json::dump(json::Value(result)) << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(Flags(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
