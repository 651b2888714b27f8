#include "core/experiment_engine.hpp"

#include <algorithm>
#include <mutex>
#include <ostream>

#include "analytical/route_energy.hpp"
#include "churn/trace.hpp"
#include "core/experiment.hpp"
#include "core/grid_study.hpp"
#include "core/parallel_runner.hpp"
#include "energy/radio_card.hpp"
#include "obs/trace.hpp"
#include "opt/design_heuristic.hpp"
#include "opt/design_instance.hpp"
#include "opt/portfolio.hpp"
#include "opt/warm_start.hpp"
#include "presolve/presolve.hpp"
#include "replay/realization.hpp"
#include "replay/replay.hpp"
#include "util/table.hpp"

namespace eend::core {

namespace {

/// Short simulations used by --quick when the experiment does not specify
/// its own quick.duration_s.
constexpr double kQuickDurationS = 120.0;

MetricValue metric_value(const std::string& name, const SampleStats& s) {
  MetricValue out;
  out.name = name;
  out.mean = s.mean;
  out.ci95 = s.ci95_half_width;
  out.n = s.n;
  return out;
}

/// Mean and CI of one metric over a row's replications; pick(run) reads
/// replication `run`'s value.
template <class Pick>
MetricValue summarize_runs(const std::string& name, std::size_t runs,
                           Pick pick) {
  std::vector<double> xs;
  xs.reserve(runs);
  for (std::size_t run = 0; run < runs; ++run) xs.push_back(pick(run));
  return metric_value(name, summarize(xs));
}

ResultRow make_row(const Experiment& e, std::string series,
                   std::string x_name, double x, std::size_t runs,
                   std::uint64_t seed) {
  ResultRow row;
  row.experiment = e.id;
  row.kind = kind_name(e.kind);
  row.series = std::move(series);
  row.x_name = std::move(x_name);
  row.x = x;
  row.runs = runs;
  row.seed = seed;
  return row;
}

std::vector<net::StackSpec> resolve_stacks(const Experiment& e) {
  std::vector<net::StackSpec> out;
  out.reserve(e.stacks.size());
  for (const auto& name : e.stacks) out.push_back(net::stack_preset(name));
  return out;
}

MetricValue sim_metric(const ExperimentResult& r, const std::string& name) {
  const auto from_raw = [&](auto pick) {
    return summarize_runs(name, r.raw.size(), [&](std::size_t i) {
      return static_cast<double>(pick(r.raw[i]));
    });
  };
  if (name == "delivery_ratio") return metric_value(name, r.delivery_ratio);
  if (name == "goodput_bit_per_j")
    return metric_value(name, r.goodput_bit_per_j);
  if (name == "transmit_energy_j")
    return metric_value(name, r.transmit_energy_j);
  if (name == "total_energy_j") return metric_value(name, r.total_energy_j);
  if (name == "control_energy_j")
    return metric_value(name, r.control_energy_j);
  if (name == "passive_energy_j")
    return metric_value(name, r.passive_energy_j);
  if (name == "nodes_carrying_data")
    return metric_value(name, r.nodes_carrying_data);
  using Run = metrics::RunResult;
  if (name == "rreq_transmissions")
    return from_raw([](const Run& x) { return x.rreq_transmissions; });
  if (name == "mac_collisions")
    return from_raw([](const Run& x) { return x.mac_collisions; });
  if (name == "mac_cs_drops")
    return from_raw([](const Run& x) { return x.mac_cs_drops; });
  if (name == "mac_defers_exhausted")
    return from_raw([](const Run& x) { return x.mac_defers_exhausted; });
  if (name == "mac_stale_bcast_drops")
    return from_raw([](const Run& x) { return x.mac_stale_bcast_drops; });
  if (name == "mac_unicast_failures")
    return from_raw([](const Run& x) { return x.mac_unicast_failures; });
  if (name == "average_delay_s")
    return from_raw([](const Run& x) { return x.average_delay_s; });
  EEND_REQUIRE_MSG(false, "unknown sim metric \"" << name << "\"");
  return {};
}

/// One (node count, replication) cell of the instance kinds (design,
/// replay, churn), listed n-major: cells [ni*runs, (ni+1)*runs) feed the
/// rows at node count ni.
struct InstanceCell {
  std::size_t n = 0;
  std::size_t run = 0;
};

std::vector<InstanceCell> instance_cells(const std::vector<std::size_t>& nodes,
                                         std::size_t runs) {
  std::vector<InstanceCell> cells;
  for (const std::size_t n : nodes)
    for (std::size_t run = 0; run < runs; ++run) cells.push_back({n, run});
  return cells;
}

opt::DesignInstanceSpec instance_spec(const Experiment& e,
                                      const InstanceCell& cell,
                                      std::uint64_t base_seed) {
  opt::DesignInstanceSpec spec;
  spec.node_count = cell.n;
  spec.demand_count = e.demands;
  spec.seed = base_seed + cell.run;
  spec.demand_weights = e.demand_weights;
  spec.presolve = e.presolve;
  spec.field_scale = e.field_scale;
  return spec;
}

/// make_design_instance under an "instance.build" span on the cell's lane.
opt::DesignInstance build_instance(const opt::DesignInstanceSpec& spec,
                                   std::uint32_t tid) {
  obs::PhaseTimer t_build("instance.build", obs::kPidCell, tid);
  return opt::make_design_instance(spec);
}

// ------------------------------------------------- design-search cells ---

/// One design-search cell, shared by the design and replay kinds: solve
/// the Klein-Ravi tree once (it seeds klein_ravi, local_search, annealing
/// and the portfolio's start 0, and is the dominant cost on large
/// instances), evaluate it as the baseline, then run every requested
/// heuristic against it. The baseline anchors the design kind's gap metric
/// and the portfolio ≤ Klein-Ravi invariant, which is enforced here — the
/// single point both kinds' results pass through on their way to sinks.
struct CellSearchResult {
  opt::CandidateDesign baseline;
  double baseline_wall = 0.0;
  std::vector<opt::CandidateDesign> designs;  ///< per heuristic, in order
  std::vector<double> walls;                  ///< per heuristic, seconds
};

CellSearchResult search_design_cell(
    const opt::DesignInstance& inst,
    const std::vector<std::string>& heuristics, opt::HeuristicOptions ho,
    std::uint64_t seed, std::size_t n, std::uint32_t trace_tid = 0) {
  const core::NetworkDesignProblem& problem = inst.problem;
  ho.presolve = inst.presolve.get();
  CellSearchResult out;
  obs::PhaseTimer t_base("search:klein_ravi(baseline)", obs::kPidCell, trace_tid);
  // The shared tree comes from the dead-end-masked twin when presolve ran —
  // bit-identical to the full solve (presolve/presolve.hpp), just cheaper.
  const graph::SteinerTree kr_tree =
      (inst.presolve ? inst.presolve->node_reduced : problem)
          .solve_node_weighted();
  ho.klein_ravi_tree = &kr_tree;
  out.baseline = opt::heuristic_by_name("klein_ravi").run(problem, ho, seed);
  out.baseline_wall = t_base.stop();
  EEND_CHECK_MSG(out.baseline.feasible,
                 "Klein-Ravi baseline infeasible on a connected instance "
                 "(n=" << n << ", seed=" << seed << ")");

  out.designs.resize(heuristics.size());
  out.walls.resize(heuristics.size());
  for (std::size_t hi = 0; hi < heuristics.size(); ++hi) {
    const auto& name = heuristics[hi];
    obs::PhaseTimer t0("search:" + name, obs::kPidCell, trace_tid);
    out.designs[hi] =
        name == "klein_ravi"
            ? out.baseline
            : opt::heuristic_by_name(name).run(problem, ho, seed);
    // The baseline's wall time (tree solve included) is attributed to the
    // klein_ravi series when that series is requested.
    out.walls[hi] = name == "klein_ravi" ? out.baseline_wall : t0.stop();
    EEND_CHECK_MSG(out.designs[hi].feasible,
                   "heuristic \"" << name
                   << "\" infeasible on a connected instance (n=" << n
                   << ", seed=" << seed << ")");
    // Soundness of the certified bound, enforced where results become
    // user-visible: no feasible design may score below it (1e-9 relative
    // slack absorbs float re-association between the two computations).
    if (inst.presolve)
      EEND_CHECK_MSG(
          inst.presolve->lower_bound(ho.eval) <=
              out.designs[hi].score.total() * (1.0 + 1e-9),
          "certified lower bound exceeds heuristic \""
              << name << "\" score (n=" << n << ", seed=" << seed << ")");
    // The portfolio's start 0 is Klein-Ravi + descent under the same
    // objective, so it can never cost more than the baseline; enforce the
    // invariant at the point results become user-visible.
    if (name == "portfolio")
      EEND_CHECK_MSG(out.designs[hi].cost() <= out.baseline.cost(),
                     "portfolio worse than Klein-Ravi baseline (n="
                         << n << ", seed=" << seed << ")");
  }
  return out;
}

MetricValue grid_metric(const GridSeries& s, const GridPoint& p,
                        const std::string& name) {
  MetricValue out;
  out.name = name;
  out.n = 1;
  if (name == "goodput_kbit_per_j") out.mean = p.goodput_bit_per_j / 1e3;
  else if (name == "network_power_w") out.mean = p.network_power_w;
  else if (name == "data_power_w") out.mean = p.data_power_w;
  else if (name == "passive_power_w") out.mean = p.passive_power_w;
  else if (name == "active_nodes")
    out.mean = static_cast<double>(s.active_nodes.size());
  else
    EEND_REQUIRE_MSG(false, "unknown grid metric \"" << name << "\"");
  return out;
}

// Per-replication samples of the instance kinds, and the name -> value
// pick each kind's rows summarize across replications.

struct DesignSample {
  double total = 0.0, data = 0.0, idle = 0.0, gap = 0.0, relays = 0.0,
         wall = 0.0;
  // Presolve-only columns (e.presolve gates the metrics that read them).
  double lb = 0.0, cert_gap = 0.0, rnodes = 0.0, redges = 0.0;
};

double design_metric(const DesignSample& s, const std::string& name,
                     bool presolve) {
  if (name == "eq5_total") return s.total;
  if (name == "eq5_data") return s.data;
  if (name == "eq5_idle") return s.idle;
  if (name == "gap_vs_klein_ravi") return s.gap;
  if (name == "relay_nodes") return s.relays;
  if (name == "wall_time_s") return s.wall;
  if (name == "lb" || name == "certified_gap_pct" ||
      name == "reduced_nodes" || name == "reduced_edges") {
    // parse_metrics already rejects these without presolve; guard
    // against programmatic Experiment structs skipping validation.
    EEND_REQUIRE_MSG(presolve, "design metric \"" << name
                                   << "\" requires presolve=true");
    if (name == "lb") return s.lb;
    if (name == "certified_gap_pct") return s.cert_gap;
    if (name == "reduced_nodes") return s.rnodes;
    return s.redges;
  }
  EEND_REQUIRE_MSG(false, "unknown design metric \"" << name << "\"");
  return 0.0;
}

double replay_metric(const replay::ReplayReport& rep,
                     const std::string& name) {
  if (name == "analytic_eq5_j") return rep.analytic_energy_j;
  if (name == "sim_energy_j") return rep.sim_energy_j;
  if (name == "analytic_gap_pct") return rep.gap_pct;
  if (name == "sim_j_per_kbit") return rep.sim_j_per_kbit;
  if (name == "delivery_ratio") return rep.delivery_ratio;
  if (name == "first_death_s") return rep.first_death_s;
  if (name == "depleted_nodes")
    return static_cast<double>(rep.depleted_nodes);
  if (name == "active_nodes") return static_cast<double>(rep.active_nodes);
  if (name == "max_node_load_j") return rep.max_node_load_j;
  EEND_REQUIRE_MSG(false, "unknown replay metric \"" << name << "\"");
  return 0.0;
}

struct ChurnSample {
  double warm = 0.0, cold = 0.0, gap = 0.0, events = 0.0, rerouted = 0.0,
         fellback = 0.0, active = 0.0, live = 0.0, warm_wall = 0.0,
         cold_wall = 0.0, replay_gap = 0.0;
};

double churn_metric(const ChurnSample& s, const std::string& name,
                    bool replays) {
  if (name == "warm_score") return s.warm;
  if (name == "cold_score") return s.cold;
  if (name == "gap_vs_cold_pct") return s.gap;
  if (name == "events_applied") return s.events;
  if (name == "rerouted_demands") return s.rerouted;
  if (name == "fallbacks") return s.fellback;
  if (name == "active_nodes") return s.active;
  if (name == "live_demands") return s.live;
  if (name == "warm_wall_s") return s.warm_wall;
  if (name == "cold_wall_s") return s.cold_wall;
  if (name == "replay_gap_pct") {
    // parse_metrics already rejects this without replay epochs; guard
    // programmatic Experiment structs skipping validation.
    EEND_REQUIRE_MSG(replays, "churn metric \"replay_gap_pct\" requires "
                              "replay_every > 0");
    return s.replay_gap;
  }
  EEND_REQUIRE_MSG(false, "unknown churn metric \"" << name << "\"");
  return 0.0;
}

}  // namespace

void ExperimentEngine::run(const Manifest& m) {
  for (const Experiment& e : m.experiments) run(e);
}

void ExperimentEngine::run(const Experiment& e) {
  obs::PhaseTimer exp_span("experiment:" + e.id, 0, 0);
  exp_counters_.clear();
  for (ResultSink* s : sinks_) s->begin_experiment(e);
  switch (e.kind) {
    case ExperimentKind::Sweep: run_sweep(e); break;
    case ExperimentKind::Density: run_density(e); break;
    case ExperimentKind::Grid: run_grid(e); break;
    case ExperimentKind::Mopt: run_mopt(e); break;
    case ExperimentKind::Design: run_design(e); break;
    case ExperimentKind::Replay: run_replay(e); break;
    case ExperimentKind::Churn: run_churn(e); break;
  }
  {
    obs::PhaseTimer flush_span("sink.flush", 0, 0);
    for (ResultSink* s : sinks_) s->end_experiment(e);
  }
  // Counter lines ride outside the sink stream: sinks stay byte-pinned by
  // the goldens, and the counters file is its own deterministic artifact.
  if (opts_.counters) exp_counters_.write_jsonl(*opts_.counters, e.id);
}

void ExperimentEngine::fan_out(
    const char* label, std::size_t count,
    const std::function<std::string(std::size_t)>& fn) {
  std::vector<obs::CounterSnapshot> snaps(count);
  std::mutex io_m;
  ParallelRunner pool(opts_.jobs);
  pool.set_span_label(label);
  pool.for_each_index(count, [&](std::size_t i) {
    obs::CounterRegistry reg;
    const obs::ScopedRegistry scope(&reg);
    const std::string line = fn(i);
    snaps[i] = reg.snapshot();
    if (opts_.progress) {
      std::lock_guard<std::mutex> lk(io_m);
      note(line);
    }
  });
  for (const obs::CounterSnapshot& s : snaps) exp_counters_.merge_from(s);
}

void ExperimentEngine::emit(const ResultRow& r) {
  for (ResultSink* s : sinks_) s->row(r);
}

void ExperimentEngine::note(const std::string& line) {
  if (opts_.progress) *opts_.progress << line << '\n';
}

net::ScenarioConfig ExperimentEngine::resolve_scenario(
    const Experiment& e, std::optional<std::size_t> node_count) const {
  ScenarioSpec spec = e.scenario;
  if (node_count) spec.node_count = node_count;
  net::ScenarioConfig sc = spec.resolve();
  if (opts_.quick)
    sc.duration_s =
        std::min(sc.duration_s, e.quick.duration_s.value_or(kQuickDurationS));
  return sc;
}

const std::vector<double>& ExperimentEngine::rate_axis(
    const Experiment& e) const {
  return (opts_.quick && e.quick.rates_pps) ? *e.quick.rates_pps
                                            : e.rates_pps;
}

const std::vector<std::size_t>& ExperimentEngine::node_axis(
    const Experiment& e) const {
  return (opts_.quick && e.quick.node_counts) ? *e.quick.node_counts
                                              : e.node_counts;
}

std::size_t ExperimentEngine::effective_runs(const Experiment& e) const {
  if (opts_.runs_override) return *opts_.runs_override;
  if (opts_.quick) return e.quick.runs.value_or(1);
  return e.runs;
}

std::uint64_t ExperimentEngine::effective_seed(const Experiment& e) const {
  return opts_.seed_override ? *opts_.seed_override : e.seed;
}

void ExperimentEngine::run_sweep(const Experiment& e) {
  ExperimentConfig cfg;
  cfg.scenario = resolve_scenario(e);
  cfg.runs = effective_runs(e);
  cfg.base_seed = effective_seed(e);
  cfg.jobs = opts_.jobs;

  const std::vector<net::StackSpec> stacks = resolve_stacks(e);
  const std::vector<double>& rates = rate_axis(e);

  StackProgressFn progress;
  if (opts_.progress)
    progress = [this, &e](const net::StackSpec& s) {
      note("  [" + e.title + "] " + s.label + " done");
    };

  // results[stack][rate]
  const auto results = sweep_grid(cfg, stacks, rates, progress);

  // Cells already merged their replication snapshots in seed order; fold
  // them into the experiment total in (stack, rate) cell order.
  for (const auto& per_stack : results)
    for (const auto& r : per_stack) exp_counters_.merge_from(r.counters);

  for (std::size_t ri = 0; ri < rates.size(); ++ri) {
    for (std::size_t si = 0; si < stacks.size(); ++si) {
      ResultRow row = make_row(e, stacks[si].label, "rate_pps", rates[ri],
                               cfg.runs, cfg.base_seed);
      for (const MetricSpec& m : e.metrics)
        row.metrics.push_back(sim_metric(results[si][ri], m.name));
      emit(row);
    }
  }
}

void ExperimentEngine::run_density(const Experiment& e) {
  const std::vector<std::size_t>& nodes = node_axis(e);
  const std::vector<net::StackSpec> stacks = resolve_stacks(e);

  // All (node count × stack) cells share one pool so wide density tables
  // keep every core busy even at runs=1; emission order (n-major,
  // stack-minor) matches the cell list and never depends on scheduling.
  std::vector<ExperimentConfig> cells;
  for (const std::size_t n : nodes) {
    const net::ScenarioConfig sc = resolve_scenario(e, n);
    for (const auto& stack : stacks) {
      ExperimentConfig cfg;
      cfg.scenario = sc;
      cfg.stack = stack;
      cfg.runs = effective_runs(e);
      cfg.base_seed = effective_seed(e);
      cells.push_back(std::move(cfg));
    }
  }

  std::function<void(std::size_t)> on_cell_done;
  if (opts_.progress)
    on_cell_done = [&](std::size_t i) {
      note("  [" + e.title + "] " + cells[i].stack.label + " n=" +
           std::to_string(cells[i].scenario.node_count) + " done");
    };
  const auto results = run_experiment_cells(cells, opts_.jobs, on_cell_done);

  for (const auto& r : results) exp_counters_.merge_from(r.counters);

  for (std::size_t i = 0; i < cells.size(); ++i) {
    ResultRow row = make_row(
        e, cells[i].stack.label, "nodes",
        static_cast<double>(cells[i].scenario.node_count), cells[i].runs,
        cells[i].base_seed);
    for (const MetricSpec& m : e.metrics)
      row.metrics.push_back(sim_metric(results[i], m.name));
    emit(row);
  }
}

void ExperimentEngine::run_grid(const Experiment& e) {
  net::ScenarioConfig sc = resolve_scenario(e);
  sc.rate_pps = e.base_rate_pps;
  sc.seed = effective_seed(e);

  const std::vector<net::StackSpec> stacks = resolve_stacks(e);
  const std::vector<double>& rates = rate_axis(e);

  // One base-rate simulation per stack; fan out, keep stack order.
  std::vector<GridSeries> series(stacks.size());
  fan_out("grid.series", stacks.size(), [&](std::size_t i) {
    series[i] = grid_series(sc, stacks[i], rates);
    return "  [" + e.title + "] " + stacks[i].label + " done (" +
           std::to_string(series[i].active_nodes.size()) + " active nodes)";
  });

  for (std::size_t ri = 0; ri < rates.size(); ++ri) {
    for (std::size_t si = 0; si < series.size(); ++si) {
      ResultRow row =
          make_row(e, series[si].label, "rate_pps", rates[ri], 1, sc.seed);
      for (const MetricSpec& m : e.metrics)
        row.metrics.push_back(
            grid_metric(series[si], series[si].points[ri], m.name));
      emit(row);
    }
  }
}

void ExperimentEngine::run_design(const Experiment& e) {
  const std::vector<std::size_t>& nodes = node_axis(e);
  const std::size_t runs = effective_runs(e);
  const std::uint64_t base_seed = effective_seed(e);

  // All (node count x instance) cells are independent; fan them across the
  // pool into pre-sized slots so --jobs helps even without a portfolio
  // series. With more than one cell the portfolio runs its starts inline;
  // a single cell hands the whole pool to the portfolio's multi-starts.
  // Either way every heuristic is jobs-invariant, so output bytes never
  // depend on the split.
  const std::vector<InstanceCell> cells = instance_cells(nodes, runs);
  opt::HeuristicOptions ho;
  ho.starts = e.starts;
  ho.anneal_iterations = e.anneal_iters;
  ho.jobs = cells.size() > 1 ? 1 : opts_.jobs;

  // samples[cell][heuristic]
  std::vector<std::vector<DesignSample>> samples(cells.size());
  fan_out("design.cell", cells.size(), [&](std::size_t ci) {
    const std::uint32_t tid = static_cast<std::uint32_t>(ci) + 1;
    const InstanceCell& cell = cells[ci];
    const opt::DesignInstanceSpec spec = instance_spec(e, cell, base_seed);
    const opt::DesignInstance inst = build_instance(spec, tid);

    const CellSearchResult sr =
        search_design_cell(inst, e.heuristics, ho, spec.seed, cell.n, tid);
    samples[ci].resize(e.heuristics.size());
    for (std::size_t hi = 0; hi < e.heuristics.size(); ++hi) {
      const opt::CandidateDesign& cand = sr.designs[hi];
      DesignSample& s = samples[ci][hi];
      s.total = cand.cost();
      s.data = cand.score.data;
      s.idle = cand.score.idle;
      s.gap = 100.0 * (cand.cost() - sr.baseline.cost()) /
              sr.baseline.cost();
      s.relays = static_cast<double>(cand.score.relay_nodes);
      s.wall = sr.walls[hi];
      if (inst.presolve) {
        s.lb = inst.presolve->lower_bound(ho.eval);
        s.cert_gap = 100.0 * (cand.score.total() - s.lb) / s.lb;
        s.rnodes = static_cast<double>(inst.presolve->reduced_nodes);
        s.redges = static_cast<double>(inst.presolve->reduced_edges);
      }
    }
    return "  [" + e.title + "] n=" + std::to_string(cell.n) + " instance " +
           std::to_string(cell.run + 1) + "/" + std::to_string(runs) +
           " done";
  });

  // Aggregate per (n, heuristic) across instances; emission is n-major,
  // heuristic-minor in manifest order, independent of scheduling.
  for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
    for (std::size_t hi = 0; hi < e.heuristics.size(); ++hi) {
      ResultRow row = make_row(e, e.heuristics[hi], "nodes",
                               static_cast<double>(nodes[ni]), runs,
                               base_seed);
      for (const MetricSpec& m : e.metrics)
        row.metrics.push_back(summarize_runs(m.name, runs, [&](std::size_t r) {
          return design_metric(samples[ni * runs + r][hi], m.name,
                               e.presolve);
        }));
      emit(row);
    }
  }
}

void ExperimentEngine::run_replay(const Experiment& e) {
  const std::vector<std::size_t>& nodes = node_axis(e);
  const std::size_t runs = effective_runs(e);
  const std::uint64_t base_seed = effective_seed(e);

  replay::ReplaySettings settings;
  settings.stack = net::stack_preset(e.replay_stack);
  settings.duration_s = e.replay_duration_s;
  if (opts_.quick)
    settings.duration_s = std::min(
        settings.duration_s, e.quick.duration_s.value_or(kQuickDurationS));
  settings.rate_pps = e.replay_rate_pps;
  settings.battery_capacity_j = e.battery_j;

  const std::vector<InstanceCell> cells = instance_cells(nodes, runs);

  // Phase 1 — search: one instance per cell (shared Klein-Ravi tree), every
  // requested heuristic run under the joule-scaled replay objective, so the
  // analytic cost, the lifetime budget and the simulated battery all speak
  // the same unit. Phase 2 — simulate: every (cell, heuristic) design is
  // realized and replayed through net::Network, fanned flat across the pool
  // (simulations dominate the wall clock and are independent). Both phases
  // land results in pre-sized slots, so output bytes never depend on --jobs.
  struct CellState {
    opt::DesignInstanceSpec spec;
    opt::DesignInstance instance;
    std::vector<opt::CandidateDesign> designs;  // per heuristic
  };
  std::vector<CellState> state(cells.size());
  fan_out("replay.search", cells.size(), [&](std::size_t ci) {
    const std::uint32_t tid = static_cast<std::uint32_t>(ci) + 1;
    const InstanceCell& cell = cells[ci];
    CellState& st = state[ci];
    st.spec = instance_spec(e, cell, base_seed);
    st.instance = build_instance(st.spec, tid);

    opt::HeuristicOptions ho;
    ho.eval = replay::replay_eq5_params(settings, st.spec.card);
    ho.starts = e.starts;
    ho.anneal_iterations = e.anneal_iters;
    ho.jobs = cells.size() > 1 ? 1 : opts_.jobs;
    ho.battery_budget_j = e.battery_j;
    st.designs = search_design_cell(st.instance, e.heuristics, ho,
                                    st.spec.seed, cell.n, tid)
                     .designs;
    return "  [" + e.title + "] n=" + std::to_string(cell.n) + " instance " +
           std::to_string(cell.run + 1) + "/" + std::to_string(runs) +
           " searched";
  });

  // reports[cell * heuristics + heuristic]
  const std::size_t hs = e.heuristics.size();
  std::vector<replay::ReplayReport> reports(cells.size() * hs);
  fan_out("replay.sim", reports.size(), [&](std::size_t i) {
    const std::size_t ci = i / hs;
    const std::size_t hi = i % hs;
    const CellState& st = state[ci];
    reports[i] = replay::replay_design(st.spec, st.instance, st.designs[hi],
                                       settings);
    return "  [" + e.title + "] n=" + std::to_string(cells[ci].n) + " " +
           e.heuristics[hi] + " instance " +
           std::to_string(cells[ci].run + 1) + "/" + std::to_string(runs) +
           " replayed";
  });

  for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
    for (std::size_t hi = 0; hi < hs; ++hi) {
      ResultRow row = make_row(e, e.heuristics[hi], "nodes",
                               static_cast<double>(nodes[ni]), runs,
                               base_seed);
      for (const MetricSpec& m : e.metrics)
        row.metrics.push_back(summarize_runs(m.name, runs, [&](std::size_t r) {
          return replay_metric(reports[(ni * runs + r) * hs + hi], m.name);
        }));
      emit(row);
    }
  }
}

void ExperimentEngine::run_churn(const Experiment& e) {
  const std::vector<std::size_t>& nodes = node_axis(e);
  const std::size_t epochs =
      (opts_.quick && e.quick.epochs) ? *e.quick.epochs : e.epochs;
  const std::size_t runs = effective_runs(e);
  const std::uint64_t base_seed = effective_seed(e);

  replay::ReplaySettings settings;
  if (e.replay_every > 0) {
    settings.stack = net::stack_preset(e.replay_stack);
    settings.duration_s = e.replay_duration_s;
    if (opts_.quick)
      settings.duration_s = std::min(settings.duration_s, kQuickDurationS);
    settings.rate_pps = e.replay_rate_pps;
  }

  // (node count x trace) cells are independent; each cell plays its whole
  // serving loop serially (epoch k+1 needs epoch k's design), so the fan
  // is across cells. Pre-sized per-epoch slots + a single emission pass
  // after the pool keep output bytes independent of --jobs.
  const std::vector<InstanceCell> cells = instance_cells(nodes, runs);
  const std::size_t inner_jobs = cells.size() > 1 ? 1 : opts_.jobs;

  // samples[cell][epoch]
  std::vector<std::vector<ChurnSample>> samples(cells.size());
  fan_out("churn.cell", cells.size(), [&](std::size_t ci) {
    const std::uint32_t tid = static_cast<std::uint32_t>(ci) + 1;
    const InstanceCell& cell = cells[ci];
    const opt::DesignInstanceSpec spec = instance_spec(e, cell, base_seed);
    const opt::DesignInstance inst = build_instance(spec, tid);

    churn::TraceSpec trace;
    trace.epochs = epochs;
    trace.arrivals_per_epoch = e.arrivals_per_epoch;
    trace.departures_per_epoch = e.departures_per_epoch;
    trace.swings_per_epoch = e.swings_per_epoch;
    trace.failures_per_epoch = e.failures_per_epoch;
    trace.rate_swing = e.rate_swing;
    trace.move_fraction = e.move_fraction;
    trace.move_sigma_m = e.move_sigma_m;
    trace.seed = spec.seed;
    trace.schedule = e.churn_schedule;

    churn::ChurnState state(inst, spec);
    const opt::DesignObjective objective;  // plain Eq. 5, like run_design

    // From-scratch portfolio on an arbitrary (possibly perturbed) problem:
    // the per-epoch baseline the warm repair is scored and raced against.
    const auto cold_solve = [&](const core::NetworkDesignProblem& problem,
                                const presolve::PresolveResult* pre)
        -> std::pair<opt::CandidateDesign, double> {
      obs::PhaseTimer t0("churn.cold_solve", obs::kPidCell, tid);
      const graph::SteinerTree kr =
          (pre ? pre->node_reduced : problem).solve_node_weighted();
      opt::PortfolioOptions po;
      po.objective = objective;
      po.starts = e.starts;
      po.jobs = inner_jobs;
      po.anneal.iterations = e.anneal_iters;
      po.seed = spec.seed;
      po.klein_ravi_tree = &kr;
      po.presolve = pre;
      opt::PortfolioResult pr = opt::design_portfolio(problem, po);
      return {std::move(pr.best), t0.stop()};
    };

    samples[ci].resize(epochs);

    // ---- epoch 0: the cold design IS the serving design.
    auto [serving, wall0] = cold_solve(inst.problem, inst.presolve.get());
    EEND_CHECK_MSG(serving.feasible,
                   "cold portfolio infeasible on a connected instance (n="
                       << cell.n << ", seed=" << spec.seed << ")");
    opt::RouteCache serving_routes;
    serving = opt::evaluate_design(inst.problem, serving.nodes, objective,
                                   nullptr, &serving_routes);
    {
      ChurnSample& s = samples[ci][0];
      s.warm = s.cold = serving.cost();
      s.rerouted = static_cast<double>(serving_routes.routes.size());
      s.active = static_cast<double>(serving.nodes.size());
      s.live = static_cast<double>(inst.problem.demands().size());
      s.warm_wall = s.cold_wall = wall0;
    }

    // ---- epochs 1..: perturb, repair, race against from-scratch.
    for (std::size_t epoch = 1; epoch < epochs; ++epoch) {
      const churn::EpochDelta delta = state.advance(trace, epoch);
      const core::NetworkDesignProblem& problem = state.problem();

      // Failed nodes can no longer serve; drop them from the previous
      // design before the repair (the warm-start contract).
      const std::vector<graph::NodeId> failed = state.failed_nodes();
      if (!failed.empty()) {
        std::vector<graph::NodeId> alive;
        alive.reserve(serving.nodes.size());
        for (const graph::NodeId v : serving.nodes)
          if (!std::binary_search(failed.begin(), failed.end(), v))
            alive.push_back(v);
        serving.nodes = std::move(alive);
      }
      // Route caches are only valid over an unchanged graph.
      if (delta.topology_changed) serving_routes.clear();

      std::optional<presolve::PresolveResult> pre;
      if (e.presolve) {
        obs::PhaseTimer t_pre("presolve", obs::kPidCell, tid);
        pre = presolve::presolve_design(problem);
      }
      const presolve::PresolveResult* pre_ptr = pre ? &*pre : nullptr;

      obs::PhaseTimer t_warm("churn.warm_repair", obs::kPidCell, tid);
      opt::WarmStartOptions wo;
      wo.objective = objective;
      wo.starts = e.starts;
      wo.anneal_iterations = e.anneal_iters;
      wo.jobs = inner_jobs;
      wo.fallback_pct = e.fallback_pct;
      wo.presolve = pre_ptr;
      opt::RouteCache next_routes;
      const opt::WarmStartResult wr = opt::warm_start_search(
          problem, serving, delta.touched_nodes, wo, spec.seed,
          serving_routes.empty() ? nullptr : &serving_routes, &next_routes);
      const double warm_wall = t_warm.stop();

      const auto [cold, cold_wall] = cold_solve(problem, pre_ptr);

      ChurnSample& s = samples[ci][epoch];
      s.warm = wr.design.cost();
      s.cold = cold.cost();
      s.gap = 100.0 * (s.warm - s.cold) / s.cold;
      s.events = static_cast<double>(delta.applied.size());
      s.rerouted = static_cast<double>(wr.rerouted_demands);
      s.fellback = wr.fell_back ? 1.0 : 0.0;
      s.active = static_cast<double>(wr.design.nodes.size());
      s.live = static_cast<double>(problem.demands().size());
      s.warm_wall = warm_wall;
      s.cold_wall = cold_wall;

      // Periodic replay validation: the warm design realized over the
      // *current* (moved/failed) topology and re-run through the packet
      // simulator — the serving loop's end-to-end ground truth.
      if (e.replay_every > 0 && epoch % e.replay_every == 0) {
        obs::PhaseTimer t_real("churn.realize", obs::kPidCell, tid);
        const replay::DesignRealization real = replay::realize_design_at(
            state.positions(), state.field_side(), spec.card, spec.seed,
            problem, wr.design, settings);
        t_real.stop();
        obs::PhaseTimer t_replay("churn.replay_sim", obs::kPidCell, tid);
        const replay::ReplayReport rep =
            replay::run_realization(real, settings);
        t_replay.stop();
        s.replay_gap = rep.gap_pct;
      }

      serving = wr.design;
      serving_routes = std::move(next_routes);
    }

    return "  [" + e.title + "] n=" + std::to_string(cell.n) + " trace " +
           std::to_string(cell.run + 1) + "/" + std::to_string(runs) +
           " served (" + std::to_string(epochs) + " epochs)";
  });

  // Aggregate per (n, epoch) across traces; emission is n-major,
  // epoch-minor, independent of scheduling.
  for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
    for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
      ResultRow row =
          make_row(e, "n=" + std::to_string(nodes[ni]), "epoch",
                   static_cast<double>(epoch), runs, base_seed);
      for (const MetricSpec& m : e.metrics)
        row.metrics.push_back(summarize_runs(m.name, runs, [&](std::size_t r) {
          return churn_metric(samples[ni * runs + r][epoch], m.name,
                              e.replay_every > 0);
        }));
      emit(row);
    }
  }
}

void ExperimentEngine::run_mopt(const Experiment& e) {
  struct Curve {
    energy::RadioCard card;
    double distance;
    std::string legend;
  };
  std::vector<Curve> curves;
  for (const CardSpec& c : e.cards) {
    Curve cv;
    cv.card = energy::card_by_name(c.card);
    cv.distance = c.distance_m;
    cv.legend = cv.card.name + " (D=" + Table::num(c.distance_m, 0) + "m)";
    curves.push_back(std::move(cv));
  }

  for (const double rb : e.rb) {
    for (const Curve& cv : curves) {
      ResultRow row = make_row(e, cv.legend, "rb", rb, 1, 0);
      for (const MetricSpec& m : e.metrics) {
        MetricValue mv;
        mv.name = m.name;
        mv.n = 1;
        EEND_REQUIRE_MSG(m.name == "mopt",
                         "unknown mopt metric \"" << m.name << "\"");
        mv.mean = analytical::mopt_continuous(cv.card, cv.distance, rb);
        row.metrics.push_back(std::move(mv));
      }
      emit(row);
    }
  }
}

}  // namespace eend::core
