// Event-core throughput benchmark: ladder-queue Simulator vs the frozen
// pre-PR binary-heap engine (sim/baseline_simulator.hpp), measured in the
// same run so the speedup is anchored, not compared across machines.
//
// Workloads are churn-shaped — the regime the engine actually sees — not
// the schedule-1000-empty-closures-upfront microloop this file used to
// contain:
//
//   * churn          — waves of long-horizon keep-alive/route-lifetime
//                      timers (32-byte captures) where 95% are cancelled
//                      before firing (the ODPM/PSM refresh idiom), over a
//                      deep backlog of survivors; ops = schedule + cancel +
//                      fire.
//   * fifo_burst     — mixed-horizon schedule/drain with no cancels: the
//                      pure ordering path, including far-future overflow.
//   * timer_restart  — Timer::restart() churn, the cancel+schedule pair
//                      every keep-alive touch performs.
//   * network (info) — a full net::Network protocol-stack run; ops/s =
//                      Simulator::executed_events() / wall time. Ladder
//                      engine only (the stack is written against it), so
//                      no speedup column — it anchors the micro numbers to
//                      the real workload.
//
// Emits BENCH_simcore.json (--json= overrides, "none" disables) and a
// human table. Self-asserting: --assert-churn-speedup=X and
// --assert-churn-events-per-s=Y make the binary exit non-zero when the
// churn workload misses the floor, and --assert-network-events-per-s=Z
// when the network anchor does — the CI legs run with all three.
//
// Flags: --quick, --quiet, --reps=N, --seed=S, --json=PATH,
//        --assert-churn-speedup=X, --assert-churn-events-per-s=Y,
//        --assert-network-events-per-s=Z.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "net/scenario.hpp"
#include "net/stack.hpp"
#include "obs/obs.hpp"
#include "sim/baseline_simulator.hpp"
#include "sim/simulator.hpp"
#include "util/flags.hpp"
#include "util/format.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace eend;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct WorkloadResult {
  std::string name;
  double ladder_ops_per_s = 0.0;
  double baseline_ops_per_s = 0.0;  ///< 0 = workload has no baseline leg
  double speedup = 0.0;
  std::uint64_t ops = 0;  ///< per run (both engines execute the same ops)
};

// ---------------------------------------------------------------- churn ---
// The keep-alive / route-lifetime refresh idiom: every touch of a route
// (or a PSM neighbor) cancels its long-horizon expiry timer and schedules
// a fresh one, so in steady state ~95% of scheduled timers are cancelled
// before they fire and a deep backlog of still-armed survivors accrues.
// The capture mirrors the real handlers: this-pointer plus the context
// they carry (neighbor id, deadline, attempt counter) — 32 bytes, past the
// old engine's std::function SSO but inline in the slot map.
struct KeepAliveCtx {
  void* self;
  std::uint64_t neighbor;
  double deadline;
  std::uint32_t attempt;
};

template <typename Sim>
std::uint64_t run_churn(Sim& s, int waves, std::uint64_t seed) {
  Rng rng(seed);
  std::uint64_t ops = 0;
  std::vector<std::uint64_t> wave;  // both engines' EventId is uint64
  static std::uint64_t sink = 0;    // per-instantiation, defeats DCE
  for (int round = 0; round < waves; ++round) {
    wave.clear();
    for (int i = 0; i < 5000; ++i) {
      const KeepAliveCtx ctx{&s, static_cast<std::uint64_t>(i),
                             s.now() + 100000.0,
                             static_cast<std::uint32_t>(round)};
      wave.push_back(s.schedule_in(rng.uniform(0.1, 100000.0),
                                   [ctx] { sink += ctx.neighbor; }));
      ++ops;
    }
    for (int i = 0; i < 5000; ++i) {
      if (i % 20 != 0) {  // 1-in-20 survives to (eventually) expire
        s.cancel(wave[static_cast<std::size_t>(i)]);
        ++ops;
      }
    }
    s.run_until(s.now() + 5.0);
  }
  s.run_all();
  return ops + s.executed_events();
}

// ----------------------------------------------------------- fifo burst ---
// Mixed horizons, no cancels: 70% dense near-future, 20% mid, 10% far
// future (the overflow top rung / deep heap respectively).
template <typename Sim>
std::uint64_t run_fifo_burst(Sim& s, int bursts, std::uint64_t seed) {
  Rng rng(seed);
  std::uint64_t ops = 0;
  int sink = 0;
  for (int round = 0; round < bursts; ++round) {
    for (int i = 0; i < 200; ++i) {
      const double u = rng.uniform();
      const double delay = u < 0.7   ? rng.uniform(0.0, 2.0)
                           : u < 0.9 ? rng.uniform(0.0, 100.0)
                                     : rng.uniform(0.0, 20000.0);
      s.schedule_in(delay, [&sink] { ++sink; });
      ++ops;
    }
    s.run_until(s.now() + 10.0);
  }
  s.run_all();
  return ops + s.executed_events();
}

// -------------------------------------------------------- timer restart ---
template <typename SimT, typename TimerT>
std::uint64_t run_timer_restart(SimT& s, int touches) {
  int expired = 0;
  std::vector<std::unique_ptr<TimerT>> timers;
  for (int i = 0; i < 32; ++i)
    timers.push_back(
        std::make_unique<TimerT>(s, [&expired] { ++expired; }));
  std::uint64_t ops = 0;
  for (int t = 0; t < touches; ++t) {
    timers[static_cast<std::size_t>(t) % timers.size()]->restart(2.0);
    ++ops;
    if (t % 16 == 0) s.run_until(s.now() + 0.1);
  }
  s.run_all();
  return ops + s.executed_events();
}

template <typename Fn>
double timed(std::uint64_t& ops_out, Fn run) {
  const auto t0 = std::chrono::steady_clock::now();
  ops_out = run();
  return seconds_since(t0);
}

/// Best-of-`reps` for both engines, their reps interleaved (ladder,
/// baseline, ladder, ...): a slow stretch of the machine then costs both
/// engines a rep instead of deciding the ratio on its own.
template <typename LadderFn, typename BaselineFn>
WorkloadResult run_pair(const std::string& name, int reps, LadderFn lf,
                        BaselineFn bf) {
  WorkloadResult r;
  r.name = name;
  double tl = 1e300, tb = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    tl = std::min(tl, timed(r.ops, lf));
    std::uint64_t ops_b = 0;
    tb = std::min(tb, timed(ops_b, bf));
    EEND_REQUIRE_MSG(ops_b == r.ops,
                     "engines diverged on op count for " << name);
  }
  r.ladder_ops_per_s = static_cast<double>(r.ops) / tl;
  r.baseline_ops_per_s = static_cast<double>(r.ops) / tb;
  r.speedup = r.ladder_ops_per_s / r.baseline_ops_per_s;
  return r;
}

WorkloadResult bench_network(int reps, bool quick) {
  // End-to-end anchor: a DSDVH-ODPM-PSM stack (timer-heavy — keep-alives,
  // beacons, periodic dumps) on the paper's small-network scenario.
  WorkloadResult r;
  r.name = "network";
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    net::ScenarioConfig sc = net::ScenarioConfig::small_network();
    sc.duration_s = quick ? 60.0 : 200.0;
    net::Network net(sc, net::StackSpec::dsdvh_odpm_psm());
    const auto t0 = std::chrono::steady_clock::now();
    (void)net.run();
    const double t = seconds_since(t0);
    if (t < best) {
      best = t;
      r.ops = net.simulator().executed_events();
    }
  }
  r.ladder_ops_per_s = static_cast<double>(r.ops) / best;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool quick = flags.get_bool("quick", false);
  const bool quiet = flags.get_bool("quiet", false);
  const int reps = static_cast<int>(flags.get_int("reps", quick ? 3 : 7));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::string json_path = flags.get("json", "BENCH_simcore.json");
  const double floor_speedup = flags.get_double("assert-churn-speedup", 0.0);
  const double floor_eps = flags.get_double("assert-churn-events-per-s", 0.0);
  const double floor_network_eps =
      flags.get_double("assert-network-events-per-s", 0.0);

  const int waves = quick ? 40 : 200;
  const int bursts = quick ? 100 : 500;
  const int touches = quick ? 20000 : 100000;

  std::vector<WorkloadResult> results;
  results.push_back(run_pair(
      "churn", reps,
      [&] {
        sim::Simulator s;
        return run_churn(s, waves, seed);
      },
      [&] {
        sim::BaselineSimulator s;
        return run_churn(s, waves, seed);
      }));
  if (!quiet) std::cerr << "  churn done\n";
  results.push_back(run_pair(
      "fifo_burst", reps,
      [&] {
        sim::Simulator s;
        return run_fifo_burst(s, bursts, seed);
      },
      [&] {
        sim::BaselineSimulator s;
        return run_fifo_burst(s, bursts, seed);
      }));
  if (!quiet) std::cerr << "  fifo_burst done\n";
  results.push_back(run_pair(
      "timer_restart", reps,
      [&] {
        sim::Simulator s;
        return run_timer_restart<sim::Simulator, sim::Timer>(s, touches);
      },
      [&] {
        sim::BaselineSimulator s;
        return run_timer_restart<sim::BaselineSimulator,
                                 sim::BaselineTimer>(s, touches);
      }));
  if (!quiet) std::cerr << "  timer_restart done\n";
  results.push_back(bench_network(quick ? 1 : 2, quick));
  if (!quiet) std::cerr << "  network done\n";

  Table t({"workload", "ops/run", "ladder ops/s", "heap ops/s", "speedup"});
  for (const WorkloadResult& r : results)
    t.add_row({r.name, format_u64(r.ops), Table::num(r.ladder_ops_per_s, 0),
               r.baseline_ops_per_s > 0.0
                   ? Table::num(r.baseline_ops_per_s, 0)
                   : std::string("-"),
               r.speedup > 0.0 ? Table::num(r.speedup, 2)
                               : std::string("-")});
  print_table(std::cout,
              "Event core — ladder-queue Simulator vs pre-PR binary heap",
              t);

  if (json_path != "none") {
    json::Array arr;
    for (const WorkloadResult& r : results) {
      json::Object o;
      o.emplace_back("workload", r.name);
      o.emplace_back("ops_per_run", static_cast<double>(r.ops));
      o.emplace_back("ladder_ops_per_s", r.ladder_ops_per_s);
      o.emplace_back("baseline_ops_per_s", r.baseline_ops_per_s);
      o.emplace_back("speedup", r.speedup);
      arr.emplace_back(std::move(o));
    }
    json::Object top;
    top.emplace_back("bench", std::string("simcore"));
    top.emplace_back("seed", static_cast<double>(seed));
    top.emplace_back("reps", static_cast<double>(reps));
    // Whether telemetry was compiled in, so the CI on/off trajectories
    // (BENCH_simcore.json vs BENCH_simcore_noobs.json) are self-labeling.
    top.emplace_back("obs_enabled", obs::kEnabled);
    top.emplace_back("results", std::move(arr));
    std::ofstream out(json_path, std::ios::binary);
    EEND_REQUIRE_MSG(out, "cannot write " << json_path);
    out << json::dump(json::Value(std::move(top)), 2) << "\n";
    if (!quiet) std::cerr << "  wrote " << json_path << "\n";
  }

  // CI floors: conservative bounds (well under measured numbers) that
  // still catch an accidental return to heap-scheduler scaling — or, for
  // the network anchor, to hashed routing tables and pooled transmit
  // closures.
  const WorkloadResult& churn = results.front();
  const WorkloadResult& network = results.back();
  bool ok = true;
  if (floor_speedup > 0.0 && churn.speedup < floor_speedup) {
    std::cerr << "FLOOR VIOLATION: churn speedup " << churn.speedup << " < "
              << floor_speedup << "\n";
    ok = false;
  }
  if (floor_eps > 0.0 && churn.ladder_ops_per_s < floor_eps) {
    std::cerr << "FLOOR VIOLATION: churn ladder ops/s "
              << churn.ladder_ops_per_s << " < " << floor_eps << "\n";
    ok = false;
  }
  if (floor_network_eps > 0.0 &&
      network.ladder_ops_per_s < floor_network_eps) {
    std::cerr << "FLOOR VIOLATION: network events/s "
              << network.ladder_ops_per_s << " < " << floor_network_eps
              << "\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
