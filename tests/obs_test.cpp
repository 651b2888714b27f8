// Observability suite: counter registry semantics, --counters determinism
// across --jobs, and Chrome-trace well-formedness.
//
// The engine-level tests replay the shipped design_churn and small_field
// manifests at --quick scale. Counter VALUES are part of the determinism contract (byte-identical
// JSONL for any jobs value); trace span NAMES are deterministic too, but
// lane assignment (which worker ran which cell) and timestamps are not, so
// the trace tests compare name multisets and per-lane nesting, never
// (name, tid) pairs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment_engine.hpp"
#include "core/manifest.hpp"
#include "obs/counters.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

#ifndef EEND_MANIFEST_DIR
#error "EEND_MANIFEST_DIR must point at examples/manifests"
#endif

namespace eend {
namespace {

// With telemetry compiled off the hot primitives must be empty types —
// instrumented members then occupy [[no_unique_address]]-free single bytes
// and the inner loops carry no code.
static_assert(obs::kEnabled ? sizeof(obs::HotCounter) == sizeof(std::uint64_t)
                            : sizeof(obs::HotCounter) == 1);
static_assert(obs::kEnabled ? sizeof(obs::HotGauge) == sizeof(std::uint64_t)
                            : sizeof(obs::HotGauge) == 1);

std::string jsonl_of(const obs::CounterSnapshot& snap,
                     std::string_view experiment) {
  std::ostringstream os;
  snap.write_jsonl(os, experiment);
  return os.str();
}

TEST(ObsCounters, AddAndSnapshot) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled off";
  obs::CounterRegistry reg;
  reg.add("b.second");
  reg.add("a.first", 3);
  reg.add("a.first");
  reg.observe("h.sizes", 5);
  reg.observe("h.sizes", 0);
  const obs::CounterSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters.at("a.first"), 4u);
  EXPECT_EQ(snap.counters.at("b.second"), 1u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms.at("h.sizes").count, 2u);
  EXPECT_EQ(snap.histograms.at("h.sizes").sum, 5u);
  // Counters emit sorted by name regardless of insertion order.
  const std::string text = jsonl_of(snap, "t");
  EXPECT_LT(text.find("a.first"), text.find("b.second"));
  EXPECT_LT(text.find("b.second"), text.find("h.sizes"));
}

TEST(ObsCounters, HistogramBucketBoundaries) {
  // bucket i holds bit_width(v) == i: 0 -> 0, 1 -> 1, 2..3 -> 2, ...
  EXPECT_EQ(obs::hist_bucket(0), 0u);
  EXPECT_EQ(obs::hist_bucket(1), 1u);
  EXPECT_EQ(obs::hist_bucket(2), 2u);
  EXPECT_EQ(obs::hist_bucket(3), 2u);
  EXPECT_EQ(obs::hist_bucket(4), 3u);
  EXPECT_EQ(obs::hist_bucket(7), 3u);
  EXPECT_EQ(obs::hist_bucket(8), 4u);
  // Values past the last bucket clamp into it rather than overflowing.
  EXPECT_EQ(obs::hist_bucket(~std::uint64_t{0}), obs::kHistBuckets - 1);
}

TEST(ObsCounters, ScopedRegistryRoutesAndMasks) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled off";
  EXPECT_EQ(obs::current(), nullptr);
  obs::count("dropped.no_registry");  // no registry installed: a no-op
  obs::CounterRegistry outer;
  {
    const obs::ScopedRegistry outer_scope(&outer);
    EXPECT_EQ(obs::current(), &outer);
    obs::count("seen.outer");
    {
      // Installing nullptr masks the outer registry rather than leaking
      // counts from a section that opted out.
      const obs::ScopedRegistry mask(nullptr);
      EXPECT_EQ(obs::current(), nullptr);
      obs::count("dropped.masked");
    }
    EXPECT_EQ(obs::current(), &outer);
    obs::observe("seen.sizes", 2);
  }
  EXPECT_EQ(obs::current(), nullptr);
  const obs::CounterSnapshot snap = outer.snapshot();
  EXPECT_EQ(snap.counters.count("dropped.no_registry"), 0u);
  EXPECT_EQ(snap.counters.count("dropped.masked"), 0u);
  EXPECT_EQ(snap.counters.at("seen.outer"), 1u);
  EXPECT_EQ(snap.histograms.at("seen.sizes").sum, 2u);
}

TEST(ObsCounters, MergeIsOrderIndependent) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled off";
  obs::CounterRegistry a, b;
  a.add("shared", 2);
  a.add("only_a", 7);
  a.observe("h", 1);
  b.add("shared", 5);
  b.add("only_b");
  b.observe("h", 6);
  b.observe("h2", 3);
  const obs::CounterSnapshot sa = a.snapshot();
  const obs::CounterSnapshot sb = b.snapshot();
  obs::CounterSnapshot ab, ba;
  ab.merge_from(sa);
  ab.merge_from(sb);
  ba.merge_from(sb);
  ba.merge_from(sa);
  EXPECT_EQ(ab.counters.at("shared"), 7u);
  EXPECT_EQ(ab.histograms.at("h").count, 2u);
  EXPECT_EQ(ab.histograms.at("h").sum, 7u);
  // Sums commute and emission is name-sorted, so merge order cannot leak
  // into the bytes.
  EXPECT_EQ(jsonl_of(ab, "x"), jsonl_of(ba, "x"));
}

// --- Engine-level determinism on the shipped manifests ---------------------

/// The --counters JSONL of one shipped manifest run at --quick.
std::string run_manifest_counters(const std::string& manifest,
                                  std::size_t jobs) {
  const core::Manifest m =
      core::Manifest::load(EEND_MANIFEST_DIR "/" + manifest + ".json");
  std::ostringstream counters;
  core::EngineOptions opts;
  opts.jobs = jobs;
  opts.quick = true;
  opts.counters = &counters;
  core::ExperimentEngine engine(opts);
  engine.run(m);
  return counters.str();
}

TEST(ObsEngine, CountersAreByteIdenticalAcrossJobs) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled off";
  const std::string serial = run_manifest_counters("design_churn", 1);
  ASSERT_FALSE(serial.empty());
  // Spot-check the catalog: churn cells exercise the sim core, the route
  // cache, and the churn engine itself.
  EXPECT_NE(serial.find("\"counter\":\"sim.events_fired\""),
            std::string::npos);
  EXPECT_NE(serial.find("\"counter\":\"opt.cache.route_hits\""),
            std::string::npos);
  EXPECT_NE(serial.find("\"counter\":\"churn.events_applied\""),
            std::string::npos);
  EXPECT_NE(serial.find("\"experiment\":\"churn_serving\""),
            std::string::npos);
  EXPECT_EQ(serial, run_manifest_counters("design_churn", 8));
}

// --- Protocol-stack counters on the shipped small-field manifest ---------

/// Value of counter `name` in counters JSONL, or -1 when it is absent.
long long counter_value(const std::string& jsonl, const std::string& name) {
  const std::string key = "\"counter\":\"" + name + "\",\"value\":";
  const std::size_t at = jsonl.find(key);
  if (at == std::string::npos) return -1;
  return std::stoll(jsonl.substr(at + key.size()));
}

TEST(ObsEngine, ProtocolStackNeverSpillsClosures) {
  // Every closure the protocol stacks schedule fits a simulator slot
  // inline — the channel's end-of-airtime event included. An exact count,
  // so a spill per transmission shows here as a failure, not as noise in a
  // wall-clock benchmark. fig8 --quick runs all eight stacks.
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled off";
  const std::string c = run_manifest_counters("small_field", 2);
  EXPECT_GT(counter_value(c, "net.channel_transmissions"), 0);
  EXPECT_EQ(counter_value(c, "sim.closure_pool_spills"), 0);
}

TEST(ObsEngine, RoutingWorkCounterIsByteIdenticalAcrossJobs) {
  // routing.update_entries — the advertised DSDV entries folded — is the
  // exact per-entry denominator for DSDV table work; like every counter it
  // must not depend on the thread count.
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled off";
  const std::string serial = run_manifest_counters("small_field", 1);
  EXPECT_GT(counter_value(serial, "routing.update_entries"), 0);
  EXPECT_EQ(serial, run_manifest_counters("small_field", 4));
}

TEST(ObsEngine, DesignWorkCountersAreByteIdenticalAcrossJobs) {
  // graph.dijkstra.runs / .settled, opt.eval.calls, opt.eval.routes_reused
  // and steiner.kr.centers_scanned / .settled are the exact denominators of
  // design-search work: searches run, nodes settled, candidates scored,
  // routes a move kept, and Klein-Ravi's spider searches. The portfolio
  // manifest fans its starts out over the pool and the churn manifest runs
  // warm repair, so both paths publish.
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled off";
  for (const char* manifest : {"design_portfolio", "design_churn"}) {
    const std::string serial = run_manifest_counters(manifest, 1);
    for (const char* name :
         {"graph.dijkstra.runs", "graph.dijkstra.settled", "opt.eval.calls",
          "opt.eval.routes_reused", "steiner.kr.centers_scanned",
          "steiner.kr.settled"})
      EXPECT_GT(counter_value(serial, name), 0) << manifest << " " << name;
    EXPECT_GE(counter_value(serial, "graph.dijkstra.settled"),
              counter_value(serial, "graph.dijkstra.runs"))
        << manifest;
    EXPECT_GE(counter_value(serial, "steiner.kr.settled"),
              counter_value(serial, "steiner.kr.centers_scanned"))
        << manifest;
    EXPECT_EQ(serial, run_manifest_counters(manifest, 8)) << manifest;
  }
}

// --- Work budget -----------------------------------------------------------

/// Sum of counter `name` over every experiment of counters JSONL.
std::uint64_t counter_total(const std::string& jsonl, const std::string& name) {
  std::uint64_t total = 0;
  std::istringstream in(jsonl);
  for (std::string line; std::getline(in, line);) {
    const json::Value row = json::parse(line);
    const json::Value* counter = row.find("counter");
    if (counter && counter->as_string() == name)
      total += static_cast<std::uint64_t>(row.find("value")->as_number());
  }
  return total;
}

TEST(ObsEngine, DesignWorkStaysWithinBudget) {
  // tests/golden/work_budget.jsonl bounds the design work of the quick
  // portfolio and churn manifests: a "max" on the routing searches,
  // evaluations and Klein-Ravi scans they run, a "min" on the routes
  // incremental move evaluation keeps. The counts are exact on any
  // machine, so a change that does more work — scoring every move from
  // scratch again, say — fails here, not only in a timing. Lowering a
  // "max" or raising a "min" is free; loosening a bound needs a stated
  // reason in CHANGES.md.
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled off";
  std::ifstream in(EEND_GOLDEN_DIR "/work_budget.jsonl");
  ASSERT_TRUE(in) << "missing work_budget.jsonl";
  std::map<std::string, std::string> counters;  // manifest -> JSONL
  int rows = 0;
  for (std::string line; std::getline(in, line);) {
    const json::Value row = json::parse(line);
    const std::string manifest = row.find("manifest")->as_string();
    const std::string name = row.find("counter")->as_string();
    std::string& jsonl = counters[manifest];
    if (jsonl.empty()) jsonl = run_manifest_counters(manifest, 2);
    const std::uint64_t value = counter_total(jsonl, name);
    if (const json::Value* max = row.find("max")) {
      EXPECT_LE(value, static_cast<std::uint64_t>(max->as_number()))
          << manifest << " " << name;
    }
    if (const json::Value* min = row.find("min")) {
      EXPECT_GE(value, static_cast<std::uint64_t>(min->as_number()))
          << manifest << " " << name;
    }
    ++rows;
  }
  EXPECT_EQ(rows, 10);
}

// --- Chrome trace emission ------------------------------------------------

std::vector<obs::TraceEvent> run_churn_trace(std::size_t jobs) {
  obs::TraceCollector collector;
  obs::set_trace(&collector);
  const core::Manifest m =
      core::Manifest::load(EEND_MANIFEST_DIR "/design_churn.json");
  core::EngineOptions opts;
  opts.jobs = jobs;
  opts.quick = true;
  core::ExperimentEngine engine(opts);
  engine.run(m);
  obs::set_trace(nullptr);
  return collector.events();
}

TEST(ObsTrace, JsonIsWellFormedAndSpansNest) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled off";
  obs::TraceCollector collector;
  obs::set_trace(&collector);
  const core::Manifest m =
      core::Manifest::load(EEND_MANIFEST_DIR "/design_churn.json");
  core::EngineOptions opts;
  opts.quick = true;
  core::ExperimentEngine engine(opts);
  engine.run(m);
  obs::set_trace(nullptr);
  std::ostringstream os;
  collector.write_json(os);

  const json::Value doc = json::parse(os.str());
  ASSERT_TRUE(doc.is_object());
  const json::Value* events = nullptr;
  for (const auto& [k, v] : doc.as_object())
    if (k == "traceEvents") events = &v;
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->as_array().empty());

  struct Span {
    std::string name;
    std::uint32_t pid = 0, tid = 0;
    double ts = 0.0, dur = 0.0;
  };
  std::vector<Span> spans;
  for (const json::Value& ev : events->as_array()) {
    ASSERT_TRUE(ev.is_object());
    Span s;
    for (const auto& [k, v] : ev.as_object()) {
      if (k == "name") s.name = v.as_string();
      else if (k == "ph") EXPECT_EQ(v.as_string(), "X");
      else if (k == "pid") s.pid = static_cast<std::uint32_t>(v.as_number());
      else if (k == "tid") s.tid = static_cast<std::uint32_t>(v.as_number());
      else if (k == "ts") s.ts = v.as_number();
      else if (k == "dur") s.dur = v.as_number();
    }
    EXPECT_FALSE(s.name.empty());
    EXPECT_LE(s.pid, obs::kPidCell);
    EXPECT_GE(s.ts, 0.0);
    EXPECT_GE(s.dur, 0.0);
    spans.push_back(std::move(s));
  }

  // The deterministic engine phases must appear by name.
  const auto has = [&](std::string_view name) {
    return std::any_of(spans.begin(), spans.end(),
                       [&](const Span& s) { return s.name == name; });
  };
  EXPECT_TRUE(has("experiment:churn_serving"));
  EXPECT_TRUE(has("sink.flush"));
  EXPECT_TRUE(has("churn.cell"));
  EXPECT_TRUE(has("churn.cold_solve"));
  EXPECT_TRUE(has("churn.warm_repair"));
  EXPECT_TRUE(has("instance.build"));

  // Complete spans on one (pid, tid) lane must nest: sorted by start time,
  // each span either starts after the enclosing one ends or ends within it.
  // A small epsilon absorbs float rounding of back-to-back spans.
  constexpr double kEpsUs = 0.5;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<Span>> lanes;
  for (const Span& s : spans) lanes[{s.pid, s.tid}].push_back(s);
  for (auto& [lane, in_lane] : lanes) {
    std::stable_sort(in_lane.begin(), in_lane.end(),
                     [](const Span& a, const Span& b) { return a.ts < b.ts; });
    std::vector<double> open_ends;
    for (const Span& s : in_lane) {
      while (!open_ends.empty() && open_ends.back() <= s.ts + kEpsUs)
        open_ends.pop_back();
      if (!open_ends.empty()) {
        EXPECT_LE(s.ts + s.dur, open_ends.back() + kEpsUs)
            << "span '" << s.name << "' overlaps its enclosing span on lane ("
            << lane.first << "," << lane.second << ")";
      }
      open_ends.push_back(s.ts + s.dur);
    }
  }
}

TEST(ObsTrace, SpanNamesAreJobsInvariant) {
  if (!obs::kEnabled) GTEST_SKIP() << "telemetry compiled off";
  // Which lane a span lands on depends on scheduling; WHICH spans exist
  // (one per cell, phase, solve, ...) depends only on the workload.
  const auto names_of = [](std::size_t jobs) {
    std::vector<std::string> names;
    for (const obs::TraceEvent& e : run_churn_trace(jobs))
      names.push_back(e.name);
    std::sort(names.begin(), names.end());
    return names;
  };
  EXPECT_EQ(names_of(1), names_of(4));
}

TEST(ObsTrace, DisabledCollectorEmitsNothing) {
  obs::TraceCollector collector;
  // No set_trace: PhaseTimer still measures but must not emit anywhere.
  obs::PhaseTimer t("untracked.phase");
  EXPECT_GE(t.stop(), 0.0);
  EXPECT_TRUE(collector.events().empty());
  std::ostringstream os;
  collector.write_json(os);
  EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
}

}  // namespace
}  // namespace eend
