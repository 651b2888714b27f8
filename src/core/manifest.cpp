#include "core/manifest.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>

#include "energy/radio_card.hpp"
#include "opt/design_heuristic.hpp"
#include "util/check.hpp"

namespace eend::core {

namespace {

using K = ExperimentKind;

[[noreturn]] void fail(const std::string& msg) {
  throw CheckError("manifest: " + msg);
}

std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (const auto& p : parts) {
    if (!out.empty()) out += ", ";
    out += p;
  }
  return out;
}

bool is_name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '-';
}

// ---------------------------------------------------------------- readers ---

/// Wraps one JSON object; every field access marks its key as consumed so
/// finish() can reject leftovers ("unknown key") with the allowed set —
/// typo-proofing for hand-written manifests.
class ObjectReader {
 public:
  ObjectReader(const json::Value& v, std::string ctx) : ctx_(std::move(ctx)) {
    if (!v.is_object()) fail(ctx_ + " must be a JSON object");
    obj_ = &v.as_object();
    consumed_.assign(obj_->size(), false);
  }

  const json::Value* optional(const std::string& key) {
    for (std::size_t i = 0; i < obj_->size(); ++i) {
      if ((*obj_)[i].first == key) {
        consumed_[i] = true;
        return &(*obj_)[i].second;
      }
    }
    known_.push_back(key);
    return nullptr;
  }

  const json::Value& required(const std::string& key) {
    const json::Value* v = optional(key);
    if (!v) fail("missing required key \"" + key + "\" in " + ctx_);
    return *v;
  }

  /// Reject `key` if present, with `why` — used for keys that are invalid
  /// for the current kind (they stay out of the unknown-key allowed list).
  void forbid(const std::string& key, const std::string& why) {
    for (std::size_t i = 0; i < obj_->size(); ++i)
      if ((*obj_)[i].first == key)
        fail("key \"" + key + "\" in " + ctx_ + " " + why);
  }

  void finish() {
    std::vector<std::string> allowed;
    for (std::size_t i = 0; i < obj_->size(); ++i)
      if (consumed_[i]) allowed.push_back((*obj_)[i].first);
    for (std::size_t i = 0; i < obj_->size(); ++i) {
      if (consumed_[i]) continue;
      std::vector<std::string> names = known_;
      for (const auto& a : allowed) names.push_back(a);
      std::sort(names.begin(), names.end());
      names.erase(std::unique(names.begin(), names.end()), names.end());
      fail("unknown key \"" + (*obj_)[i].first + "\" in " + ctx_ +
           " (allowed: " + join(names) + ")");
    }
  }

 private:
  const json::Object* obj_ = nullptr;
  std::vector<bool> consumed_;
  std::vector<std::string> known_;  // keys probed but absent
  std::string ctx_;
};

/// Interval a scalar (or each list entry) must lie in, plus the wording the
/// rejection uses: "<ctx> must be <text>". A null text means unbounded.
struct Range {
  double lo = 0.0;
  double hi = 0.0;
  const char* text = nullptr;
  bool lo_open = false;

  bool holds(double x) const {
    return !text || ((lo_open ? x > lo : x >= lo) && x <= hi);
  }
};

/// [lo, hi]
constexpr Range closed(double lo, double hi, const char* text) {
  return {lo, hi, text, false};
}
/// (lo, hi]
constexpr Range above(double lo, double hi, const char* text) {
  return {lo, hi, text, true};
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Range kPositive = above(0.0, kInf, "positive");
constexpr Range kRate = above(0.0, 1e6, "in (0, 1e6] pkt/s");
constexpr Range kMultiplier = above(0.0, 1e3, "in (0, 1e3]");
constexpr Range kNodeId =
    closed(0.0, static_cast<double>(graph::kInvalidNode) - 1,
           "a node id in [0, 4294967294]");

std::string as_string(const json::Value& v, const std::string& ctx) {
  if (!v.is_string()) fail(ctx + " must be a string");
  return v.as_string();
}

double as_finite(const json::Value& v, const std::string& ctx) {
  if (!v.is_number()) fail(ctx + " must be a number");
  return v.as_number();
}

std::uint64_t as_uint(const json::Value& v, const std::string& ctx) {
  const double d = as_finite(v, ctx);
  if (d < 0.0 || d != std::floor(d) || d > 9.007199254740992e15)
    fail(ctx + " must be a non-negative integer, got " + json::dump(v));
  return static_cast<std::uint64_t>(d);
}

/// Index of the first entry repeating an earlier one: every axis value
/// defines one cell, so repeats are rejected.
template <class T>
std::optional<std::size_t> find_repeat(const std::vector<T>& v) {
  for (std::size_t j = 1; j < v.size(); ++j)
    if (std::find(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(j),
                  v[j]) != v.begin() + static_cast<std::ptrdiff_t>(j))
      return j;
  return std::nullopt;
}

// The value readers of the key table: (JSON, row range, "<ctx> <key>").

std::uint64_t read_uint(const json::Value& v, const Range& r,
                        const std::string& ctx) {
  const std::uint64_t n = as_uint(v, ctx);
  if (!r.holds(static_cast<double>(n))) fail(ctx + " must be " + r.text);
  return n;
}

double read_finite(const json::Value& v, const Range& r,
                   const std::string& ctx) {
  const double x = as_finite(v, ctx);
  if (!r.holds(x)) fail(ctx + " must be " + r.text);
  return x;
}

bool read_bool(const json::Value& v, const Range&, const std::string& ctx) {
  if (!v.is_bool()) fail(ctx + " must be a boolean");
  return v.as_bool();
}

std::vector<double> read_weights(const json::Value& v, const Range& r,
                                 const std::string& ctx) {
  if (!v.is_array() || v.as_array().empty())
    fail(ctx + " must be a non-empty array");
  std::vector<double> out;
  for (const auto& e : v.as_array()) {
    const double x = as_finite(e, ctx + " entry");
    if (!r.holds(x))
      fail(ctx + " entries must be " + r.text + ", got " + json::dump(e));
    out.push_back(x);
  }
  return out;
}

std::vector<double> read_rates(const json::Value& v, const Range& r,
                               const std::string& ctx) {
  if (!v.is_array() || v.as_array().empty())
    fail(ctx + " must be a non-empty array of rates");
  std::vector<double> out = read_weights(v, r, ctx);
  if (const auto i = find_repeat(out))
    fail("duplicate rate " + json::dump(json::Value(out[*i])) + " in " + ctx +
         " — each rate defines one cell");
  return out;
}

std::vector<std::size_t> read_nodes(const json::Value& v, const Range& r,
                                    const std::string& ctx) {
  if (!v.is_array() || v.as_array().empty())
    fail(ctx + " must be a non-empty array of node counts");
  std::vector<std::size_t> out;
  for (const auto& e : v.as_array()) {
    const auto n = as_uint(e, ctx + " entry");
    if (!r.holds(static_cast<double>(n)))
      fail(ctx + " entries must be " + r.text + ", got " + json::dump(e));
    out.push_back(static_cast<std::size_t>(n));
  }
  if (const auto i = find_repeat(out))
    fail("duplicate node count " + std::to_string(out[*i]) + " in " + ctx +
         " — each count defines one cell");
  return out;
}

graph::NodeId read_node_id(const json::Value& v, const std::string& ctx) {
  return static_cast<graph::NodeId>(read_uint(v, kNodeId, ctx));
}

// ------------------------------------------------------------------ kinds ---

constexpr MetricInfo kSimMetrics[] = {
    {"delivery_ratio", "delivery ratio", 3},
    {"goodput_bit_per_j", "energy goodput (bit/J)", 1},
    {"transmit_energy_j", "transmit energy (J)"},
    {"total_energy_j", "total energy (J)"},
    {"control_energy_j", "control energy (J)"},
    {"passive_energy_j", "passive energy (J)"},
    {"nodes_carrying_data", "nodes carrying data"},
    {"rreq_transmissions", "RREQ transmissions"},
    {"mac_collisions", "MAC collisions"},
    {"mac_cs_drops", "carrier-sense drops"},
    {"mac_defers_exhausted", "MAC defers exhausted"},
    {"mac_stale_bcast_drops", "stale broadcast drops"},
    {"mac_unicast_failures", "unicast failures"},
    {"average_delay_s", "average delay (s)"},
};
constexpr MetricInfo kGridMetrics[] = {
    {"goodput_kbit_per_j", "energy goodput (Kbit/J)", 3},
    {"network_power_w", "network power (W)"},
    {"data_power_w", "data power (W)"},
    {"passive_power_w", "passive power (W)"},
    {"active_nodes", "active nodes"},
};
constexpr MetricInfo kMoptMetrics[] = {
    {"mopt", "m_opt", 3},
};
constexpr MetricInfo kDesignMetrics[] = {
    {"eq5_total", "Eq. 5 total cost", 1},
    {"eq5_data", "Eq. 5 data cost"},
    {"eq5_idle", "Eq. 5 passive (idle) cost"},
    {"gap_vs_klein_ravi", "gap vs Klein-Ravi (%)", 2},
    {"relay_nodes", "relay nodes"},
    // Wall time is real elapsed time and therefore NOT covered by the
    // determinism contract — keep it out of golden-pinned manifests.
    {"wall_time_s", "wall time (s)"},
    // The next four require `presolve: true` on the experiment (a cross-key
    // check); they surface the certified bound and instance shrink.
    {"lb", "certified Eq. 5 lower bound"},
    {"certified_gap_pct", "certified gap vs lower bound (%)"},
    {"reduced_nodes", "presolve-removed nodes"},
    {"reduced_edges", "presolve-removed edges"},
};
constexpr MetricInfo kReplayMetrics[] = {
    {"analytic_eq5_j", "Eq. 5 analytic energy (J)", 1},
    {"sim_energy_j", "simulated energy (J)", 1},
    {"analytic_gap_pct", "simulated vs Eq. 5 gap (%)", 1},
    {"sim_j_per_kbit", "simulated J per delivered Kbit"},
    {"delivery_ratio", "delivery ratio", 3},
    {"first_death_s", "first battery death (s; horizon = none)", 1},
    {"depleted_nodes", "battery-depleted nodes"},
    {"active_nodes", "active nodes"},
    {"max_node_load_j", "max per-node analytic load (J)"},
};
constexpr MetricInfo kChurnMetrics[] = {
    {"warm_score", "warm-start Eq. 5 score", 1},
    {"cold_score", "from-scratch Eq. 5 score"},
    {"gap_vs_cold_pct", "warm vs from-scratch gap (%)", 2},
    {"events_applied", "churn events applied", 1},
    {"rerouted_demands", "demands re-routed"},
    {"fallbacks", "portfolio fallbacks"},
    {"active_nodes", "active nodes (warm design)"},
    {"live_demands", "live demands"},
    // Wall times are real elapsed time and therefore NOT covered by the
    // determinism contract — keep them out of golden-pinned manifests.
    {"warm_wall_s", "warm re-design latency (s)"},
    {"cold_wall_s", "from-scratch latency (s)"},
    // Requires `replay_every` > 0 on the experiment (a cross-key check);
    // zero on epochs that skip the replay validation.
    {"replay_gap_pct", "replayed sim vs Eq. 5 gap (%)"},
};

/// The kind table, in ExperimentKind order. Columns: name, metrics, default
/// scenario preset, series key, x-axis key, x header, x digits, runs, seed.
constexpr KindInfo kKinds[] = {
    {"sweep", kSimMetrics, "small_network", "stacks", "rates_pps",
     "rate (pkt/s)", 1, true, true},
    {"density", kSimMetrics, "density_network", "stacks", "node_counts",
     "# of nodes", -1, true, true},
    {"grid", kGridMetrics, "hypothetical_grid", "stacks", "rates_pps",
     "rate (pkt/s)", 1, false, true},
    {"mopt", kMoptMetrics, nullptr, "cards", "rb", "R/B", 2, false, false},
    {"design", kDesignMetrics, nullptr, "heuristics", "node_counts",
     "# of nodes", -1, true, true},
    {"replay", kReplayMetrics, nullptr, "heuristics", "node_counts",
     "# of nodes", -1, true, true},
    {"churn", kChurnMetrics, nullptr, "node_counts", "epochs", "epoch", -1,
     true, true},
};
static_assert(std::size(kKinds) == static_cast<std::size_t>(K::Churn) + 1);

/// Bit set over ExperimentKind.
using KindSet = unsigned;

constexpr KindSet bit(ExperimentKind k) {
  return 1u << static_cast<unsigned>(k);
}

template <class... Ks>
constexpr KindSet kinds(Ks... ks) {
  return (bit(ks) | ...);
}

constexpr KindSet kinds_where(bool (*pred)(const KindInfo&)) {
  KindSet out = 0;
  for (unsigned i = 0; i < std::size(kKinds); ++i)
    if (pred(kKinds[i])) out |= 1u << i;
  return out;
}

/// Kinds whose series or x axis is the key `name`.
constexpr KindSet axis_kinds(std::string_view name) {
  KindSet out = 0;
  for (unsigned i = 0; i < std::size(kKinds); ++i)
    if (name == kKinds[i].series_key || name == kKinds[i].x_key)
      out |= 1u << i;
  return out;
}

constexpr KindSet kAllKinds = (1u << std::size(kKinds)) - 1;
constexpr KindSet kScenarioKinds =
    kinds_where([](const KindInfo& k) { return k.scenario_preset != nullptr; });
constexpr KindSet kReplicated =
    kinds_where([](const KindInfo& k) { return k.has_runs; });
constexpr KindSet kSeeded =
    kinds_where([](const KindInfo& k) { return k.has_seed; });
/// Kinds whose instances come from the §5.2.2 density law with sampled
/// demands, searched by the opt/ heuristics.
constexpr KindSet kInstanceKinds = kinds(K::Design, K::Replay, K::Churn);

/// `"a"`, `"a" and "b"`, `"a", "b" and "c"` — with the kind/kinds noun.
std::string kind_list(KindSet set) {
  std::vector<std::string> names;
  for (unsigned i = 0; i < std::size(kKinds); ++i)
    if (set & (1u << i))
      names.push_back('"' + std::string(kKinds[i].name) + '"');
  std::string out = names.size() > 1 ? "kinds " : "kind ";
  for (std::size_t i = 0; i < names.size(); ++i)
    out += (i == 0 ? "" : i + 1 == names.size() ? " and " : ", ") + names[i];
  return out;
}

std::string not_valid(KindSet allowed, ExperimentKind kind, const char* hint) {
  return "is not valid for kind \"" + std::string(kind_name(kind)) +
         "\" (only valid for " + kind_list(allowed) +
         (hint ? "; " + std::string(hint) : "") + ")";
}

std::vector<MetricSpec> default_metrics(ExperimentKind kind) {
  std::vector<MetricSpec> out;
  for (const MetricInfo& m : kind_info(kind).metrics)
    if (m.default_precision >= 0) out.push_back({m.name, m.default_precision});
  return out;
}

// -------------------------------------------------------------- key table ---

/// How one key's value is read (and range-checked) into its C++ object and
/// written back. A null write result means "unset": serialize leaves the
/// key out (empty optionals, empty lists).
template <class Obj>
struct Field {
  void (*read)(const json::Value& v, Obj& o, const Range& range,
               const std::string& ctx);
  json::Value (*write)(const Obj& o);
};

template <class M>
struct MemberOf;
template <class C, class T>
struct MemberOf<T C::*> {
  using Object = C;
};
template <auto M>
using ObjectOf = typename MemberOf<decltype(M)>::Object;

template <class T, class U>
void store(T& dst, U&& v) {
  dst = static_cast<T>(std::forward<U>(v));
}
template <class T, class U>
void store(std::optional<T>& dst, U&& v) {
  dst = static_cast<T>(std::forward<U>(v));
}

template <class T>
struct IsOptional : std::false_type {};
template <class T>
struct IsOptional<std::optional<T>> : std::true_type {};

template <class T>
json::Value to_json(const T& x) {
  if constexpr (std::is_same_v<T, bool>) {
    return json::Value(x);
  } else if constexpr (std::is_arithmetic_v<T>) {
    return json::Value(static_cast<double>(x));
  } else if constexpr (IsOptional<T>::value) {
    return x ? to_json(*x) : json::Value();
  } else if constexpr (std::is_same_v<T, std::string>) {
    return x.empty() ? json::Value() : json::Value(x);
  } else {
    if (x.empty()) return json::Value();
    json::Array a;
    for (const auto& item : x) a.push_back(to_json(item));
    return json::Value(std::move(a));
  }
}

/// A plain member read by one of the value readers above.
template <auto M, auto Read>
constexpr Field<ObjectOf<M>> typed{
    [](const json::Value& v, ObjectOf<M>& o, const Range& r,
       const std::string& ctx) { store(o.*M, Read(v, r, ctx)); },
    [](const ObjectOf<M>& o) { return to_json(o.*M); }};

/// A kind that takes the key only while a cross-key condition holds:
/// parse rejects the key otherwise (with `why`), serialize leaves it out.
struct Gate {
  ExperimentKind kind = K::Sweep;
  bool (*holds)(const Experiment&) = nullptr;  ///< null: no gate
  const char* why = nullptr;
};

/// One row of the manifest schema.
template <class Obj>
struct Key {
  const char* name;
  Field<Obj> field;
  KindSet kinds = kAllKinds;  ///< kinds that take the key
  Range range = {};
  bool required = false;
  const char* hint = nullptr;  ///< appended to "is not valid for kind"
  Gate gate = {};              ///< gate.kind is allowed too, conditionally

  bool allows(ExperimentKind k) const {
    return (kinds & bit(k)) || (gate.holds && gate.kind == k);
  }
  bool gated_off(const Experiment& e) const {
    return gate.holds && gate.kind == e.kind && !gate.holds(e);
  }
  /// Whether serialize writes the key for `o`: experiment keys only for
  /// kinds that take them and while their gate holds.
  bool emitted_for(const Obj& o) const {
    if constexpr (std::is_same_v<Obj, Experiment>)
      return allows(o.kind) && !gated_off(o);
    return true;
  }
};

using ExperimentKey = Key<Experiment>;
using ScenarioKey = Key<ScenarioSpec>;

/// Read one row from `r` into `o`: reject it for kinds that do not take it,
/// demand it when required, and otherwise leave the default in place.
template <class Obj>
void read_key(ObjectReader& r, const Key<Obj>& k, Obj& o, ExperimentKind kind,
              const std::string& ctx) {
  if (!k.allows(kind))
    return r.forbid(k.name, not_valid(k.kinds, kind, k.hint));
  const json::Value* p = k.required ? &r.required(k.name) : r.optional(k.name);
  if (p) k.field.read(*p, o, k.range, ctx + " " + k.name);
}

/// Serialize `o` through its key table, in row order, leaving unset keys out.
template <class Obj>
json::Object write_keys(std::span<const Key<Obj>> keys, const Obj& o) {
  json::Object out;
  for (const Key<Obj>& k : keys)
    if (k.emitted_for(o))
      if (json::Value v = k.field.write(o); !v.is_null())
        out.emplace_back(k.name, std::move(v));
  return out;
}

template <class Row>
const Row* find_key(std::span<const Row> rows, std::string_view name) {
  for (const Row& k : rows)
    if (name == k.name) return &k;
  return nullptr;
}

std::span<const ExperimentKey> experiment_keys();

// --------------------------------------------------------------- scenario ---

// Single registry of scenario presets: name list (validation) and factory
// dispatch (ScenarioSpec::resolve) derive from the same table, so a preset
// added here is complete.
struct ScenarioPreset {
  const char* name;
  net::ScenarioConfig (*make)(const ScenarioSpec&);
};

const ScenarioPreset kScenarioPresetTable[] = {
    {"small_network",
     [](const ScenarioSpec&) { return net::ScenarioConfig::small_network(); }},
    {"large_network",
     [](const ScenarioSpec&) { return net::ScenarioConfig::large_network(); }},
    {"density_network",
     [](const ScenarioSpec& s) {
       return net::ScenarioConfig::density_network(s.node_count.value_or(200));
     }},
    {"hypothetical_grid",
     [](const ScenarioSpec&) {
       return net::ScenarioConfig::hypothetical_grid();
     }},
    {"huge_field",
     [](const ScenarioSpec& s) {
       return net::ScenarioConfig::huge_field(s.node_count.value_or(2000));
     }},
    {"custom", [](const ScenarioSpec&) { return net::ScenarioConfig(); }},
};

const ScenarioPreset* find_preset(const std::string& name) {
  for (const ScenarioPreset& p : kScenarioPresetTable)
    if (name == p.name) return &p;
  std::vector<std::string> names;
  for (const ScenarioPreset& p : kScenarioPresetTable)
    names.emplace_back(p.name);
  fail("unknown scenario preset \"" + name + "\" (valid: " + join(names) + ")");
}

std::string read_preset(const json::Value& v, const Range&,
                        const std::string& ctx) {
  std::string name = as_string(v, ctx);
  find_preset(name);
  return name;
}

/// Scenario object keys, in serialize order.
constexpr ScenarioKey kScenarioKeys[] = {
    {.name = "preset", .field = typed<&ScenarioSpec::preset, read_preset>,
     .required = true},
    {.name = "node_count",
     .field = typed<&ScenarioSpec::node_count, read_uint>},
    {.name = "field_w", .field = typed<&ScenarioSpec::field_w, read_finite>,
     .range = kPositive},
    {.name = "field_h", .field = typed<&ScenarioSpec::field_h, read_finite>,
     .range = kPositive},
    {.name = "flow_count",
     .field = typed<&ScenarioSpec::flow_count, read_uint>},
    {.name = "rate_pps", .field = typed<&ScenarioSpec::rate_pps, read_finite>,
     .range = kRate},
    {.name = "payload_bits",
     .field = typed<&ScenarioSpec::payload_bits, read_uint>,
     .range = closed(1, 1 << 24, "in [1, 2^24]")},
    {.name = "duration_s",
     .field = typed<&ScenarioSpec::duration_s, read_finite>,
     .range = kPositive},
    {.name = "flow_endpoint_pool",
     .field = typed<&ScenarioSpec::flow_endpoint_pool, read_uint>},
    {.name = "rate_multipliers",
     .field = typed<&ScenarioSpec::rate_multipliers, read_weights>,
     .range = kMultiplier},
};

// ------------------------------------------------------------------- churn ---

churn::Event parse_churn_event(const json::Value& v, const std::string& ctx) {
  ObjectReader r(v, ctx);
  churn::Event ev;
  const std::string op = as_string(r.required("op"), ctx + " op");
  if (op != "arrive" && op != "depart" && op != "rate" && op != "fail" &&
      op != "move")
    fail(ctx + " op \"" + op +
         "\" is unknown (valid: arrive, depart, rate, fail, move)");
  ev.op = churn::event_op_from_name(op);
  switch (ev.op) {
    case churn::EventOp::Arrive:
      ev.source = read_node_id(r.required("source"), ctx + " source");
      ev.destination =
          read_node_id(r.required("destination"), ctx + " destination");
      if (ev.source == ev.destination)
        fail(ctx + " arrive demand (" + std::to_string(ev.source) + ", " +
             std::to_string(ev.destination) + ") is a self-loop");
      if (const auto* p = r.optional("weight"))
        ev.weight = read_finite(*p, kMultiplier, ctx + " weight");
      break;
    case churn::EventOp::Depart:
      ev.demand = static_cast<std::size_t>(
          as_uint(r.required("demand"), ctx + " demand"));
      break;
    case churn::EventOp::RateSwing:
      ev.demand = static_cast<std::size_t>(
          as_uint(r.required("demand"), ctx + " demand"));
      ev.factor =
          read_finite(r.required("factor"), kMultiplier, ctx + " factor");
      break;
    case churn::EventOp::Fail:
      ev.node = read_node_id(r.required("node"), ctx + " node");
      break;
    case churn::EventOp::Move:
      ev.node = read_node_id(r.required("node"), ctx + " node");
      ev.x = as_finite(r.required("x"), ctx + " x");
      ev.y = as_finite(r.required("y"), ctx + " y");
      if (!(ev.x >= 0.0) || ev.x > 1e6 || !(ev.y >= 0.0) || ev.y > 1e6)
        fail(ctx + " move target must be in [0, 1e6] meters per axis");
      break;
  }
  r.finish();
  return ev;
}

/// Parse + statically validate an explicit churn schedule. The validator
/// replays the live demand list as the events would mutate it: the
/// instance's initial demands have instance-dependent endpoints (unknown
/// here — nullopt), arrivals are fully known. That catches out-of-range
/// indices, departures below one demand, duplicate failures and failures
/// of a known flow endpoint at parse time; graph-dependent breakage (a
/// failure stranding an *initial* demand, an unroutable arrival) is caught
/// at run time by ChurnState::apply.
void read_schedule(const json::Value& v, Experiment& e, const Range&,
                   const std::string& ctx) {
  if (!v.is_array() || v.as_array().empty())
    fail(ctx + " must be a non-empty array of epoch entries");
  using MaybePair = std::optional<std::pair<graph::NodeId, graph::NodeId>>;
  std::vector<MaybePair> live(e.demands);
  std::set<graph::NodeId> failed;
  std::vector<churn::EpochEvents> out;
  std::size_t prev_at = 0;
  for (const auto& entry : v.as_array()) {
    ObjectReader er(entry, ctx + " entry");
    churn::EpochEvents ee;
    ee.at = static_cast<std::size_t>(as_uint(er.required("at"), ctx + " at"));
    if (ee.at < 1 || ee.at >= e.epochs)
      fail(ctx + " entry at=" + std::to_string(ee.at) + " outside [1, " +
           std::to_string(e.epochs) + ") — epoch 0 is the untouched instance");
    if (ee.at <= prev_at)
      fail(ctx + " entries must be strictly increasing in \"at\" (saw " +
           std::to_string(ee.at) + " after " + std::to_string(prev_at) + ")");
    prev_at = ee.at;
    const json::Value& evs = er.required("events");
    if (!evs.is_array() || evs.as_array().empty())
      fail(ctx + " entry at=" + std::to_string(ee.at) +
           " must list at least one event");
    for (const auto& evv : evs.as_array()) {
      const std::string ectx =
          ctx + " (at=" + std::to_string(ee.at) + ") event";
      churn::Event ev = parse_churn_event(evv, ectx);
      switch (ev.op) {
        case churn::EventOp::Arrive: {
          for (const MaybePair& p : live)
            if (p && p->first == ev.source && p->second == ev.destination)
              fail(ectx + ": demand (" + std::to_string(ev.source) + ", " +
                   std::to_string(ev.destination) + ") is already live");
          if (failed.count(ev.source) || failed.count(ev.destination))
            fail(ectx + ": arrive endpoint is a failed node");
          live.emplace_back(std::in_place, ev.source, ev.destination);
          break;
        }
        case churn::EventOp::Depart:
          if (ev.demand >= live.size())
            fail(ectx + ": depart index " + std::to_string(ev.demand) +
                 " out of range (" + std::to_string(live.size()) +
                 " demands live at that point)");
          if (live.size() <= 1)
            fail(ectx + ": cannot depart the last live demand");
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(ev.demand));
          break;
        case churn::EventOp::RateSwing:
          if (ev.demand >= live.size())
            fail(ectx + ": rate index " + std::to_string(ev.demand) +
                 " out of range (" + std::to_string(live.size()) +
                 " demands live at that point)");
          break;
        case churn::EventOp::Fail: {
          if (failed.count(ev.node))
            fail(ectx + ": node " + std::to_string(ev.node) +
                 " is already failed");
          for (const MaybePair& p : live)
            if (p && (p->first == ev.node || p->second == ev.node))
              fail(ectx + ": node " + std::to_string(ev.node) +
                   " is a live flow endpoint — failing it would strand "
                   "the demand");
          failed.insert(ev.node);
          break;
        }
        case churn::EventOp::Move:
          if (failed.count(ev.node))
            fail(ectx + ": cannot move failed node " +
                 std::to_string(ev.node));
          break;
      }
      ee.events.push_back(ev);
    }
    out.push_back(std::move(ee));
  }
  e.churn_schedule = std::move(out);
}

json::Value write_schedule(const Experiment& e) {
  if (e.churn_schedule.empty()) return json::Value();
  json::Array sched;
  for (const churn::EpochEvents& ee : e.churn_schedule) {
    json::Array evs;
    for (const churn::Event& ev : ee.events) {
      json::Object eo;
      eo.emplace_back("op", std::string(churn::event_op_name(ev.op)));
      switch (ev.op) {
        case churn::EventOp::Arrive:
          eo.emplace_back("source", static_cast<double>(ev.source));
          eo.emplace_back("destination", static_cast<double>(ev.destination));
          eo.emplace_back("weight", ev.weight);
          break;
        case churn::EventOp::Depart:
          eo.emplace_back("demand", static_cast<double>(ev.demand));
          break;
        case churn::EventOp::RateSwing:
          eo.emplace_back("demand", static_cast<double>(ev.demand));
          eo.emplace_back("factor", ev.factor);
          break;
        case churn::EventOp::Fail:
          eo.emplace_back("node", static_cast<double>(ev.node));
          break;
        case churn::EventOp::Move:
          eo.emplace_back("node", static_cast<double>(ev.node));
          eo.emplace_back("x", ev.x);
          eo.emplace_back("y", ev.y);
          break;
      }
      evs.push_back(std::move(eo));
    }
    sched.push_back(
        json::Object{{"at", json::Value(static_cast<double>(ee.at))},
                     {"events", json::Value(std::move(evs))}});
  }
  return sched;
}

// ------------------------------------------------ structured-value readers ---

/// Experiment ids and the manifest name: the name is the default output
/// filename stem (eend_run writes <name>.csv / <name>.jsonl in the working
/// directory) and ids are --only arguments, so path separators or other
/// special characters must not get in.
std::string read_name(const json::Value& v, const Range&,
                      const std::string& ctx) {
  std::string name = as_string(v, ctx);
  if (name.empty()) fail(ctx + " must be non-empty");
  if (!std::all_of(name.begin(), name.end(), is_name_char))
    fail(ctx + " \"" + name +
         "\" may only contain letters, digits, '_' and '-' (it is used in "
         "output file names and --only lists)");
  return name;
}

std::string read_string(const json::Value& v, const Range&,
                        const std::string& ctx) {
  return as_string(v, ctx);
}

json::Value write_title(const Experiment& e) {
  return e.title == e.id ? json::Value() : json::Value(e.title);
}

/// Also applies the kind's defaults, which the keys read after it override.
void read_kind(const json::Value& v, Experiment& e, const Range&,
               const std::string& ctx) {
  e.kind = kind_from_name(as_string(v, ctx));
  if (const char* preset = kind_info(e.kind).scenario_preset)
    e.scenario.preset = preset;
  e.metrics = default_metrics(e.kind);
}

json::Value write_kind(const Experiment& e) { return kind_name(e.kind); }

void read_scenario(const json::Value& v, Experiment& e, const Range&,
                   const std::string& ctx) {
  ObjectReader r(v, ctx);
  ScenarioSpec s;
  for (const ScenarioKey& k : kScenarioKeys) read_key(r, k, s, e.kind, ctx);
  r.finish();
  e.scenario = std::move(s);
}

json::Value write_scenario(const Experiment& e) {
  return write_keys<ScenarioSpec>(kScenarioKeys, e.scenario);
}

/// A non-empty list of registry names, each validated by `lookup` (which
/// throws listing the valid names) and unique — every name is one series.
std::vector<std::string> read_names(const json::Value& v, const char* noun,
                                    void (*lookup)(const std::string&),
                                    const std::string& ctx) {
  if (!v.is_array() || v.as_array().empty())
    fail(ctx + " must be a non-empty array");
  std::vector<std::string> out;
  for (const auto& item : v.as_array()) {
    const std::string name = as_string(item, ctx + " entry");
    lookup(name);
    if (std::find(out.begin(), out.end(), name) != out.end())
      fail("duplicate " + std::string(noun) + " \"" + name + "\" in " + ctx +
           " — each " + noun + " defines one series");
    out.push_back(name);
  }
  return out;
}

std::vector<std::string> read_stacks(const json::Value& v, const Range&,
                                     const std::string& ctx) {
  return read_names(
      v, "stack", [](const std::string& n) { net::stack_preset(n); }, ctx);
}

std::vector<std::string> read_heuristics(const json::Value& v, const Range&,
                                         const std::string& ctx) {
  return read_names(
      v, "heuristic", [](const std::string& n) { opt::heuristic_by_name(n); },
      ctx);
}

std::string read_stack(const json::Value& v, const Range&,
                       const std::string& ctx) {
  std::string name = as_string(v, ctx);
  net::stack_preset(name);  // throws listing valid presets
  return name;
}

void read_cards(const json::Value& v, Experiment& e, const Range&,
                const std::string& ctx) {
  if (!v.is_array() || v.as_array().empty())
    fail(ctx + " must be a non-empty array");
  for (const auto& cv : v.as_array()) {
    ObjectReader cr(cv, ctx + " entry");
    CardSpec c;
    // Canonicalize case (lookup is case-insensitive, legends are not) and
    // reject unknown names in one step.
    c.card = energy::card_by_name(
                 as_string(cr.required("card"), ctx + " card")).name;
    c.distance_m =
        read_finite(cr.required("distance_m"), kPositive, ctx + " distance_m");
    cr.finish();
    // Series legends render the distance rounded to whole meters, so two
    // cards that only differ past that would silently merge into one
    // table column — treat them as duplicates.
    for (const auto& prev : e.cards)
      if (prev.card == c.card &&
          std::llround(prev.distance_m) == std::llround(c.distance_m))
        fail("duplicate card \"" + c.card + "\" in " + ctx +
             " — distances render identically in the legend (D=" +
             std::to_string(std::llround(c.distance_m)) + "m)");
    e.cards.push_back(std::move(c));
  }
}

json::Value write_cards(const Experiment& e) {
  json::Array cards;
  for (const auto& c : e.cards)
    cards.push_back(json::Object{{"card", json::Value(c.card)},
                                 {"distance_m", json::Value(c.distance_m)}});
  return cards;
}

std::vector<double> read_rb(const json::Value& v, const Range& range,
                            const std::string& ctx) {
  std::vector<double> rb = read_weights(v, range, ctx);
  if (find_repeat(rb)) fail("duplicate rb value in " + ctx);
  return rb;
}

void read_metrics(const json::Value& v, Experiment& e, const Range&,
                  const std::string& ctx) {
  if (!v.is_array() || v.as_array().empty())
    fail(ctx + " must be a non-empty array");
  const auto valid = kind_info(e.kind).metrics;
  std::vector<MetricSpec> out;
  for (const auto& item : v.as_array()) {
    MetricSpec m;
    if (item.is_string()) {
      m.name = item.as_string();
    } else {
      ObjectReader r(item, ctx + " entry");
      m.name = as_string(r.required("name"), ctx + " name");
      if (const auto* p = r.optional("precision"))
        m.precision = static_cast<int>(
            read_uint(*p, closed(0, 12, "<= 12"), ctx + " precision"));
      r.finish();
    }
    if (std::none_of(valid.begin(), valid.end(),
                     [&](const MetricInfo& i) { return m.name == i.name; })) {
      std::vector<std::string> names;
      for (const MetricInfo& i : valid) names.emplace_back(i.name);
      fail("metric \"" + m.name + "\" is not valid for kind \"" +
           kind_name(e.kind) + "\" (valid: " + join(names) + ")");
    }
    for (const auto& prev : out)
      if (prev.name == m.name) fail("duplicate metric \"" + m.name + "\"");
    out.push_back(std::move(m));
  }
  e.metrics = std::move(out);
}

json::Value write_metrics(const Experiment& e) {
  json::Array metrics;
  for (const auto& m : e.metrics)
    metrics.push_back(json::Object{
        {"name", json::Value(m.name)},
        {"precision", json::Value(static_cast<double>(m.precision))}});
  return metrics;
}

/// --quick overrides, in serialize order. Each overrides the same-named
/// experiment key — or, on kinds with a scenario, the scenario key — and
/// shares that key's kinds and range, so a quick value never exceeds what
/// the full run accepts.
struct QuickKey {
  const char* name;
  Field<QuickSpec> field;
};

constexpr QuickKey kQuickKeys[] = {
    {"duration_s", typed<&QuickSpec::duration_s, read_finite>},
    {"runs", typed<&QuickSpec::runs, read_uint>},
    {"rates_pps", typed<&QuickSpec::rates_pps, read_rates>},
    {"node_counts", typed<&QuickSpec::node_counts, read_nodes>},
    {"epochs", typed<&QuickSpec::epochs, read_uint>},
};

void read_quick(const json::Value& v, Experiment& e, const Range&,
                const std::string& ctx) {
  ObjectReader r(v, ctx);
  for (const QuickKey& q : kQuickKeys) {
    const ExperimentKey& top = *find_key(experiment_keys(), q.name);
    KindSet allowed = top.kinds;
    const Range* range = (top.kinds & bit(e.kind)) ? &top.range : nullptr;
    if (const ScenarioKey* s =
            find_key(std::span<const ScenarioKey>(kScenarioKeys), q.name)) {
      allowed |= kScenarioKinds;
      if (kScenarioKinds & bit(e.kind)) range = &s->range;
    }
    if (!range) {
      r.forbid(q.name, not_valid(allowed, e.kind, top.hint));
    } else if (const auto* p = r.optional(q.name)) {
      q.field.read(*p, e.quick, *range, ctx + " " + q.name);
    }
  }
  r.finish();
}

json::Value write_quick(const Experiment& e) {
  json::Object o;
  for (const QuickKey& q : kQuickKeys)
    if (json::Value v = q.field.write(e.quick); !v.is_null())
      o.emplace_back(q.name, std::move(v));
  return o.empty() ? json::Value() : json::Value(std::move(o));
}

// -------------------------------------------------------- experiment keys ---

bool replays(const Experiment& e) { return e.replay_every > 0; }
bool generates_trace(const Experiment& e) { return e.churn_schedule.empty(); }

/// Churn borrows the replay knobs for its replay-validation epochs.
constexpr Gate kReplayGate{
    K::Churn, replays,
    "requires \"replay_every\" > 0 (the replay knobs configure the "
    "replay-validation epochs)"};
/// An explicit schedule replaces the generator wholesale; a generator knob
/// alongside it would be silently inert.
constexpr Gate kGeneratorGate{
    K::Churn, generates_trace,
    "is not valid alongside an explicit \"schedule\" (the schedule replaces "
    "the trace generator)"};

constexpr Range kPerEpoch = closed(0, 100, "<= 100");
constexpr Range kSearchCount = closed(1, 1000, "in [1, 1000]");

/// Experiment object keys, in serialize order.
constexpr ExperimentKey kExperimentKeys[] = {
    {.name = "id", .field = typed<&Experiment::id, read_name>,
     .required = true},
    {.name = "title",
     .field = {typed<&Experiment::title, read_string>.read, write_title}},
    {.name = "kind", .field = {read_kind, write_kind}, .required = true},
    {.name = "scenario", .field = {read_scenario, write_scenario},
     .kinds = kScenarioKinds,
     .hint = "design, replay and churn instances derive from the node "
             "counts via the fixed density law; mopt is an analytic model"},
    {.name = "stacks", .field = typed<&Experiment::stacks, read_stacks>,
     .kinds = kScenarioKinds, .required = true,
     .hint = "use \"heuristics\" for design and replay series and \"cards\" "
             "for mopt; the singular \"stack\" selects a replayed protocol "
             "stack"},
    {.name = "rates_pps", .field = typed<&Experiment::rates_pps, read_rates>,
     .kinds = axis_kinds("rates_pps"), .range = kRate, .required = true,
     .hint = "set the density rate via scenario.rate_pps, the replay rate "
             "via \"rate_pps\""},
    {.name = "node_counts",
     .field = typed<&Experiment::node_counts, read_nodes>,
     .kinds = axis_kinds("node_counts"),
     .range = closed(2, kInf, ">= 2 nodes"), .required = true},
    {.name = "heuristics",
     .field = typed<&Experiment::heuristics, read_heuristics>,
     .kinds = axis_kinds("heuristics"), .required = true,
     .hint = "the churn serving loop always races warm-start repair against "
             "the from-scratch portfolio; its series are node counts"},
    {.name = "demands", .field = typed<&Experiment::demands, read_uint>,
     .kinds = kInstanceKinds, .range = kSearchCount},
    {.name = "starts", .field = typed<&Experiment::starts, read_uint>,
     .kinds = kInstanceKinds, .range = kSearchCount},
    {.name = "anneal_iters",
     .field = typed<&Experiment::anneal_iters, read_uint>,
     .kinds = kInstanceKinds, .range = closed(0, 1e6, "<= 1e6")},
    {.name = "presolve", .field = typed<&Experiment::presolve, read_bool>,
     .kinds = kInstanceKinds},
    {.name = "field_scale",
     .field = typed<&Experiment::field_scale, read_finite>,
     .kinds = kInstanceKinds,
     .range = above(0, 10, "in (0, 10] (multiplier on the density-law "
                           "field side)")},
    {.name = "epochs", .field = typed<&Experiment::epochs, read_uint>,
     .kinds = axis_kinds("epochs"),
     .range = closed(2, 10000, "in [2, 10000] (epoch 0 is the cold design; "
                               "churn needs at least one more)")},
    {.name = "fallback_pct",
     .field = typed<&Experiment::fallback_pct, read_finite>,
     .kinds = kinds(K::Churn), .range = above(0, 100, "in (0, 100]")},
    {.name = "replay_every",
     .field = typed<&Experiment::replay_every, read_uint>,
     .kinds = kinds(K::Churn), .range = closed(0, 10000, "<= 10000")},
    {.name = "arrivals_per_epoch",
     .field = typed<&Experiment::arrivals_per_epoch, read_uint>,
     .kinds = kinds(K::Churn), .range = kPerEpoch, .gate = kGeneratorGate},
    {.name = "departures_per_epoch",
     .field = typed<&Experiment::departures_per_epoch, read_uint>,
     .kinds = kinds(K::Churn), .range = kPerEpoch, .gate = kGeneratorGate},
    {.name = "swings_per_epoch",
     .field = typed<&Experiment::swings_per_epoch, read_uint>,
     .kinds = kinds(K::Churn), .range = kPerEpoch, .gate = kGeneratorGate},
    {.name = "failures_per_epoch",
     .field = typed<&Experiment::failures_per_epoch, read_uint>,
     .kinds = kinds(K::Churn), .range = kPerEpoch, .gate = kGeneratorGate},
    {.name = "rate_swing", .field = typed<&Experiment::rate_swing, read_finite>,
     .kinds = kinds(K::Churn),
     .range = closed(0, 0.9, "in [0, 0.9] (a factor of zero would silence "
                             "the demand)"),
     .gate = kGeneratorGate},
    {.name = "move_fraction",
     .field = typed<&Experiment::move_fraction, read_finite>,
     .kinds = kinds(K::Churn), .range = closed(0, 1, "in [0, 1]"),
     .gate = kGeneratorGate},
    {.name = "move_sigma_m",
     .field = typed<&Experiment::move_sigma_m, read_finite>,
     .kinds = kinds(K::Churn), .range = above(0, 1e4, "in (0, 1e4] meters"),
     .gate = kGeneratorGate},
    {.name = "schedule", .field = {read_schedule, write_schedule},
     .kinds = kinds(K::Churn)},
    {.name = "stack", .field = typed<&Experiment::replay_stack, read_stack>,
     .kinds = kinds(K::Replay),
     .hint = "simulation kinds take a \"stacks\" array; kind \"churn\" takes "
             "it when \"replay_every\" > 0",
     .gate = kReplayGate},
    {.name = "duration_s",
     .field = typed<&Experiment::replay_duration_s, read_finite>,
     .kinds = kinds(K::Replay), .range = above(0, 1e6, "in (0, 1e6] seconds"),
     .hint = "design instances are solved, not simulated; simulation kinds "
             "set scenario.duration_s; kind \"churn\" takes it when "
             "\"replay_every\" > 0, and --quick clamps it itself",
     .gate = kReplayGate},
    {.name = "rate_pps",
     .field = typed<&Experiment::replay_rate_pps, read_finite>,
     .kinds = kinds(K::Replay), .range = kRate,
     .hint = "simulation kinds set scenario.rate_pps; kind \"churn\" takes it "
             "when \"replay_every\" > 0",
     .gate = kReplayGate},
    {.name = "battery_j", .field = typed<&Experiment::battery_j, read_finite>,
     .kinds = kinds(K::Replay),
     .range = closed(0, 1e9, "in [0, 1e9] joules (0 = infinite)"),
     .hint = "churn replay-validation epochs run with infinite batteries"},
    {.name = "demand_weights",
     .field = typed<&Experiment::demand_weights, read_weights>,
     .kinds = kinds(K::Replay, K::Churn), .range = kMultiplier},
    {.name = "cards", .field = {read_cards, write_cards},
     .kinds = axis_kinds("cards"), .required = true},
    {.name = "rb", .field = typed<&Experiment::rb, read_rb>,
     .kinds = axis_kinds("rb"),
     .range = above(0, 0.5, "in (0, 0.5] — a relay both sends and receives "
                            "each packet, so utilization beyond 1/2 is "
                            "infeasible"),
     .required = true},
    {.name = "runs", .field = typed<&Experiment::runs, read_uint>,
     .kinds = kReplicated, .range = closed(1, 10000, "in [1, 10000]")},
    {.name = "seed", .field = typed<&Experiment::seed, read_uint>,
     .kinds = kSeeded, .hint = "mopt is a deterministic model"},
    {.name = "base_rate_pps",
     .field = typed<&Experiment::base_rate_pps, read_finite>,
     .kinds = kinds(K::Grid), .range = kRate},
    {.name = "metrics", .field = {read_metrics, write_metrics}},
    {.name = "quick", .field = {read_quick, write_quick},
     .kinds = kAllKinds & ~kinds(K::Mopt), .hint = "mopt is already instant"},
};

std::span<const ExperimentKey> experiment_keys() { return kExperimentKeys; }

// ------------------------------------------------------- cross-key checks ---

/// Every explicit-schedule epoch and node reference must exist in every
/// cell's instance — quick sizes included, or --quick would abort mid-run.
void check_schedule_fits(const Experiment& e, const std::string& ctx) {
  std::size_t min_n =
      *std::min_element(e.node_counts.begin(), e.node_counts.end());
  if (e.quick.node_counts)
    for (const std::size_t n : *e.quick.node_counts) min_n = std::min(min_n, n);
  const std::size_t min_epochs =
      e.quick.epochs ? std::min(e.epochs, *e.quick.epochs) : e.epochs;
  for (const churn::EpochEvents& ee : e.churn_schedule) {
    if (ee.at >= min_epochs)
      fail(ctx + " schedule entry at=" + std::to_string(ee.at) +
           " is unreachable under quick epochs " + std::to_string(min_epochs));
    const auto check_node = [&](graph::NodeId v) {
      if (static_cast<std::size_t>(v) >= min_n)
        fail(ctx + " schedule (at=" + std::to_string(ee.at) +
             ") references node " + std::to_string(v) +
             " but the smallest instance (full or quick) has only " +
             std::to_string(min_n) + " nodes");
    };
    for (const churn::Event& ev : ee.events) {
      switch (ev.op) {
        case churn::EventOp::Arrive:
          check_node(ev.source);
          check_node(ev.destination);
          break;
        case churn::EventOp::Fail:
        case churn::EventOp::Move: check_node(ev.node); break;
        case churn::EventOp::Depart:
        case churn::EventOp::RateSwing: break;
      }
    }
  }
}

/// Rules that tie several keys together, checked once every key is read.
void check_cross_keys(ObjectReader& r, const Experiment& e,
                      const std::string& ctx) {
  // Gated keys: churn's replay knobs need replay epochs, and its generator
  // knobs are exclusive with an explicit schedule.
  for (const ExperimentKey& k : kExperimentKeys)
    if (k.gated_off(e)) r.forbid(k.name, k.gate.why);

  // Every instance must host the demand count, or make_design_instance
  // would abort mid-run after earlier experiments burned their wall time.
  if (kInstanceKinds & bit(e.kind)) {
    for (const std::size_t n : e.node_counts)
      if (e.demands > n * (n - 1))
        fail(ctx + " requests " + std::to_string(e.demands) +
             " demands but node count " + std::to_string(n) + " has only " +
             std::to_string(n * (n - 1)) +
             " distinct (source, destination) pairs");
    if (e.quick.node_counts)
      for (const std::size_t n : *e.quick.node_counts)
        if (e.demands > n * (n - 1))
          fail(ctx + " quick node count " + std::to_string(n) +
               " cannot host " + std::to_string(e.demands) + " demands");
  }

  // The certified-bound metrics only exist when the presolve pass ran, and
  // the replay-validation metric only when replay epochs run.
  for (const MetricSpec& m : e.metrics) {
    if (!e.presolve && (m.name == "lb" || m.name == "certified_gap_pct" ||
                        m.name == "reduced_nodes" || m.name == "reduced_edges"))
      fail(ctx + " metric \"" + m.name +
           "\" requires \"presolve\": true on the experiment");
    if (!replays(e) && m.name == "replay_gap_pct")
      fail(ctx + " metric \"replay_gap_pct\" requires \"replay_every\" > 0 "
           "on the experiment");
  }

  // A lifetime heuristic without a battery would silently degenerate to
  // its base variant and mislabel the series — demand the budget.
  const ExperimentKey& battery = *find_key(experiment_keys(), "battery_j");
  for (const auto& name : e.heuristics) {
    if (!opt::heuristic_uses_battery_budget(name)) continue;
    if (!battery.allows(e.kind))
      fail("heuristic \"" + name + "\" in " + ctx +
           " needs a battery budget and is only valid for " +
           kind_list(battery.kinds) +
           " (its \"battery_j\" defines the per-node budget)");
    if (!(e.battery_j > 0.0))
      fail(ctx + " lists heuristic \"" + name +
           "\" but battery_j is 0 — lifetime-constrained search needs a "
           "positive per-node battery budget");
  }

  if (!e.churn_schedule.empty()) check_schedule_fits(e, ctx);
}

// ------------------------------------------------------------- experiment ---

Experiment parse_experiment(const json::Value& v, std::size_t index) {
  const std::string base = "experiment #" + std::to_string(index + 1);
  const auto ctx = [&](const Experiment& e) {
    return e.id.empty() ? base : "experiment \"" + e.id + "\"";
  };
  ObjectReader r(v, base);
  Experiment e;
  for (const ExperimentKey& k : kExperimentKeys)
    read_key(r, k, e, e.kind, ctx(e));
  if (e.title.empty()) e.title = e.id;
  check_cross_keys(r, e, ctx(e));
  r.finish();
  return e;
}

void read_experiments(const json::Value& v, Manifest& m, const Range&,
                      const std::string& ctx) {
  if (!v.is_array() || v.as_array().empty())
    fail(ctx + " must be a non-empty array");
  for (std::size_t i = 0; i < v.as_array().size(); ++i) {
    Experiment e = parse_experiment(v.as_array()[i], i);
    for (const auto& prev : m.experiments)
      if (prev.id == e.id)
        fail("duplicate experiment id \"" + e.id +
             "\" — ids must be unique within a manifest");
    m.experiments.push_back(std::move(e));
  }
}

json::Value write_experiments(const Manifest& m) {
  json::Array exps;
  for (const Experiment& e : m.experiments)
    exps.emplace_back(write_keys<Experiment>(kExperimentKeys, e));
  return exps;
}

/// Manifest object keys, in serialize order.
constexpr Key<Manifest> kManifestKeys[] = {
    {.name = "name", .field = typed<&Manifest::name, read_name>,
     .required = true},
    {.name = "title", .field = typed<&Manifest::title, read_string>},
    {.name = "experiments",
     .field = {read_experiments, write_experiments},
     .required = true},
};

/// Number of cells along the axis a kind names by key: the length of the
/// key's list, or the value itself for a count (churn's epochs).
std::size_t axis_length(const Experiment& e, const char* key) {
  const json::Value v = find_key(experiment_keys(), key)->field.write(e);
  if (v.is_array()) return v.as_array().size();
  return v.is_number() ? static_cast<std::size_t>(v.as_number()) : 0;
}

}  // namespace

// ------------------------------------------------------------------- kinds ---

std::span<const KindInfo> kind_table() { return kKinds; }

ExperimentKind kind_from_name(const std::string& name) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < std::size(kKinds); ++i) {
    if (name == kKinds[i].name) return static_cast<ExperimentKind>(i);
    names.emplace_back(kKinds[i].name);
  }
  fail("unknown experiment kind \"" + name + "\" (valid: " + join(names) +
       ")");
}

std::string metric_display_name(ExperimentKind kind, const std::string& name) {
  for (const MetricInfo& m : kind_info(kind).metrics)
    if (name == m.name) return m.display;
  fail("no display name for metric \"" + name + "\" of kind \"" +
       kind_name(kind) + "\"");
}

std::vector<std::string> manifest_key_names() {
  std::vector<std::string> out;
  for (const Key<Manifest>& k : kManifestKeys) out.emplace_back(k.name);
  for (const ExperimentKey& k : kExperimentKeys) out.emplace_back(k.name);
  for (const ScenarioKey& k : kScenarioKeys) out.emplace_back(k.name);
  return out;
}

// ---------------------------------------------------------------- scenario ---

net::ScenarioConfig ScenarioSpec::resolve() const {
  net::ScenarioConfig c = find_preset(preset)->make(*this);
  if (node_count) c.node_count = *node_count;
  if (field_w) c.field_w = *field_w;
  if (field_h) c.field_h = *field_h;
  if (flow_count) c.flow_count = *flow_count;
  if (rate_pps) c.rate_pps = *rate_pps;
  if (payload_bits) c.payload_bits = *payload_bits;
  if (duration_s) c.duration_s = *duration_s;
  if (flow_endpoint_pool) c.flow_endpoint_pool = *flow_endpoint_pool;
  if (rate_multipliers) c.rate_multipliers = *rate_multipliers;
  c.validate();
  return c;
}

// ---------------------------------------------------------------- manifest ---

Manifest Manifest::from_json(const json::Value& v) {
  Manifest m;
  ObjectReader r(v, "manifest");
  // Manifest keys apply whatever the experiments' kinds.
  for (const Key<Manifest>& k : kManifestKeys)
    read_key(r, k, m, ExperimentKind{}, "manifest");
  r.finish();
  return m;
}

Manifest Manifest::parse(const std::string& text) {
  return from_json(json::parse(text));
}

Manifest Manifest::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open manifest file \"" + path + "\"");
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return parse(buf.str());
  } catch (const CheckError& e) {
    throw CheckError(std::string(e.what()) + " [file: " + path + "]");
  }
}

json::Value Manifest::to_json() const {
  return write_keys<Manifest>(kManifestKeys, *this);
}

std::string Manifest::serialize() const { return json::dump(to_json(), 2); }

std::vector<std::string> Manifest::experiment_summaries() const {
  std::vector<std::string> out;
  for (const Experiment& e : experiments) {
    const KindInfo& k = kind_info(e.kind);
    out.push_back(e.id + "  [" + k.name + "]  " +
                  std::to_string(axis_length(e, k.series_key)) +
                  " series x " + std::to_string(axis_length(e, k.x_key)) +
                  " x-values  " + e.title);
  }
  return out;
}

}  // namespace eend::core
