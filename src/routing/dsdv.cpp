#include "routing/dsdv.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace eend::routing {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEps = 1e-9;
}  // namespace

DsdvRouting::DsdvRouting(NodeEnv env, DsdvConfig cfg)
    : RoutingProtocol(std::move(env)), cfg_(cfg) {
  EEND_REQUIRE(env_.channel != nullptr &&
               env_.id < env_.channel->node_count());
  table_.resize(env_.channel->node_count());
  env_.mac->set_receive_handler(
      [this](const mac::Packet& p, mac::NodeId from) { on_receive(p, from); });
}

DsdvEntry DsdvRouting::own_entry() {
  return DsdvEntry{env_.id, own_seq_, 0.0};
}

void DsdvRouting::start() {
  table_[env_.id] =
      Entry{.seq = 0, .metric = 0.0, .next_hop = env_.id, .valid = true,
            .known = true};
  order_.insert(env_.id);
  const double first = env_.rng.uniform(0.0, cfg_.startup_jitter_s);
  env_.sim->schedule_in(first, [this] { periodic_dump(); });
  if (cfg_.quality_update_interval_s > 0.0) schedule_quality_tick();
}

void DsdvRouting::schedule_quality_tick() {
  const double delay =
      cfg_.quality_update_interval_s * env_.rng.uniform(0.7, 1.3);
  env_.sim->schedule_in(delay, [this] {
    // Re-assess a few routes: their advertised costs will be re-adopted by
    // neighbors with fresh quality noise, modeling fading-driven metric
    // drift that the distance-only phy cannot produce.
    std::vector<mac::NodeId> valid;
    // eend-lint: allow(unordered-iter) — kept on purpose until the golden
    // re-pin: the shuffle input follows order_'s hash order (a pure function
    // of its --jobs-invariant insertion history), and any other order would
    // re-roll the synthesized churn subset the dsdvh golden suites pin. The
    // chosen subset itself drains in ascending id order.
    for (const mac::NodeId dest : order_)
      if (dest != env_.id && table_[dest].valid) valid.push_back(dest);
    env_.rng.shuffle(valid);
    const std::size_t n =
        std::min(cfg_.quality_update_entries, valid.size());
    for (std::size_t i = 0; i < n; ++i) mark_dirty(valid[i]);
    if (n > 0) schedule_triggered();
    schedule_quality_tick();
  });
}

void DsdvRouting::periodic_dump() {
  own_seq_ += 2;
  table_[env_.id].seq = own_seq_;
  std::vector<DsdvEntry> entries;
  entries.reserve(order_.size());
  // eend-lint: allow(unordered-iter) — kept on purpose until the golden
  // re-pin: wire order is neutral for table CONTENTS (receivers fold each
  // dest independently), but it fixes the order receivers first insert
  // dests into their own order_, whose iteration order the quality-churn
  // subset (see schedule_quality_tick) follows. Sorting here re-rolls the
  // dsdvh golden suites.
  for (const mac::NodeId dest : order_) {
    const Entry& e = table_[dest];
    entries.push_back(DsdvEntry{dest, e.seq, e.valid ? e.metric : kInf});
  }
  broadcast_entries(std::move(entries));
  clear_dirty();
  env_.sim->schedule_in(cfg_.periodic_interval_s, [this] { periodic_dump(); });
}

void DsdvRouting::schedule_triggered() {
  if (dirty_.empty() || trigger_event_ != sim::kInvalidEvent) return;
  const double earliest =
      std::max(env_.sim->now(),
               last_update_tx_ + cfg_.triggered_min_interval_s);
  trigger_event_ = env_.sim->schedule_at(earliest, [this] {
    trigger_event_ = sim::kInvalidEvent;
    send_triggered();
  });
}

void DsdvRouting::mark_dirty(mac::NodeId dest) {
  Entry& e = table_[dest];
  if (e.dirty) return;
  e.dirty = true;
  dirty_.push_back(dest);
}

void DsdvRouting::clear_dirty() {
  for (const mac::NodeId dest : dirty_) table_[dest].dirty = false;
  dirty_.clear();
}

void DsdvRouting::send_triggered() {
  if (dirty_.empty()) return;
  std::vector<DsdvEntry> entries;
  entries.reserve(dirty_.size() + 1);
  entries.push_back(own_entry());
  std::sort(dirty_.begin(), dirty_.end());
  for (const mac::NodeId dest : dirty_) {
    const Entry& e = table_[dest];
    if (!e.known || dest == env_.id) continue;
    entries.push_back(DsdvEntry{dest, e.seq, e.valid ? e.metric : kInf});
  }
  clear_dirty();
  broadcast_entries(std::move(entries));
}

void DsdvRouting::broadcast_entries(std::vector<DsdvEntry> entries) {
  const std::size_t n = entries.size();
  DsdvBody body;
  body.sender_is_am = env_.power->is_active_mode();
  body.entries = std::move(entries);

  mac::Packet p;
  p.uid = next_uid_++;
  p.category = energy::Category::Control;
  p.origin = env_.id;
  p.final_dest = mac::kBroadcast;
  p.size_bits = dsdv_bits(n);
  p.created_at = env_.sim->now();
  p.type = kDsdvUpdate;
  p.payload = mac::Packet::wrap(env_.sim->pool(), std::move(body));
  ++stats_.updates_sent;
  last_update_tx_ = env_.sim->now();
  env_.mac->send_broadcast(std::move(p), env_.max_tx_power());
}

void DsdvRouting::on_pm_mode_change() {
  if (!cfg_.advertise_pm_changes) return;
  // Our reachability cost (as seen by neighbors evaluating h against our
  // PM state) changed: re-advertise the full table.
  // eend-lint: allow(unordered-iter) — walks order_ like the other
  // whole-table loops until the golden re-pin retires it; per-entry
  // independent, and dirty_ drains sorted, so the order cannot leak.
  for (const mac::NodeId dest : order_)
    if (dest != env_.id) mark_dirty(dest);
  schedule_triggered();
}

void DsdvRouting::handle_update(const mac::Packet& p, mac::NodeId from) {
  const auto& body = p.body<DsdvBody>();
  double link = link_cost(cfg_.metric, env_.radio->card(),
                          env_.distance_to(from), body.sender_is_am,
                          env_.rate_over_b > 0 ? env_.rate_over_b : 1.0);
  if (cfg_.quality_noise > 0.0)
    link *= 1.0 + env_.rng.uniform(-cfg_.quality_noise, cfg_.quality_noise);
  stats_.update_entries += body.entries.size();
  bool changed = false;
  for (const DsdvEntry& adv : body.entries) {
    EEND_REQUIRE_MSG(adv.dest < table_.size(),
                     "DSDV update advertises destination "
                         << adv.dest << " outside the " << table_.size()
                         << "-node network");
    if (adv.dest == env_.id) continue;
    const bool broken = !std::isfinite(adv.metric);
    const double via = broken ? kInf : adv.metric + link;
    Entry& cur = table_[adv.dest];
    const bool have = cur.known;

    bool adopt = false;
    if (!have) {
      adopt = !broken;
    } else if (adv.seq > cur.seq) {
      adopt = true;
    } else if (adv.seq == cur.seq) {
      // Same sequence: better cost wins; the current next hop is always
      // authoritative (this is how cost *increases* — e.g. a relay
      // dropping to PSM under DSDVH — propagate).
      adopt = (cur.next_hop == from) || (via < cur.metric - kEps);
    }
    if (!adopt) continue;

    const bool valid = !broken;
    const bool materially_different =
        !have || cur.valid != valid || cur.next_hop != from ||
        std::abs(cur.metric - via) > kEps;
    if (!have) {
      cur.known = true;
      order_.insert(adv.dest);
    }
    cur.seq = adv.seq;
    cur.metric = via;
    cur.next_hop = from;
    cur.valid = valid;
    if (materially_different) {
      mark_dirty(adv.dest);
      changed = true;
    }
  }
  if (changed) schedule_triggered();
}

// ----------------------------------------------------------- data plane ---

void DsdvRouting::send_data(mac::Packet packet) {
  EEND_REQUIRE(packet.origin == env_.id);
  if (packet.final_dest == env_.id) {
    ++stats_.data_delivered;
    if (env_.deliver_app) env_.deliver_app(packet);
    return;
  }
  env_.power->notify_data_activity();
  forward(std::move(packet));
}

void DsdvRouting::forward(mac::Packet packet) {
  if (packet.ttl <= 0) {
    ++stats_.drops_ttl;
    return;
  }
  --packet.ttl;
  if (packet.final_dest >= table_.size() ||
      !table_[packet.final_dest].valid ||
      !std::isfinite(table_[packet.final_dest].metric)) {
    ++stats_.drops_no_route;
    return;
  }
  const mac::NodeId next = table_[packet.final_dest].next_hop;
  packet.type = kData;
  if (!packet.payload) {
    packet.payload = mac::Packet::wrap(env_.sim->pool(), DataBody{});  // hop-by-hop: no route
  }
  env_.mac->send_unicast(packet, next, env_.data_tx_power(next),
                         [this, next](bool ok) {
                           if (!ok) handle_link_failure(next);
                         });
}

void DsdvRouting::handle_data(const mac::Packet& p) {
  env_.power->notify_data_activity();
  if (p.final_dest == env_.id) {
    ++stats_.data_delivered;
    if (env_.deliver_app) env_.deliver_app(p);
    return;
  }
  ++stats_.data_forwarded;
  forward(p);
}

void DsdvRouting::handle_link_failure(mac::NodeId next_hop) {
  ++stats_.drops_mac;
  bool changed = false;
  // eend-lint: allow(unordered-iter) — walks order_ like the other
  // whole-table loops until the golden re-pin retires it; per-entry
  // independent invalidation, and dirty_ drains sorted, so the order cannot
  // leak.
  for (const mac::NodeId dest : order_) {
    Entry& e = table_[dest];
    if (dest == env_.id || e.next_hop != next_hop || !e.valid) continue;
    e.valid = false;
    e.metric = kInf;
    e.seq += 1;  // odd sequence: link-break advertisement (DSDV rule)
    mark_dirty(dest);
    changed = true;
  }
  if (changed) schedule_triggered();
}

void DsdvRouting::on_receive(const mac::Packet& p, mac::NodeId from) {
  switch (p.type) {
    case kData: handle_data(p); break;
    case kDsdvUpdate: handle_update(p, from); break;
    default: break;
  }
}

mac::NodeId DsdvRouting::next_hop_to(mac::NodeId dest) const {
  if (dest >= table_.size() || !table_[dest].valid) return mac::kBroadcast;
  return table_[dest].next_hop;
}

}  // namespace eend::routing
