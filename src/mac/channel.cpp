#include "mac/channel.hpp"

#include <algorithm>

namespace eend::mac {

void Channel::register_radio(NodeRadio* radio) {
  EEND_REQUIRE(radio != nullptr);
  EEND_REQUIRE_MSG(!frozen_, "topology already frozen");
  EEND_REQUIRE_MSG(radio->id() == radios_.size(),
                   "radios must be registered in id order");
  radios_.push_back(radio);
  deliver_.emplace_back();
  overhear_.emplace_back();
}

void Channel::set_field_extent(double w, double h) {
  EEND_REQUIRE_MSG(!frozen_, "topology already frozen");
  EEND_REQUIRE(w >= 0.0 && h >= 0.0);
  field_w_ = w;
  field_h_ = h;
}

void Channel::freeze_topology() {
  EEND_REQUIRE(!frozen_);
  frozen_ = true;
  // Maximum possible footprint: full-power CS range (largest of the three
  // range flavors). Any pair farther apart than this never interacts.
  max_reach_ =
      std::max(prop_.cs_range(prop_.card().max_transmit_power()),
               prop_.interference_range(prop_.card().max_transmit_power()));

  const std::size_t n = radios_.size();
  std::vector<phy::Position> pts(n);
  for (std::size_t i = 0; i < n; ++i) pts[i] = radios_[i]->position();
  // Half-reach cells: a reach query touches at most 5x5 cells but each
  // carries ~4x fewer out-of-disc candidates than reach-sized cells.
  grid_.build(pts, max_reach_ / 2.0, field_w_, field_h_);

  // One O(N·k) grid pass per node builds the CSR arena: gather into a
  // reused scratch span, order it, append, record the offset.
  //
  // Ordering is the canonical (distance, id) — platform-stable even when
  // grid placements produce many exactly-equal distances. Comparison
  // sorting ~k random doubles per node dominated construction time, so
  // spans are counting-sorted into distance buckets first and finished
  // with an insertion pass over the then-nearly-sorted span; the final
  // order is identical to std::sort with the same comparator.
  constexpr std::size_t kBuckets = 128;
  const double bucket_scale =
      max_reach_ > 0.0 ? static_cast<double>(kBuckets) / max_reach_ : 0.0;
  const auto bucket_of = [&](double d) {
    return std::min<std::size_t>(kBuckets - 1,
                                 static_cast<std::size_t>(d * bucket_scale));
  };
  const auto less = [](const Neighbor& a, const Neighbor& b) {
    return a.dist != b.dist ? a.dist < b.dist : a.id < b.id;
  };

  nbr_start_.assign(n + 1, 0);
  nbr_arena_.clear();
  // Generous up-front reservation (trimmed below): repeated geometric
  // growth re-copies the arena ~20 times at 4k+ nodes otherwise.
  nbr_arena_.reserve(std::min(n * (n - (n > 0)), n * 128));
  std::vector<Neighbor> scratch;
  std::vector<std::uint8_t> bucket;
  scratch.reserve(256);
  bucket.reserve(256);
  for (std::size_t i = 0; i < n; ++i) {
    scratch.clear();
    bucket.clear();
    grid_.for_each_within(i, max_reach_, [&](std::size_t j, double d) {
      scratch.push_back(Neighbor{static_cast<NodeId>(j), d});
      bucket.push_back(static_cast<std::uint8_t>(bucket_of(d)));
    });
    const std::size_t k = scratch.size();
    std::uint32_t count[kBuckets + 1] = {0};
    for (std::size_t m = 0; m < k; ++m) ++count[bucket[m] + 1];
    for (std::size_t b = 0; b < kBuckets; ++b) count[b + 1] += count[b];
    const std::size_t base = nbr_arena_.size();
    nbr_arena_.resize(base + k);
    Neighbor* span = nbr_arena_.data() + base;
    for (std::size_t m = 0; m < k; ++m)
      span[count[bucket[m]]++] = scratch[m];
    if (k > 1) {  // guard: span may be null when the arena is still empty
      for (Neighbor* p = span + 1; p < span + k; ++p) {
        Neighbor v = *p;
        Neighbor* q = p;
        while (q > span && less(v, q[-1])) {
          *q = q[-1];
          --q;
        }
        *q = v;
      }
    }
    // The CSR offsets are uint32: one entry per in-reach *pair*, which
    // grows quadratically with density — fail loudly, never wrap.
    EEND_REQUIRE_MSG(
        nbr_arena_.size() <= 0xFFFFFFFFu,
        "neighbor arena exceeds 2^32 entries (node " << i << " of " << n
            << ") — the uint32 CSR offsets cannot address this topology");
    nbr_start_[i + 1] = static_cast<std::uint32_t>(nbr_arena_.size());
  }
  if (nbr_arena_.size() * 2 < nbr_arena_.capacity())
    nbr_arena_.shrink_to_fit();  // sparse topologies: return the slack
}

std::vector<NodeId> Channel::nodes_within(NodeId of, double range) const {
  std::vector<NodeId> out;
  for_each_within(of, range,
                  [&](NodeId id, double) { out.push_back(id); });
  return out;
}

bool Channel::carrier_busy(NodeId listener) const {
  EEND_REQUIRE(listener < radios_.size());
  const auto& pos = radios_[listener]->position();
  for (const ActiveTx& tx : active_) {
    const double d = phy::distance(pos, radios_[tx.sender]->position());
    if (d <= tx.cs_range) return true;
  }
  return false;
}

void Channel::transmit(const Frame& frame, double duration,
                       std::function<void(const TxResult&)> on_done) {
  EEND_REQUIRE(frozen_);
  EEND_REQUIRE(duration > 0.0);
  EEND_REQUIRE(frame.tx_node < radios_.size());
  NodeRadio& sender = *radios_[frame.tx_node];

  const std::uint64_t uid = next_frame_uid_++;
  ++transmissions_;

  const double rx_range = prop_.rx_range(frame.tx_power_w);
  const double int_range = prop_.interference_range(frame.tx_power_w);
  const double cs_range = prop_.cs_range(frame.tx_power_w);

  sender.begin_tx(frame.tx_power_w, frame.packet.category);
  active_.push_back(ActiveTx{uid, frame.tx_node, cs_range, int_range,
                             rx_range, frame, std::move(on_done)});
  // rf_begin / try_lock_rx call nothing back, so active_ cannot reallocate
  // under this reference before the event is scheduled.
  Frame& f = active_.back().frame;
  f.frame_uid = uid;

  // Interference sweep, then lock attempts on decodable radios. Both are
  // prefix walks of the sender's distance-sorted arena span — the hot
  // frame-delivery path allocates nothing; finish_tx walks the same
  // (immutable) prefixes instead of keeping id lists.
  for_each_within(f.tx_node, int_range,
                  [&](NodeId id, double) { radios_[id]->rf_begin(); });
  for_each_within(f.tx_node, rx_range,
                  [&](NodeId id, double) { radios_[id]->try_lock_rx(f); });

  sim_.schedule_in(duration, [this, uid] { finish_tx(uid); });
}

std::vector<Channel::ActiveTx>::iterator Channel::find_active(
    std::uint64_t frame_uid) {
  const auto it = std::find_if(
      active_.begin(), active_.end(),
      [&](const ActiveTx& t) { return t.frame_uid == frame_uid; });
  EEND_CHECK(it != active_.end());
  return it;
}

void Channel::finish_tx(std::uint64_t frame_uid) {
  // Take the frame and callback out of the record: delivery handlers may
  // re-enter transmit() and reallocate active_. The record itself stays
  // until the deliveries are done, so carrier_busy() still counts this
  // transmission while the handlers run.
  const auto rec = find_active(frame_uid);
  const Frame f = std::move(rec->frame);
  const auto on_done = std::move(rec->on_done);
  const double int_range = rec->int_range;
  const double rx_range = rec->rx_range;

  TxResult result;
  radios_[f.tx_node]->end_tx();
  // End the footprint first so finish_rx sees a clean rf count.
  for_each_within(f.tx_node, int_range,
                  [&](NodeId id, double) { radios_[id]->rf_end(); });
  for_each_within(f.tx_node, rx_range, [&](NodeId id, double) {
    // finish_rx is false for radios that never locked this frame
    // (asleep, collided at lock time, or locked a different uid).
    if (!radios_[id]->finish_rx(f.frame_uid)) return;
    const bool addressed = f.is_broadcast() || f.rx_node == id;
    if (f.rx_node == id) result.target_received = true;
    if (addressed) {
      if (deliver_[id]) deliver_[id](f);
    } else {
      if (overhear_[id]) overhear_[id](f);
    }
  });
  active_.erase(find_active(frame_uid));
  if (on_done) on_done(result);
}

void Channel::set_deliver_handler(NodeId id,
                                  std::function<void(const Frame&)> fn) {
  EEND_REQUIRE(id < deliver_.size());
  deliver_[id] = std::move(fn);
}

void Channel::set_overhear_handler(NodeId id,
                                   std::function<void(const Frame&)> fn) {
  EEND_REQUIRE(id < overhear_.size());
  overhear_[id] = std::move(fn);
}

}  // namespace eend::mac
