// The shared wireless channel.
//
// A transmission occupies an airtime interval and a spatial footprint
// derived from its power level. The channel implements:
//   * carrier sensing   — is any transmission audible at a node?
//   * reception locking — a radio decodes a frame iff it is the only signal
//                         present at the radio for the frame's full airtime
//                         (collision = overlap within interference range;
//                         the hidden-terminal problem emerges naturally)
//   * overhearing       — awake radios in range lock onto frames not
//                         addressed to them and pay receive energy
//
// Positions are static (the paper studies static networks), so each node's
// potential-interferer set is precomputed once via a uniform-grid spatial
// index (spatial::GridIndex) — construction is O(N·k), not the old O(N²)
// all-pairs scan — and stored in one flattened CSR arena (per-node spans
// sorted by distance) instead of N separate vectors. Per-transmission work
// is O(|neighborhood|), not O(N), and the hot frame-delivery path walks
// arena prefixes without allocating.
#pragma once

#include <functional>
#include <vector>

#include "mac/node_radio.hpp"
#include "mac/packet.hpp"
#include "phy/propagation.hpp"
#include "sim/simulator.hpp"
#include "spatial/grid_index.hpp"

namespace eend::mac {

/// Outcome of one frame transmission, reported to the sending MAC.
struct TxResult {
  bool target_received = false;  ///< meaningful for unicast only
};

class Channel {
 public:
  Channel(sim::Simulator& sim, phy::Propagation prop)
      : sim_(sim), prop_(std::move(prop)) {}

  /// Register radios in node-id order (id must equal index).
  void register_radio(NodeRadio* radio);

  /// Optional extent hint for the spatial index — the scenario's field
  /// dimensions, forwarded by net::Network. Call before freeze_topology();
  /// omitting it falls back to the positions' bounding box.
  void set_field_extent(double w, double h);

  /// Call after all radios are registered: builds the spatial index and the
  /// per-node neighbor arena.
  void freeze_topology();

  NodeRadio& radio(NodeId id) {
    EEND_REQUIRE(id < radios_.size());
    return *radios_[id];
  }
  const NodeRadio& radio(NodeId id) const {
    EEND_REQUIRE(id < radios_.size());
    return *radios_[id];
  }
  std::size_t node_count() const { return radios_.size(); }

  const phy::Propagation& propagation() const { return prop_; }

  /// The largest footprint any transmission can have (full-power carrier-
  /// sense / interference range): the neighbor arena's horizon. Queries
  /// beyond it would silently truncate, so they are rejected.
  double max_reach() const { return max_reach_; }

  /// The spatial index the topology was frozen with (tests, benches, and
  /// the future intra-replication sharding share its cell decomposition).
  const spatial::GridIndex& grid() const { return grid_; }

  /// Non-allocating neighbor query: visit nodes within `range` meters of
  /// `of` (excluding `of`) in ascending distance order (ties by id).
  /// `fn(NodeId id, double dist)`; a bool-returning fn stops the walk when
  /// it returns false. This is the hot-path overload — it walks a prefix
  /// of the frozen CSR arena and never allocates.
  template <typename Fn>
  void for_each_within(NodeId of, double range, Fn&& fn) const {
    EEND_REQUIRE(frozen_ && of < radios_.size());
    EEND_REQUIRE_MSG(range <= max_reach_ + 1e-9,
                     "neighbor query range " << range
                         << " exceeds the frozen horizon " << max_reach_);
    const std::uint32_t end = nbr_start_[of + 1];
    for (std::uint32_t k = nbr_start_[of]; k < end; ++k) {
      const Neighbor& n = nbr_arena_[k];
      if (n.dist > range) break;  // sorted by distance
      if constexpr (std::is_invocable_r_v<bool, Fn, NodeId, double>) {
        if (!fn(n.id, n.dist)) return;
      } else {
        fn(n.id, n.dist);
      }
    }
  }

  /// Nodes within `range` meters of `of` (excluding `of` itself).
  /// Allocating twin of for_each_within — cold paths only.
  std::vector<NodeId> nodes_within(NodeId of, double range) const;

  /// Nodes that can decode a max-power transmission from `of` — the
  /// connectivity neighbors used by routing and scenario validation.
  std::vector<NodeId> connectivity_neighbors(NodeId of) const {
    return nodes_within(of, prop_.max_range());
  }

  /// Would a carrier-sensing node hear any ongoing transmission right now?
  bool carrier_busy(NodeId listener) const;

  /// Put `frame` on the air for `duration` seconds. The sender radio must
  /// be awake and idle. `on_done` fires when airtime ends, after receiver
  /// delivery callbacks have run. The in-flight frame and `on_done` wait in
  /// the channel's active-transmission list, so the end-of-airtime event
  /// captures only the frame uid and is stored inline in the simulator's
  /// slot (no pooled closure per transmission). Delivery handlers may call
  /// transmit() again.
  void transmit(const Frame& frame, double duration,
                std::function<void(const TxResult&)> on_done);

  /// Delivery hooks, keyed by node id: invoked for successfully decoded
  /// frames addressed to the node (or broadcast). Overhear hooks fire for
  /// decodable frames addressed elsewhere.
  void set_deliver_handler(NodeId id, std::function<void(const Frame&)> fn);
  void set_overhear_handler(NodeId id, std::function<void(const Frame&)> fn);

  std::uint64_t transmissions() const { return transmissions_; }

 private:
  /// One frame on the air, from transmit() to the end of its airtime.
  /// carrier_busy() reads sender and cs_range; finish_tx() takes the rest.
  struct ActiveTx {
    std::uint64_t frame_uid;
    NodeId sender;
    double cs_range;
    double int_range;
    double rx_range;
    Frame frame;
    std::function<void(const TxResult&)> on_done;
  };

  /// End-of-airtime handler for the transmission `frame_uid`.
  void finish_tx(std::uint64_t frame_uid);
  std::vector<ActiveTx>::iterator find_active(std::uint64_t frame_uid);

  struct Neighbor {
    NodeId id;
    double dist;
  };

  sim::Simulator& sim_;
  phy::Propagation prop_;
  std::vector<NodeRadio*> radios_;
  spatial::GridIndex grid_;
  // CSR neighbor arena: node i's neighbors (within the max footprint,
  // ascending distance) are nbr_arena_[nbr_start_[i] .. nbr_start_[i+1]).
  std::vector<std::uint32_t> nbr_start_;
  std::vector<Neighbor> nbr_arena_;
  std::vector<ActiveTx> active_;
  std::vector<std::function<void(const Frame&)>> deliver_;
  std::vector<std::function<void(const Frame&)>> overhear_;
  double field_w_ = 0.0, field_h_ = 0.0;
  double max_reach_ = 0.0;
  std::uint64_t transmissions_ = 0;
  std::uint64_t next_frame_uid_ = 1;
  bool frozen_ = false;
};

}  // namespace eend::mac
