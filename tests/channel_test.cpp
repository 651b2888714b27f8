// Unit tests: channel delivery, interference/collision semantics, carrier
// sensing, overhearing, hidden terminals.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "mac/channel.hpp"

namespace eend::mac {
namespace {

struct Rig {
  sim::Simulator sim;
  phy::Propagation prop{energy::cabletron(), {}};
  Channel ch{sim, prop};
  std::vector<std::unique_ptr<NodeRadio>> radios;

  void add(double x, double y) {
    auto r = std::make_unique<NodeRadio>(
        static_cast<NodeId>(radios.size()), phy::Position{x, y},
        energy::cabletron(), sim);
    ch.register_radio(r.get());
    radios.push_back(std::move(r));
  }
  void freeze() {
    ch.freeze_topology();
    for (auto& r : radios) r->begin_metering(energy::RadioMode::Idle);
  }
  Frame frame(NodeId from, NodeId to) {
    Frame f;
    f.tx_node = from;
    f.rx_node = to;
    f.tx_power_w = energy::cabletron().max_transmit_power();
    f.packet.size_bits = 1024;
    return f;
  }
};

TEST(Channel, DeliversToTargetInRange) {
  Rig r;
  r.add(0, 0);
  r.add(100, 0);
  r.freeze();
  int delivered = 0;
  r.ch.set_deliver_handler(1, [&](const Frame&) { ++delivered; });
  bool done = false;
  r.ch.transmit(r.frame(0, 1), 0.001, [&](const TxResult& res) {
    EXPECT_TRUE(res.target_received);
    done = true;
  });
  r.sim.run_all();
  EXPECT_TRUE(done);
  EXPECT_EQ(delivered, 1);
}

TEST(Channel, NoDeliveryBeyondRange) {
  Rig r;
  r.add(0, 0);
  r.add(300, 0);  // beyond 250 m
  r.freeze();
  int delivered = 0;
  r.ch.set_deliver_handler(1, [&](const Frame&) { ++delivered; });
  r.ch.transmit(r.frame(0, 1), 0.001, [&](const TxResult& res) {
    EXPECT_FALSE(res.target_received);
  });
  r.sim.run_all();
  EXPECT_EQ(delivered, 0);
}

TEST(Channel, SleepingReceiverMissesFrame) {
  Rig r;
  r.add(0, 0);
  r.add(100, 0);
  r.freeze();
  r.radios[1]->sleep();
  int delivered = 0;
  r.ch.set_deliver_handler(1, [&](const Frame&) { ++delivered; });
  r.ch.transmit(r.frame(0, 1), 0.001, nullptr);
  r.sim.run_all();
  EXPECT_EQ(delivered, 0);
}

TEST(Channel, ConcurrentTransmissionsCollideAtReceiver) {
  Rig r;
  r.add(0, 0);    // sender A
  r.add(100, 0);  // receiver in the middle
  r.add(200, 0);  // sender B (within interference range of receiver)
  r.freeze();
  int delivered = 0;
  r.ch.set_deliver_handler(1, [&](const Frame&) { ++delivered; });
  r.ch.transmit(r.frame(0, 1), 0.001, nullptr);
  r.ch.transmit(r.frame(2, 1), 0.001, nullptr);
  r.sim.run_all();
  EXPECT_EQ(delivered, 0);
  EXPECT_GE(r.radios[1]->rx_collisions(), 1u);
}

TEST(Channel, LateInterferenceCorruptsOngoingReception) {
  Rig r;
  r.add(0, 0);
  r.add(100, 0);
  r.add(200, 0);
  r.freeze();
  int delivered = 0;
  r.ch.set_deliver_handler(1, [&](const Frame&) { ++delivered; });
  r.ch.transmit(r.frame(0, 1), 0.002, nullptr);
  // Second transmission starts mid-flight of the first.
  r.sim.schedule_at(0.001, [&] { r.ch.transmit(r.frame(2, 1), 0.002, nullptr); });
  r.sim.run_all();
  EXPECT_EQ(delivered, 0);
}

TEST(Channel, DisjointTransmissionsBothSucceed) {
  Rig r;
  r.add(0, 0);
  r.add(100, 0);
  // Far-away pair: outside interference range of the first.
  r.add(5000, 0);
  r.add(5100, 0);
  r.freeze();
  int d1 = 0, d3 = 0;
  r.ch.set_deliver_handler(1, [&](const Frame&) { ++d1; });
  r.ch.set_deliver_handler(3, [&](const Frame&) { ++d3; });
  r.ch.transmit(r.frame(0, 1), 0.001, nullptr);
  r.ch.transmit(r.frame(2, 3), 0.001, nullptr);
  r.sim.run_all();
  EXPECT_EQ(d1, 1);
  EXPECT_EQ(d3, 1);
}

TEST(Channel, HiddenTerminalEmerges) {
  // A and B out of carrier-sense range of each other; C between them.
  Rig r;
  r.add(0, 0);     // A
  r.add(250, 0);   // C
  r.add(1200, 0);  // B — 1200 m from A, beyond CS range (550)
  r.freeze();
  EXPECT_FALSE(r.ch.carrier_busy(2));
  r.ch.transmit(r.frame(0, 1), 0.002, nullptr);
  // B senses idle even while A transmits (hidden terminal).
  bool checked = false;
  r.sim.schedule_at(0.001, [&] {
    EXPECT_FALSE(r.ch.carrier_busy(2));
    checked = true;
  });
  r.sim.run_all();
  EXPECT_TRUE(checked);
}

TEST(Channel, CarrierBusyWithinCsRange) {
  Rig r;
  r.add(0, 0);
  r.add(400, 0);  // within CS range (550 m) but beyond rx range
  r.freeze();
  r.ch.transmit(r.frame(0, kBroadcast), 0.002, nullptr);
  bool checked = false;
  r.sim.schedule_at(0.001, [&] {
    EXPECT_TRUE(r.ch.carrier_busy(1));
    checked = true;
  });
  r.sim.run_all();
  EXPECT_TRUE(checked);
  EXPECT_FALSE(r.ch.carrier_busy(1));  // after airtime ends
}

TEST(Channel, OverhearingChargesAndNotifies) {
  Rig r;
  r.add(0, 0);
  r.add(100, 0);   // target
  r.add(0, 100);   // overhearer in range
  r.freeze();
  int overheard = 0;
  r.ch.set_overhear_handler(2, [&](const Frame&) { ++overheard; });
  r.ch.transmit(r.frame(0, 1), 0.001, nullptr);
  r.sim.run_all();
  EXPECT_EQ(overheard, 1);
  for (auto& rad : r.radios) rad->finish_metering();
  EXPECT_GT(r.radios[2]->meter().receive_energy(), 0.0);
}

TEST(Channel, BroadcastReachesAllAwakeInRange) {
  Rig r;
  r.add(0, 0);
  r.add(100, 0);
  r.add(0, 100);
  r.add(240, 0);
  r.freeze();
  int count = 0;
  for (NodeId i = 1; i <= 3; ++i)
    r.ch.set_deliver_handler(i, [&](const Frame&) { ++count; });
  r.ch.transmit(r.frame(0, kBroadcast), 0.001, nullptr);
  r.sim.run_all();
  EXPECT_EQ(count, 3);
}

TEST(Channel, TpcShrinksFootprint) {
  Rig r;
  r.add(0, 0);
  r.add(50, 0);    // close target
  r.add(240, 0);   // would decode a max-power frame
  r.freeze();
  int far = 0;
  r.ch.set_overhear_handler(2, [&](const Frame&) { ++far; });
  Frame f = r.frame(0, 1);
  f.tx_power_w = r.prop.required_power(50.0);
  r.ch.transmit(f, 0.001, [&](const TxResult& res) {
    EXPECT_TRUE(res.target_received);
  });
  r.sim.run_all();
  EXPECT_EQ(far, 0);  // low-power frame is inaudible at 240 m
}

TEST(Channel, ConnectivityNeighbors) {
  Rig r;
  r.add(0, 0);
  r.add(100, 0);
  r.add(600, 0);
  r.freeze();
  const auto n0 = r.ch.connectivity_neighbors(0);
  EXPECT_EQ(n0, (std::vector<NodeId>{1}));
  const auto n2 = r.ch.connectivity_neighbors(2);
  EXPECT_TRUE(n2.empty());
}

TEST(Channel, TransmitterCannotReceiveConcurrently) {
  Rig r;
  r.add(0, 0);
  r.add(100, 0);
  r.freeze();
  int delivered_at_0 = 0;
  r.ch.set_deliver_handler(0, [&](const Frame&) { ++delivered_at_0; });
  // Node 0 transmits; node 1 transmits to node 0 at the same time.
  r.ch.transmit(r.frame(0, kBroadcast), 0.001, nullptr);
  r.ch.transmit(r.frame(1, 0), 0.001, nullptr);
  r.sim.run_all();
  EXPECT_EQ(delivered_at_0, 0);  // half-duplex
}

TEST(Channel, DeliverHandlerMayTransmitFromInsideAirtimeEnd) {
  // Node 1 relays from inside its deliver handler, i.e. from inside the
  // end-of-airtime handler of frame 0->1: the active-transmission list
  // grows (and reallocates) while that frame is still being delivered.
  Rig r;
  r.add(0, 0);
  r.add(200, 0);
  r.add(400, 0);  // beyond node 0's rx range, within its CS range
  r.freeze();
  std::vector<std::string> log;
  r.ch.set_deliver_handler(1, [&](const Frame& f) {
    log.push_back("deliver1");
    // Frame 0->1 stays on the active list until its deliveries are done.
    EXPECT_TRUE(r.ch.carrier_busy(2));
    r.ch.transmit(r.frame(1, 2), 0.001, [&](const TxResult& res) {
      log.push_back(res.target_received ? "done2:received" : "done2:lost");
    });
    // The frame being delivered survives the re-entrant transmit.
    EXPECT_EQ(f.tx_node, 0u);
    EXPECT_EQ(f.rx_node, 1u);
    EXPECT_EQ(f.packet.size_bits, 1024u);
  });
  r.ch.set_deliver_handler(2, [&](const Frame& f) {
    EXPECT_EQ(f.tx_node, 1u);
    log.push_back("deliver2");
  });
  int done = 0;
  r.ch.transmit(r.frame(0, 1), 0.001, [&](const TxResult& res) {
    ++done;
    log.push_back(res.target_received ? "done1:received" : "done1:lost");
  });
  r.sim.run_all();
  EXPECT_EQ(done, 1);
  EXPECT_EQ(log, (std::vector<std::string>{"deliver1", "done1:received",
                                           "deliver2", "done2:received"}));
  EXPECT_EQ(r.ch.transmissions(), 2u);
  EXPECT_FALSE(r.ch.carrier_busy(2));  // both records erased
}

}  // namespace
}  // namespace eend::mac
