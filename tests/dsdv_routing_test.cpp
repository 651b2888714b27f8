// Unit tests: DSDV / DSDVH proactive routing — convergence, sequence-number
// rules, link breaks, TTL protection, triggered updates, PM-change adverts.
#include <gtest/gtest.h>

#include <memory>

#include "routing/dsdv.hpp"

namespace eend::routing {
namespace {

struct Rig {
  sim::Simulator sim;
  phy::Propagation prop{energy::cabletron(), {}};
  mac::Channel ch{sim, prop};
  std::vector<std::unique_ptr<mac::NodeRadio>> radios;
  std::vector<std::unique_ptr<mac::Mac>> macs;
  std::vector<std::unique_ptr<power::AlwaysActive>> power;
  std::vector<std::unique_ptr<DsdvRouting>> routing;
  std::vector<mac::Packet> delivered;
  DsdvConfig cfg;

  void add(double x, double y) {
    auto r = std::make_unique<mac::NodeRadio>(
        static_cast<mac::NodeId>(radios.size()), phy::Position{x, y},
        energy::cabletron(), sim);
    ch.register_radio(r.get());
    radios.push_back(std::move(r));
  }

  void wire() {
    ch.freeze_topology();
    for (std::size_t i = 0; i < radios.size(); ++i) {
      radios[i]->begin_metering(energy::RadioMode::Idle);
      macs.push_back(std::make_unique<mac::Mac>(
          sim, ch, *radios[i], nullptr, Rng(500 + i), mac::MacConfig{}));
      power.push_back(std::make_unique<power::AlwaysActive>());
    }
    for (std::size_t i = 0; i < radios.size(); ++i) {
      NodeEnv env;
      env.id = static_cast<mac::NodeId>(i);
      env.sim = &sim;
      env.channel = &ch;
      env.mac = macs[i].get();
      env.radio = radios[i].get();
      env.power = power[i].get();
      env.rng = Rng(600 + i);
      env.neighbor_is_am = [](mac::NodeId) { return true; };
      env.deliver_app = [this](const mac::Packet& p) {
        delivered.push_back(p);
      };
      routing.push_back(std::make_unique<DsdvRouting>(std::move(env), cfg));
    }
    for (auto& r : routing) r->start();
  }

  void send(mac::NodeId from, mac::NodeId to) {
    mac::Packet p;
    p.origin = from;
    p.final_dest = to;
    p.size_bits = 1024;
    p.created_at = sim.now();
    routing[from]->send_data(std::move(p));
  }
};

TEST(DsdvRouting, ChainConverges) {
  Rig r;
  r.add(0, 0);
  r.add(200, 0);
  r.add(400, 0);
  r.add(600, 0);
  r.wire();
  r.sim.run_until(15.0);
  // Every node routes to every other.
  EXPECT_EQ(r.routing[0]->next_hop_to(3), 1u);
  EXPECT_EQ(r.routing[3]->next_hop_to(0), 2u);
  EXPECT_EQ(r.routing[1]->next_hop_to(3), 2u);
  EXPECT_EQ(r.routing[0]->table_size(), 4u);
}

TEST(DsdvRouting, DeliversDataAfterConvergence) {
  Rig r;
  r.add(0, 0);
  r.add(200, 0);
  r.add(400, 0);
  r.wire();
  r.sim.run_until(15.0);
  r.send(0, 2);
  r.sim.run_until(20.0);
  ASSERT_EQ(r.delivered.size(), 1u);
  EXPECT_EQ(r.routing[1]->stats().data_forwarded, 1u);
}

TEST(DsdvRouting, DropsWhenNoRoute) {
  Rig r;
  r.add(0, 0);
  r.add(5000, 0);  // unreachable
  r.wire();
  r.sim.run_until(15.0);
  r.send(0, 1);
  r.sim.run_until(16.0);
  EXPECT_TRUE(r.delivered.empty());
  EXPECT_EQ(r.routing[0]->stats().drops_no_route, 1u);
}

TEST(DsdvRouting, LinkBreakInvalidatesAndReRoutes) {
  Rig r;
  r.add(0, 0);
  r.add(200, 0);    // relay on the straight path
  r.add(400, 0);
  r.add(200, 150);  // alternate relay (within 250 m of both ends)
  r.wire();
  r.sim.run_until(15.0);
  r.radios[1]->fail_permanently();
  // First packet hits the dead next hop, gets dropped, triggers the break
  // advertisement; a later packet must go around.
  r.send(0, 2);
  r.sim.run_until(25.0);
  r.send(0, 2);
  r.sim.run_until(40.0);
  EXPECT_GE(r.delivered.size(), 1u);
  EXPECT_EQ(r.routing[0]->next_hop_to(2), 3u);
}

TEST(DsdvRouting, TtlStopsLoopingPackets) {
  Rig r;
  r.add(0, 0);
  r.add(200, 0);
  r.wire();
  r.sim.run_until(15.0);
  mac::Packet p;
  p.origin = 0;
  p.final_dest = 1;
  p.size_bits = 128;
  p.ttl = 0;  // exhausted on arrival
  r.routing[0]->send_data(std::move(p));
  r.sim.run_until(16.0);
  EXPECT_TRUE(r.delivered.empty());
  EXPECT_EQ(r.routing[0]->stats().drops_ttl, 1u);
}

TEST(DsdvRouting, TriggeredUpdatesAccelerateConvergence) {
  // With triggered updates, convergence happens in a few seconds, well
  // before the second periodic dump (15 s).
  Rig r;
  r.add(0, 0);
  r.add(200, 0);
  r.add(400, 0);
  r.add(600, 0);
  r.add(800, 0);
  r.wire();
  r.sim.run_until(8.0);
  EXPECT_NE(r.routing[0]->next_hop_to(4), mac::kBroadcast);
}

TEST(DsdvRouting, UpdateCountsTracked) {
  Rig r;
  r.add(0, 0);
  r.add(200, 0);
  r.wire();
  r.sim.run_until(40.0);
  // At least: initial dump + 2 periodic dumps.
  EXPECT_GE(r.routing[0]->stats().updates_sent, 3u);
}

TEST(DsdvRouting, QualityChurnEmitsMoreUpdates) {
  auto updates = [](double interval, double noise) {
    Rig r;
    r.cfg.quality_update_interval_s = interval;
    r.cfg.quality_noise = noise;
    r.add(0, 0);
    r.add(200, 0);
    r.add(400, 0);
    r.wire();
    r.sim.run_until(60.0);
    std::uint64_t total = 0;
    for (auto& rt : r.routing) total += rt->stats().updates_sent;
    return total;
  };
  EXPECT_GT(updates(2.0, 0.3), updates(0.0, 0.0) + 10);
}

TEST(DsdvRouting, JointHMetricRoutesAroundExpensiveRelay) {
  // DSDVH with all-AM oracle behaves like cost-based routing; verify a
  // Cabletron chain still converges and delivers under the h metric.
  Rig r;
  r.cfg.metric = LinkMetric::JointH;
  r.add(0, 0);
  r.add(200, 0);
  r.add(400, 0);
  r.wire();
  r.sim.run_until(15.0);
  r.send(0, 2);
  r.sim.run_until(20.0);
  EXPECT_EQ(r.delivered.size(), 1u);
}

TEST(DsdvRouting, NextHopOutsideTheNetworkIsBroadcast) {
  Rig r;
  r.add(0, 0);
  r.add(200, 0);
  r.wire();
  r.sim.run_until(15.0);
  EXPECT_EQ(r.routing[0]->next_hop_to(1), 1u);
  EXPECT_EQ(r.routing[0]->next_hop_to(2), mac::kBroadcast);  // == N
  EXPECT_EQ(r.routing[0]->next_hop_to(mac::kBroadcast), mac::kBroadcast);
}

TEST(DsdvRouting, RejectsAdvertisedDestinationOutsideTheNetwork) {
  // A well-formed update from node 1 that advertises a destination id
  // past the 2-node table: folding it must fail loudly, not index past
  // the dense table.
  Rig r;
  r.add(0, 0);
  r.add(200, 0);
  r.wire();
  DsdvBody body;
  body.entries = {DsdvEntry{1, 2, 0.0}, DsdvEntry{2, 2, 0.0}};
  mac::Packet p;
  p.category = energy::Category::Control;
  p.origin = 1;
  p.final_dest = mac::kBroadcast;
  p.size_bits = dsdv_bits(body.entries.size());
  p.type = kDsdvUpdate;
  p.payload = mac::Packet::wrap(r.sim.pool(), std::move(body));
  r.macs[1]->send_broadcast(std::move(p),
                            r.radios[1]->card().max_transmit_power());
  EXPECT_THROW(r.sim.run_until(15.0), CheckError);
}

}  // namespace
}  // namespace eend::routing
