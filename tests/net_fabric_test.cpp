// Tests for the dynamic fabric: timing, contention, CRC, and fault injection.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "net/crc.hpp"
#include "net/fabric.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/scheduler.hpp"

namespace sanfault::net {
namespace {

struct Rx {
  std::vector<std::pair<sim::Time, Packet>> got;
  std::vector<bool> crc_ok;  // the fabric's CRC verdict, per delivery
  Fabric::RxHandler handler(sim::Scheduler& s) {
    return [this, &s](Packet&& p, bool ok) {
      got.emplace_back(s.now(), std::move(p));
      crc_ok.push_back(ok);
    };
  }
};

/// Start recording `sched`'s packet-lifecycle ring (obs/trace.hpp), which
/// the fabric feeds with one kFabricDrop event per drop.
obs::TraceRing& enable_trace(sim::Scheduler& sched) {
  obs::TraceRing& ring = obs::Registry::of(sched).trace();
  ring.enable();
  return ring;
}

/// The ring's fabric drops, oldest first.
std::vector<obs::TraceEvent> fabric_drops(const obs::TraceRing& ring) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& e : ring.snapshot()) {
    if (e.kind == obs::TraceKind::kFabricDrop) out.push_back(e);
  }
  return out;
}

DropReason reason_of(const obs::TraceEvent& e) {
  return static_cast<DropReason>(e.arg);
}

struct FabricFixture : ::testing::Test {
  sim::Scheduler sched;
  Topology topo;
  HostId h0, h1;
  SwitchId sw;
  LinkId l0, l1;
  Rx rx0, rx1;

  FabricFixture() {
    sw = topo.add_switch(8);
    h0 = topo.add_host();
    h1 = topo.add_host();
    l0 = topo.connect({Device::host(h0), 0}, {Device::sw(sw), 0});
    l1 = topo.connect({Device::host(h1), 0}, {Device::sw(sw), 1});
  }

  Fabric make_fabric(FabricConfig cfg = {}) {
    Fabric f(sched, topo, cfg);
    f.attach(h0, rx0.handler(sched));
    f.attach(h1, rx1.handler(sched));
    return f;
  }

  static Packet data_packet(HostId src, HostId dst, Route r,
                            std::size_t payload = 0) {
    Packet p;
    p.hdr.src = src;
    p.hdr.dst = dst;
    p.hdr.type = PacketType::kData;
    p.hdr.route = std::move(r);
    p.payload.assign(payload, 0xAB);
    return p;
  }
};

TEST(Crc32, KnownVectors) {
  // "123456789" -> 0xCBF43926 (standard CRC-32 check value).
  const std::uint8_t msg[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(msg), 0xCBF43926u);
  EXPECT_EQ(crc32(std::span<const std::uint8_t>{}), 0u);
}

TEST(Crc32, DetectsSingleByteFlip) {
  std::vector<std::uint8_t> a(100, 7);
  auto b = a;
  b[42] ^= 0x5A;
  EXPECT_NE(crc32(a), crc32(b));
}

TEST(Crc32, IncrementalMatchesOneShot) {
  std::vector<std::uint8_t> d(257);
  for (std::size_t i = 0; i < d.size(); ++i) d[i] = static_cast<std::uint8_t>(i);
  std::uint32_t st = 0xFFFFFFFFu;
  st = crc32_update(st, std::span(d).subspan(0, 100));
  st = crc32_update(st, std::span(d).subspan(100));
  EXPECT_EQ(st ^ 0xFFFFFFFFu, crc32(d));
}

TEST_F(FabricFixture, DeliversAcrossOneSwitch) {
  Fabric f = make_fabric();
  f.inject(h0, data_packet(h0, h1, Route{{1}}, 4));
  sched.run();
  ASSERT_EQ(rx1.got.size(), 1u);
  EXPECT_EQ(f.stats().delivered, 1u);
  EXPECT_EQ(f.stats().delivered_corrupt, 0u);
  EXPECT_EQ(rx1.got[0].second.payload.size(), 4u);
  EXPECT_TRUE(rx1.crc_ok[0]);
}

TEST_F(FabricFixture, UncontendedTimingMatchesWormholeFormula) {
  Fabric f = make_fabric();
  Packet p = data_packet(h0, h1, Route{{1}}, 4);
  const std::size_t wire_bytes = p.wire_bytes();
  f.inject(h0, p);
  sched.run();
  ASSERT_EQ(rx1.got.size(), 1u);
  // link0: ser + latency to switch head... full formula:
  // start0=0; head at sw = 250+300 = 550; starts link1 at 550;
  // tail leaves link1 at 550+ser; arrives 250 later.
  const sim::Duration ser = sim::transfer_time(wire_bytes, 160.0e6);
  EXPECT_EQ(rx1.got[0].first, 550u + ser + 250u);
}

TEST_F(FabricFixture, PayloadContentSurvivesTransit) {
  Fabric f = make_fabric();
  Packet p = data_packet(h0, h1, Route{{1}});
  p.payload = {1, 2, 3, 4, 5};
  p.hdr.user.w0 = 0xDEADBEEF;
  f.inject(h0, p);
  sched.run();
  ASSERT_EQ(rx1.got.size(), 1u);
  EXPECT_EQ(rx1.got[0].second.payload, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(rx1.got[0].second.hdr.user.w0, 0xDEADBEEFu);
}

TEST_F(FabricFixture, SharedLinkSerializes) {
  Fabric f = make_fabric();
  // Two large packets back-to-back on the same path: second's delivery is
  // one serialization later than the first's.
  f.inject(h0, data_packet(h0, h1, Route{{1}}, 4096));
  f.inject(h0, data_packet(h0, h1, Route{{1}}, 4096));
  sched.run();
  ASSERT_EQ(rx1.got.size(), 2u);
  const sim::Duration gap = rx1.got[1].first - rx1.got[0].first;
  const sim::Duration ser =
      sim::transfer_time(data_packet(h0, h1, Route{{1}}, 4096).wire_bytes(),
                         160.0e6);
  EXPECT_EQ(gap, ser);
}

TEST_F(FabricFixture, MisrouteToUnconnectedPortDrops) {
  Fabric f = make_fabric();
  f.inject(h0, data_packet(h0, h1, Route{{7}}, 4));  // port 7 unwired
  sched.run();
  EXPECT_EQ(f.stats().dropped_misroute, 1u);
  EXPECT_TRUE(rx1.got.empty());
}

TEST_F(FabricFixture, RouteExhaustedMidFabricDrops) {
  Fabric f = make_fabric();
  f.inject(h0, data_packet(h0, h1, Route{}, 4));
  sched.run();
  EXPECT_EQ(f.stats().dropped_misroute, 1u);
}

TEST_F(FabricFixture, LeftoverRouteBytesAtHostDrops) {
  Fabric f = make_fabric();
  f.inject(h0, data_packet(h0, h1, Route{{1, 1}}, 4));
  sched.run();
  EXPECT_EQ(f.stats().dropped_misroute, 1u);
  EXPECT_TRUE(rx1.got.empty());
}

TEST_F(FabricFixture, DownLinkDropsPackets) {
  Fabric f = make_fabric();
  topo.set_link_up(l1, false);
  f.inject(h0, data_packet(h0, h1, Route{{1}}, 4));
  sched.run();
  EXPECT_EQ(f.stats().dropped_link_down, 1u);
}

TEST_F(FabricFixture, DeadSwitchDropsPackets) {
  Fabric f = make_fabric();
  topo.set_switch_up(sw, false);
  f.inject(h0, data_packet(h0, h1, Route{{1}}, 4));
  sched.run();
  EXPECT_EQ(f.stats().dropped_switch_dead, 1u);
}

TEST_F(FabricFixture, MidFlightLinkDeathAffectsOnlyLaterPackets) {
  Fabric f = make_fabric();
  f.inject(h0, data_packet(h0, h1, Route{{1}}, 4));
  sched.run();
  topo.set_link_up(l1, false);
  f.inject(h0, data_packet(h0, h1, Route{{1}}, 4));
  sched.run();
  EXPECT_EQ(f.stats().delivered, 1u);
  EXPECT_EQ(f.stats().dropped_link_down, 1u);
}

TEST_F(FabricFixture, CorruptionIsDetectedByCrc) {
  Fabric f = make_fabric();
  f.link_faults(l0).corrupt_prob = 1.0;
  f.inject(h0, data_packet(h0, h1, Route{{1}}, 64));
  sched.run();
  ASSERT_EQ(rx1.got.size(), 1u);
  EXPECT_EQ(f.stats().delivered_corrupt, 1u);
  const Packet& p = rx1.got[0].second;
  EXPECT_NE(crc32(std::span<const std::uint8_t>(p.payload)), p.crc);
  EXPECT_FALSE(rx1.crc_ok[0]);  // the verdict handed to the receiver agrees
}

TEST_F(FabricFixture, EmptyPayloadCorruptionUsesMarker) {
  Fabric f = make_fabric();
  f.link_faults(l0).corrupt_prob = 1.0;
  f.inject(h0, data_packet(h0, h1, Route{{1}}, 0));
  sched.run();
  ASSERT_EQ(rx1.got.size(), 1u);
  EXPECT_TRUE(rx1.got[0].second.corrupt_marker);
  EXPECT_FALSE(rx1.crc_ok[0]);
  EXPECT_EQ(f.stats().delivered_corrupt, 1u);
}

TEST_F(FabricFixture, RandomLossDrops) {
  Fabric f = make_fabric();
  f.link_faults(l0).loss_prob = 1.0;
  f.inject(h0, data_packet(h0, h1, Route{{1}}, 4));
  sched.run();
  EXPECT_EQ(f.stats().dropped_random, 1u);
}

TEST_F(FabricFixture, PartialLossRateIsStatistical) {
  Fabric f = make_fabric();
  f.link_faults(l0).loss_prob = 0.3;
  for (int i = 0; i < 1000; ++i) {
    f.inject(h0, data_packet(h0, h1, Route{{1}}, 4));
    sched.run();
  }
  EXPECT_NEAR(static_cast<double>(f.stats().dropped_random), 300.0, 60.0);
  EXPECT_EQ(f.stats().delivered + f.stats().dropped_random, 1000u);
}

TEST_F(FabricFixture, BlockedLinkTriggersPathResetDrop) {
  FabricConfig cfg;
  cfg.deadlock_timeout = sim::milliseconds(62);
  Fabric f = make_fabric(cfg);
  f.link_faults(l1).blocked = true;
  const obs::TraceRing& ring = enable_trace(sched);
  f.inject(h0, data_packet(h0, h1, Route{{1}}, 4));
  sched.run();
  EXPECT_EQ(f.stats().dropped_path_reset, 1u);
  const auto drops = fabric_drops(ring);
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(reason_of(drops[0]), DropReason::kPathReset);
  // Head reaches the switch at 550ns, then sits for the deadlock timeout.
  EXPECT_EQ(drops[0].t, 550u + sim::milliseconds(62));
}

TEST_F(FabricFixture, UnattachedHostCountsDrop) {
  Fabric f(sched, topo, {});
  f.attach(h0, rx0.handler(sched));
  // h1 never attached.
  f.inject(h0, data_packet(h0, h1, Route{{1}}, 4));
  sched.run();
  EXPECT_EQ(f.stats().dropped_unattached, 1u);
}

TEST_F(FabricFixture, DropEventCarriesReasonAndKey) {
  Fabric f = make_fabric();
  const obs::TraceRing& ring = enable_trace(sched);
  topo.set_link_up(l1, false);
  Packet p = data_packet(h0, h1, Route{{1}}, 4);
  p.hdr.seq = 9;
  f.inject(h0, std::move(p));
  sched.run();
  const auto drops = fabric_drops(ring);
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(reason_of(drops[0]), DropReason::kLinkDown);
  EXPECT_EQ(drops[0].src, h0.v);
  EXPECT_EQ(drops[0].dst, h1.v);
  EXPECT_EQ(drops[0].seq, 9u);
}

TEST_F(FabricFixture, WireIdsAreUnique) {
  Fabric f = make_fabric();
  f.inject(h0, data_packet(h0, h1, Route{{1}}, 4));
  f.inject(h0, data_packet(h0, h1, Route{{1}}, 4));
  sched.run();
  ASSERT_EQ(rx1.got.size(), 2u);
  EXPECT_NE(rx1.got[0].second.wire_id, rx1.got[1].second.wire_id);
}

TEST_F(FabricFixture, MultiHopTimingAddsPerHopLatency) {
  // h0 - sw - sw2 - h2: two switches.
  SwitchId sw2 = topo.add_switch(4);
  HostId h2 = topo.add_host();
  topo.connect({Device::sw(sw), 2}, {Device::sw(sw2), 0});
  topo.connect({Device::host(h2), 0}, {Device::sw(sw2), 1});
  Rx rx2;
  Fabric f = make_fabric();
  f.attach(h2, rx2.handler(sched));

  Packet p = data_packet(h0, h2, Route{{2, 1}}, 4);
  const sim::Duration ser = sim::transfer_time(p.wire_bytes() + 1, 160.0e6);
  (void)ser;
  f.inject(h0, p);
  sched.run();
  ASSERT_EQ(rx2.got.size(), 1u);
  // Head: 2 switch hops of (250 + 300); tail: ser of the 2-byte-route packet
  // plus final 250 propagation.
  const sim::Duration ser2 = sim::transfer_time(p.wire_bytes(), 160.0e6);
  EXPECT_EQ(rx2.got[0].first, 2 * (250u + 300u) + ser2 + 250u);
}

// Fault draws come from one RNG stream per link direction, consumed in that
// direction's traversal order. So a flow's drop pattern depends only on the
// links it crosses: an unrelated flow on other links of the same crossbar
// must not move a single one of its drops.
TEST(FabricFaultStreams, DropPatternIgnoresUnrelatedTraffic) {
  constexpr std::uint32_t kPackets = 200;
  const auto h0_to_h1_drops = [](bool with_other_flow) {
    sim::Scheduler sched;
    Topology topo;
    const SwitchId sw = topo.add_switch(8);
    std::vector<HostId> h;
    for (std::uint8_t i = 0; i < 4; ++i) {
      h.push_back(topo.add_host());
      topo.connect({Device::host(h.back()), 0}, {Device::sw(sw), i});
    }
    Fabric f(sched, topo, FabricConfig{.seed = 7});
    for (const HostId host : h) f.attach(host, [](Packet&&, bool) {});
    f.set_link_fault_rates(std::nullopt, 0.3, 0.0);
    const obs::TraceRing& ring = enable_trace(sched);
    for (std::uint32_t seq = 0; seq < kPackets; ++seq) {
      sched.at(seq * sim::microseconds(5), [&, seq] {
        Packet a = FabricFixture::data_packet(h[0], h[1], Route{{1}}, 64);
        a.hdr.seq = seq;
        f.inject(h[0], std::move(a));
        if (with_other_flow) {
          Packet b = FabricFixture::data_packet(h[2], h[3], Route{{3}}, 64);
          b.hdr.seq = seq;
          f.inject(h[2], std::move(b));
        }
      });
    }
    sched.run();
    EXPECT_EQ(ring.dropped(), 0u);  // the ring held every drop
    std::vector<std::uint32_t> drops;
    for (const obs::TraceEvent& e : fabric_drops(ring)) {
      EXPECT_EQ(reason_of(e), DropReason::kRandomLoss);
      if (e.src == h[0].v) drops.push_back(e.seq);
    }
    return drops;
  };
  const std::vector<std::uint32_t> alone = h0_to_h1_drops(false);
  // Loss at 0.3 on both links of the path: the pattern is neither empty nor
  // total, so the comparison below has something to pin.
  EXPECT_GT(alone.size(), kPackets / 4);
  EXPECT_LT(alone.size(), kPackets * 3 / 4);
  EXPECT_EQ(h0_to_h1_drops(true), alone);
}

}  // namespace
}  // namespace sanfault::net
