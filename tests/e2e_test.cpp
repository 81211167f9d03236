// Cross-layer end-to-end scenarios: behaviors that only emerge when fabric,
// NIC, firmware, mapper, and VMMC interact — deadlock recovery via path
// reset + retransmission (§4.2's key design bet), dynamic reconfiguration
// under live load, multiple concurrent failures, and combined fault types.
#include <gtest/gtest.h>

#include <vector>

#include "harness/cluster.hpp"
#include "sim/process.hpp"
#include "vmmc/endpoint.hpp"

namespace sanfault {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using harness::Drainer;
using harness::FirmwareKind;
using harness::MapperKind;
using harness::TopoKind;

// --- deadlock recovery -------------------------------------------------------

TEST(E2eDeadlock, BlockedPathRecoversViaHardwareResetAndRetransmission) {
  // §4.2: on-demand routes are not deadlock-free; a wormhole-blocked path is
  // resolved by the Myrinet deadlock timer (drop) + the retransmission
  // protocol. Model: block the victim's link for a while — packets entering
  // it are dropped after the hardware timeout; the firmware retransmits.
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.fw = FirmwareKind::kReliable;
  cfg.fabric.deadlock_timeout = sim::milliseconds(62);
  cfg.rel.fail_threshold = sim::seconds(10);  // stay in "transient" land
  Cluster c(cfg);
  Drainer d;
  drain(c, 1, d);

  c.fabric().link_faults(net::LinkId{1}).blocked = true;
  for (int i = 0; i < 5; ++i) {
    net::UserHeader u;
    u.w0 = static_cast<std::uint64_t>(i);
    c.send(0, 1, std::vector<std::uint8_t>(64, 1), u);
  }
  // Unblock after 150 ms: two deadlock-timeout generations have flushed.
  c.sched.after(sim::milliseconds(150), [&] {
    c.fabric().link_faults(net::LinkId{1}).blocked = false;
  });
  c.sched.run_until(sim::seconds(5));

  ASSERT_EQ(d.msgs.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(d.msgs[static_cast<std::size_t>(i)].user.w0,
              static_cast<std::uint64_t>(i));
  }
  EXPECT_GT(c.fabric().stats().dropped_path_reset, 0u);
  EXPECT_GT(c.rel(0).stats().retransmissions, 0u);
  EXPECT_EQ(c.rel(0).stats().path_failures, 0u);  // transient, not permanent
}

// --- reconfiguration under live load ----------------------------------------

TEST(E2eReconfig, NodeMovesWhileTrafficFlows) {
  ClusterConfig cfg;
  cfg.num_hosts = 8;
  cfg.topo = TopoKind::kFigure2;
  cfg.fw = FirmwareKind::kReliable;
  cfg.mapper = MapperKind::kOnDemand;
  cfg.rel.fail_threshold = sim::milliseconds(20);
  cfg.rel.fail_min_rounds = 3;
  Cluster c(cfg);
  Drainer d;
  drain(c, 3, d);

  // A steady stream host0 -> host3, one message per millisecond.
  for (int i = 0; i < 40; ++i) {
    net::UserHeader u;
    u.w0 = static_cast<std::uint64_t>(i);
    c.sched.at(sim::milliseconds(static_cast<std::uint64_t>(i)), [&c, u] {
      c.send(0, 3, std::vector<std::uint8_t>(128, 1), u);
    });
  }
  // Mid-stream, host 3 is unplugged and re-appears on another switch.
  c.sched.at(sim::milliseconds(15), [&c] {
    auto att = c.topo.peer_of({net::Device::host(c.hosts[3]), 0});
    c.topo.disconnect(att->link);
    c.topo.connect({net::Device::host(c.hosts[3]), 0},
                   {net::Device::sw(c.switches[1]), 12});
    c.mapper(3).flush_cache();
  });
  c.sched.run_until(sim::seconds(120));

  // Every distinct message arrives (generation restarts may re-deposit a
  // delivered-but-unacked suffix; deposits are idempotent, §4.2).
  std::vector<bool> seen(40, false);
  for (const auto& m : d.msgs) {
    ASSERT_LT(m.user.w0, 40u);
    seen[static_cast<std::size_t>(m.user.w0)] = true;
  }
  for (int i = 0; i < 40; ++i) EXPECT_TRUE(seen[static_cast<std::size_t>(i)]) << i;
  EXPECT_GE(c.rel(0).stats().path_failures, 1u);
  EXPECT_GE(c.mapper(0).stats().mappings_succeeded, 1u);
}

// --- combined fault soup -----------------------------------------------------

TEST(E2eFaultSoup, CorruptionLossAndInjectedDropsTogether) {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.fw = FirmwareKind::kReliable;
  cfg.rel.drop_interval = 20;
  Cluster c(cfg);
  c.fabric().link_faults(net::LinkId{0}).corrupt_prob = 0.05;
  c.fabric().link_faults(net::LinkId{0}).loss_prob = 0.05;
  c.fabric().link_faults(net::LinkId{1}).corrupt_prob = 0.05;
  c.fabric().link_faults(net::LinkId{1}).loss_prob = 0.05;

  Drainer d;
  drain(c, 1, d);
  for (int i = 0; i < 100; ++i) {
    net::UserHeader u;
    u.w0 = static_cast<std::uint64_t>(i);
    c.send(0, 1, std::vector<std::uint8_t>(512, static_cast<std::uint8_t>(i)),
           u);
  }
  c.sched.run_until(sim::seconds(120));
  ASSERT_EQ(d.msgs.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(d.msgs[static_cast<std::size_t>(i)].user.w0,
              static_cast<std::uint64_t>(i));
    EXPECT_EQ(d.msgs[static_cast<std::size_t>(i)].payload,
              std::vector<std::uint8_t>(512, static_cast<std::uint8_t>(i)));
  }
  EXPECT_GT(c.rel(1).stats().corrupt_drops, 0u);
  EXPECT_GT(c.fabric().stats().dropped_random, 0u);
  EXPECT_GT(c.rel(0).stats().injected_drops, 0u);
}

// --- many-to-one incast ------------------------------------------------------

TEST(E2eIncast, SevenSendersOneReceiverUnderErrors) {
  ClusterConfig cfg;
  cfg.num_hosts = 8;
  cfg.fw = FirmwareKind::kReliable;
  cfg.rel.drop_interval = 100;
  cfg.nic.send_buffers = 8;
  Cluster c(cfg);
  Drainer d;
  drain(c, 0, d);
  for (std::size_t s = 1; s < 8; ++s) {
    for (int i = 0; i < 20; ++i) {
      net::UserHeader u;
      u.w0 = (s << 16) | static_cast<std::uint64_t>(i);
      c.send(s, 0, std::vector<std::uint8_t>(1024, 1), u);
    }
  }
  c.sched.run_until(sim::seconds(60));
  ASSERT_EQ(d.msgs.size(), 140u);
  // Per-sender order must hold even though arrivals interleave.
  std::vector<std::uint64_t> next(8, 0);
  for (const auto& m : d.msgs) {
    const auto s = static_cast<std::size_t>(m.user.w0 >> 16);
    const auto i = m.user.w0 & 0xFFFF;
    EXPECT_EQ(i, next[s]) << "sender " << s;
    ++next[s];
  }
}

// --- vmmc over a re-mapped path ---------------------------------------------

TEST(E2eVmmc, DepositStreamSurvivesPermanentFailure) {
  ClusterConfig cfg;
  cfg.num_hosts = 8;
  cfg.topo = TopoKind::kFigure2;
  cfg.fw = FirmwareKind::kReliable;
  cfg.mapper = MapperKind::kOnDemand;
  cfg.rel.fail_threshold = sim::milliseconds(20);
  cfg.rel.fail_min_rounds = 3;
  Cluster c(cfg);
  vmmc::Endpoint tx(c.sched, c.nic(0));
  vmmc::Endpoint rx(c.sched, c.nic(3));
  auto exp = rx.export_buffer(8 * 1024);

  bool done = false;
  [](Cluster& c, vmmc::Endpoint& tx, vmmc::Endpoint& rx, vmmc::ExportId exp,
     bool& done) -> sim::Process {
    auto imp = co_await tx.import(c.hosts[3], exp);
    for (int i = 0; i < 24; ++i) {
      co_await tx.send(*imp, 0,
                       std::vector<std::uint8_t>(2048, static_cast<std::uint8_t>(i)),
                       static_cast<std::uint64_t>(i));
      co_await sim::DelayFor{c.sched, sim::milliseconds(1)};
    }
    // Wait for the last tag (idempotent duplicates may precede it).
    for (;;) {
      auto ev = co_await rx.notifications(exp).pop(c.sched);
      if (ev.tag == 23) break;
    }
    done = true;
  }(c, tx, rx, exp, done);

  c.sched.after(sim::milliseconds(8), [&] {
    c.topo.set_link_up(net::LinkId{0}, false);
    c.topo.set_link_up(net::LinkId{2}, false);
    c.topo.set_link_up(net::LinkId{4}, false);
  });
  const sim::Time deadline = sim::seconds(120);
  while (!done && c.sched.now() < deadline && c.sched.step()) {
  }
  EXPECT_TRUE(done);
  EXPECT_GE(c.rel(0).stats().path_failures, 1u);
  // The final deposit's bytes are intact in the export.
  EXPECT_EQ(rx.buffer(exp)[0], 23);
}

// --- determinism across the whole stack --------------------------------------

TEST(E2eDeterminism, IdenticalRunsProduceIdenticalEventCounts) {
  auto run_once = [] {
    ClusterConfig cfg;
    cfg.num_hosts = 4;
    cfg.fw = FirmwareKind::kReliable;
    cfg.rel.drop_interval = 17;
    Cluster c(cfg);
    Drainer d;
    drain(c, 2, d);
    for (int i = 0; i < 60; ++i) {
      c.send(static_cast<std::size_t>(i % 2), 2,
             std::vector<std::uint8_t>(333, 1));
    }
    c.sched.run_until(sim::seconds(30));
    return std::tuple{d.msgs.size(), c.sched.events_executed(),
                      c.rel(0).stats().retransmissions,
                      c.fabric().stats().delivered};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace sanfault
