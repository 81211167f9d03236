// Allocation-freedom of the packet hop path.
//
// This binary replaces the global operator new with a counting one, drives
// RawFirmware NIC <-> fabric traffic over the Figure-2 fabric, and asserts
// that once the scheduler's node pool and heap have grown to the workload's
// peak, moving packets allocates nothing: injection, every switch hop, NIC
// receive, firmware dispatch and deliver_to_host all run on inline routes,
// inline event closures and a shared, pre-built payload buffer.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "harness/cluster.hpp"
#include "net/packet.hpp"

namespace {
// Single-threaded test binary: a plain counter is exact.
std::uint64_t g_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sanfault {
namespace {

constexpr std::size_t kHosts = 8;
constexpr std::size_t kPackets = 1000;

struct HopRig {
  harness::Cluster c;
  net::PayloadRef payload{std::vector<std::uint8_t>(256, 0xA5)};
  std::uint64_t delivered = 0;

  static harness::ClusterConfig config() {
    harness::ClusterConfig cfg;
    cfg.num_hosts = kHosts;
    cfg.fw = harness::FirmwareKind::kRaw;
    cfg.topo = harness::TopoKind::kFigure2;
    return cfg;
  }

  HopRig() : c(config()) {
    // Count deliveries in place of the cluster's inbox channels (those
    // queue messages for a host process; this test has none).
    for (std::size_t i = 0; i < kHosts; ++i) {
      c.nic(i).set_host_rx(
          [this](net::UserHeader, net::PayloadRef, net::HostId) {
            ++delivered;
          });
    }
  }

  /// Inject one round of kPackets packets over every source/destination
  /// pairing the round-robin produces (1 to 3 switches apart), then run the
  /// simulation dry.
  void round() {
    for (std::size_t k = 0; k < kPackets; ++k) {
      const std::size_t src = k % kHosts;
      const std::size_t dst = (src + 1 + k / kHosts % (kHosts - 1)) % kHosts;
      const auto route = c.raw(src).routes().get(c.hosts[dst]);
      ASSERT_TRUE(route.has_value());
      net::Packet pkt;
      pkt.hdr.src = c.hosts[src];
      pkt.hdr.dst = c.hosts[dst];
      pkt.hdr.route = *route;
      pkt.hdr.user.w0 = k;
      pkt.payload = payload;
      c.nic(src).inject(std::move(pkt));
    }
    c.sched.run();
  }
};

TEST(HopAlloc, PacketPathAllocatesNothingAfterWarmUp) {
  HopRig rig;
  const std::uint64_t start = g_allocs;
  rig.round();  // warm-up: grows the node pool and heap to this peak
  ASSERT_EQ(rig.delivered, kPackets);
  // The counter is live: growing the pools allocated.
  ASSERT_GT(g_allocs, start);

  const std::uint64_t before = g_allocs;
  rig.round();
  const std::uint64_t allocs = g_allocs - before;

  EXPECT_EQ(rig.delivered, 2 * kPackets);
  EXPECT_EQ(rig.c.fabric().stats().delivered, 2 * kPackets);
  EXPECT_EQ(allocs, 0u) << "heap allocations across " << kPackets
                        << " packets of inject -> hops -> rx -> delivery";
}

}  // namespace
}  // namespace sanfault
