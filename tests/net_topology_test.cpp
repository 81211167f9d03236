// Unit tests for the static network graph: wiring, routes, failure state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <stdexcept>
#include <vector>

#include "net/packet.hpp"
#include "net/topology.hpp"

namespace sanfault::net {
namespace {

// Two hosts on one 8-port crossbar.
struct PairFixture {
  Topology topo;
  HostId h0, h1;
  SwitchId sw;
  LinkId l0, l1;

  PairFixture() {
    sw = topo.add_switch(8);
    h0 = topo.add_host();
    h1 = topo.add_host();
    l0 = topo.connect({Device::host(h0), 0}, {Device::sw(sw), 0});
    l1 = topo.connect({Device::host(h1), 0}, {Device::sw(sw), 1});
  }
};

TEST(Topology, CountsEntities) {
  PairFixture f;
  EXPECT_EQ(f.topo.num_hosts(), 2u);
  EXPECT_EQ(f.topo.num_switches(), 1u);
  EXPECT_EQ(f.topo.num_links(), 2u);
  EXPECT_EQ(f.topo.switch_ports(f.sw), 8);
}

TEST(Topology, PeerOfFollowsLinks) {
  PairFixture f;
  auto att = f.topo.peer_of({Device::host(f.h0), 0});
  ASSERT_TRUE(att.has_value());
  EXPECT_EQ(att->peer.dev, Device::sw(f.sw));
  EXPECT_EQ(att->peer.port, 0);
  EXPECT_EQ(att->link, f.l0);

  auto back = f.topo.peer_of(att->peer);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->peer.dev, Device::host(f.h0));
}

TEST(Topology, UnwiredPortHasNoPeer) {
  PairFixture f;
  EXPECT_FALSE(f.topo.peer_of({Device::sw(f.sw), 7}).has_value());
}

TEST(Topology, DoubleConnectThrows) {
  PairFixture f;
  HostId h2 = f.topo.add_host();
  EXPECT_THROW(
      f.topo.connect({Device::host(h2), 0}, {Device::sw(f.sw), 0}),
      std::logic_error);
}

TEST(Topology, HostSecondPortThrows) {
  Topology t;
  HostId h = t.add_host();
  SwitchId s = t.add_switch(4);
  EXPECT_THROW(t.connect({Device::host(h), 1}, {Device::sw(s), 0}),
               std::out_of_range);
}

TEST(Topology, ShortestRouteOneSwitch) {
  PairFixture f;
  auto r = f.topo.shortest_route(f.h0, f.h1);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, (Route{{1}}));  // out port toward h1
}

TEST(Topology, ShortestRouteToSelfIsEmpty) {
  PairFixture f;
  auto r = f.topo.shortest_route(f.h0, f.h0);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->empty());
}

TEST(Topology, RouteAcrossTwoSwitches) {
  Topology t;
  SwitchId s0 = t.add_switch(4);
  SwitchId s1 = t.add_switch(4);
  HostId a = t.add_host();
  HostId b = t.add_host();
  t.connect({Device::host(a), 0}, {Device::sw(s0), 0});
  t.connect({Device::sw(s0), 3}, {Device::sw(s1), 2});
  t.connect({Device::host(b), 0}, {Device::sw(s1), 1});
  auto r = t.shortest_route(a, b);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, (Route{{3, 1}}));
}

TEST(Topology, RouteAvoidsDownLink) {
  // Two disjoint switch paths between a and b; kill the short one.
  Topology t;
  SwitchId s0 = t.add_switch(4);   // direct switch
  SwitchId s1 = t.add_switch(4);   // detour
  SwitchId s2 = t.add_switch(4);
  HostId a = t.add_host();
  HostId b = t.add_host();
  t.connect({Device::host(a), 0}, {Device::sw(s0), 0});
  t.connect({Device::host(b), 0}, {Device::sw(s0), 1});
  LinkId direct = t.connect({Device::sw(s0), 2}, {Device::sw(s1), 0});
  t.connect({Device::sw(s1), 1}, {Device::sw(s2), 0});

  auto r1 = t.shortest_route(a, b);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->hops(), 1u);  // same switch

  // Unused here, but exercise link-down observation:
  t.set_link_up(direct, false);
  EXPECT_FALSE(t.link_up(direct));
}

TEST(Topology, RouteAvoidsDeadSwitch) {
  // a - s0 - b and a parallel path a - s0 - s1 - s2 - s0'? Build a square:
  // h0 - sA - sB - h1 and h0 - sA - sC - sB (redundant).
  Topology t;
  SwitchId sA = t.add_switch(4);
  SwitchId sB = t.add_switch(4);
  SwitchId sC = t.add_switch(4);
  HostId h0 = t.add_host();
  HostId h1 = t.add_host();
  t.connect({Device::host(h0), 0}, {Device::sw(sA), 0});
  t.connect({Device::host(h1), 0}, {Device::sw(sB), 0});
  t.connect({Device::sw(sA), 1}, {Device::sw(sB), 1});   // direct
  t.connect({Device::sw(sA), 2}, {Device::sw(sC), 0});   // detour
  t.connect({Device::sw(sC), 1}, {Device::sw(sB), 2});

  auto direct = t.shortest_route(h0, h1);
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(direct->hops(), 2u);

  // Kill nothing on the direct path — dead sC must not matter.
  t.set_switch_up(sC, false);
  EXPECT_EQ(t.shortest_route(h0, h1)->hops(), 2u);
  t.set_switch_up(sC, true);

  // Now force the detour by downing the direct link.
  auto att = t.peer_of({Device::sw(sA), 1});
  ASSERT_TRUE(att.has_value());
  t.set_link_up(att->link, false);
  auto detour = t.shortest_route(h0, h1);
  ASSERT_TRUE(detour.has_value());
  EXPECT_EQ(detour->hops(), 3u);
  EXPECT_EQ(*detour, (Route{{2, 1, 0}}));

  // Kill the detour switch too: unreachable.
  t.set_switch_up(sC, false);
  EXPECT_FALSE(t.shortest_route(h0, h1).has_value());
}

TEST(Topology, DisconnectUnplugsBothEnds) {
  PairFixture f;
  f.topo.disconnect(f.l1);
  EXPECT_FALSE(f.topo.peer_of({Device::host(f.h1), 0}).has_value());
  EXPECT_FALSE(f.topo.shortest_route(f.h0, f.h1).has_value());
  // Port 1 is free again: reconnect elsewhere.
  LinkId nl = f.topo.connect({Device::host(f.h1), 0}, {Device::sw(f.sw), 5});
  EXPECT_TRUE(f.topo.link_up(nl));
  auto r = f.topo.shortest_route(f.h0, f.h1);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, (Route{{5}}));
}

TEST(Topology, WiringGenerationTracksCablingOnly) {
  PairFixture f;
  const std::uint64_t g0 = f.topo.wiring_generation();
  // Up/down state is not cabling: device_after ignores it.
  f.topo.set_link_up(f.l1, false);
  f.topo.set_switch_up(f.sw, false);
  EXPECT_EQ(f.topo.wiring_generation(), g0);
  f.topo.disconnect(f.l1);
  const std::uint64_t g1 = f.topo.wiring_generation();
  EXPECT_GT(g1, g0);
  f.topo.disconnect(f.l1);  // already unplugged: nothing changed
  EXPECT_EQ(f.topo.wiring_generation(), g1);
  f.topo.connect({Device::host(f.h1), 0}, {Device::sw(f.sw), 5});
  EXPECT_GT(f.topo.wiring_generation(), g1);
}

TEST(Route, OverflowPastCapacityThrows) {
  Route r;
  for (std::size_t i = 0; i < kMaxRouteHops; ++i) r.ports.push_back(1);
  EXPECT_EQ(r.hops(), kMaxRouteHops);
  EXPECT_THROW(r.ports.push_back(1), std::length_error);
  EXPECT_EQ(r.hops(), kMaxRouteHops);  // the failed push left it intact

  const std::vector<std::uint8_t> too_long(kMaxRouteHops + 1, 2);
  Route r2;
  EXPECT_THROW(r2.ports.assign(too_long.begin(), too_long.end()),
               std::length_error);

  // The entry-port record has one slot more: a misrouted packet may enter
  // one switch past its route's end before it is dropped there.
  InPortList in;
  for (std::size_t i = 0; i <= kMaxRouteHops; ++i) in.push_back(3);
  EXPECT_THROW(in.push_back(3), std::length_error);
}

TEST(Route, CopiesAndComparesByValue) {
  const Route a{{3, 1, 4}};
  Route b = a;
  EXPECT_EQ(a, b);
  b.ports[1] = 5;  // mutating the copy leaves the original alone
  EXPECT_NE(a, b);
  EXPECT_EQ(a.str(), "[3,1,4]");
  EXPECT_EQ(b.str(), "[3,5,4]");
  b.ports.assign(a.ports.begin(), a.ports.begin() + 2);
  EXPECT_EQ(b, (Route{{3, 1}}));
}

TEST(Topology, TraceRouteFollowsPorts) {
  PairFixture f;
  auto dev = f.topo.trace_route(f.h0, Route{{1}});
  ASSERT_TRUE(dev.has_value());
  EXPECT_EQ(*dev, Device::host(f.h1));
}

TEST(Topology, TraceRouteDetectsMisroutes) {
  PairFixture f;
  // Leftover route bytes after reaching a host.
  EXPECT_FALSE(f.topo.trace_route(f.h0, Route{{1, 3}}).has_value());
  // Route exhausted at the switch.
  EXPECT_FALSE(f.topo.trace_route(f.h0, Route{}).has_value());
  // Unconnected output port.
  EXPECT_FALSE(f.topo.trace_route(f.h0, Route{{6}}).has_value());
  // Port number beyond the crossbar radix.
  EXPECT_FALSE(f.topo.trace_route(f.h0, Route{{200}}).has_value());
}

TEST(Topology, RouteLinksWalksAccessThenTrunks) {
  PairFixture f;
  EXPECT_EQ(f.topo.route_links(f.h0, Route{{1}}),
            (std::vector<LinkId>{f.l0, f.l1}));
  // A walk that falls off the fabric (unconnected port, port beyond the
  // radix) yields no links at all, not a prefix.
  EXPECT_TRUE(f.topo.route_links(f.h0, Route{{6}}).empty());
  EXPECT_TRUE(f.topo.route_links(f.h0, Route{{200}}).empty());
  // An unwired host has no access link to start from.
  const HostId lone = f.topo.add_host();
  EXPECT_TRUE(f.topo.route_links(lone, Route{{1}}).empty());
}

// --- up-state-aware tracing and disjoint backup routes ----------------------

TEST(Topology, TraceRouteUpRequiresLiveElements) {
  // h0 - sA - sB - h1 direct, plus a detour through sC.
  Topology t;
  SwitchId sA = t.add_switch(4);
  SwitchId sB = t.add_switch(4);
  SwitchId sC = t.add_switch(4);
  HostId h0 = t.add_host();
  HostId h1 = t.add_host();
  t.connect({Device::host(h0), 0}, {Device::sw(sA), 0});
  t.connect({Device::host(h1), 0}, {Device::sw(sB), 0});
  LinkId direct = t.connect({Device::sw(sA), 1}, {Device::sw(sB), 1});
  t.connect({Device::sw(sA), 2}, {Device::sw(sC), 0});
  t.connect({Device::sw(sC), 1}, {Device::sw(sB), 2});

  const Route r{{1, 0}};  // h0 -> sA -> sB -> h1 over the direct trunk
  auto end = t.trace_route_up(h0, r);
  ASSERT_TRUE(end.has_value());
  EXPECT_EQ(*end, Device::host(h1));

  // A dead link anywhere on the walk voids it (trace_route still follows
  // the wiring — up-state is this variant's whole point).
  t.set_link_up(direct, false);
  EXPECT_FALSE(t.trace_route_up(h0, r).has_value());
  EXPECT_TRUE(t.trace_route(h0, r).has_value());
  t.set_link_up(direct, true);

  // A dead switch voids it too.
  t.set_switch_up(sB, false);
  EXPECT_FALSE(t.trace_route_up(h0, r).has_value());
}

TEST(Topology, DisjointRouteFindsNodeDisjointDetour) {
  Topology t;
  SwitchId sA = t.add_switch(4);
  SwitchId sB = t.add_switch(4);
  SwitchId sC = t.add_switch(4);
  HostId h0 = t.add_host();
  HostId h1 = t.add_host();
  t.connect({Device::host(h0), 0}, {Device::sw(sA), 0});
  t.connect({Device::host(h1), 0}, {Device::sw(sB), 0});
  t.connect({Device::sw(sA), 1}, {Device::sw(sB), 1});  // direct
  t.connect({Device::sw(sA), 2}, {Device::sw(sC), 0});  // detour
  t.connect({Device::sw(sC), 1}, {Device::sw(sB), 2});

  const auto primary = t.shortest_route(h0, h1);
  ASSERT_TRUE(primary.has_value());
  EXPECT_EQ(primary->hops(), 2u);  // via the direct trunk
  const auto alt = t.disjoint_route(h0, h1, *primary, 1);
  ASSERT_TRUE(alt.has_value());
  EXPECT_EQ(alt->cls, DisjointClass::kNodeDisjoint);
  EXPECT_NE(alt->route, *primary);
  auto end = t.trace_route(h0, alt->route);
  ASSERT_TRUE(end.has_value());
  EXPECT_EQ(*end, Device::host(h1));
}

TEST(Topology, DisjointRouteDegradesToLinkDisjointThroughSharedSwitch) {
  // Chain h0 - sA == sM == sB - h1 with doubled trunks on both segments:
  // every route crosses sM, but the second trunk pair avoids every primary
  // *link*.
  Topology t;
  SwitchId sA = t.add_switch(4);
  SwitchId sM = t.add_switch(4);
  SwitchId sB = t.add_switch(4);
  HostId h0 = t.add_host();
  HostId h1 = t.add_host();
  t.connect({Device::host(h0), 0}, {Device::sw(sA), 0});
  t.connect({Device::host(h1), 0}, {Device::sw(sB), 2});
  t.connect({Device::sw(sA), 1}, {Device::sw(sM), 0});
  t.connect({Device::sw(sA), 2}, {Device::sw(sM), 1});
  t.connect({Device::sw(sM), 2}, {Device::sw(sB), 0});
  t.connect({Device::sw(sM), 3}, {Device::sw(sB), 1});

  const auto primary = t.shortest_route(h0, h1);
  ASSERT_TRUE(primary.has_value());
  const auto alt = t.disjoint_route(h0, h1, *primary, 1);
  ASSERT_TRUE(alt.has_value());
  EXPECT_EQ(alt->cls, DisjointClass::kLinkDisjoint);
  EXPECT_NE(alt->route, *primary);
  auto end = t.trace_route(h0, alt->route);
  ASSERT_TRUE(end.has_value());
  EXPECT_EQ(*end, Device::host(h1));
}

TEST(Topology, DisjointRouteDegradesToOverlappingWhenOneLinkIsShared) {
  // Doubled first segment, single second segment: any alternate must reuse
  // the sM - sB link, but avoiding the primary's sA - sM link still
  // survives that link's death.
  Topology t;
  SwitchId sA = t.add_switch(4);
  SwitchId sM = t.add_switch(4);
  SwitchId sB = t.add_switch(4);
  HostId h0 = t.add_host();
  HostId h1 = t.add_host();
  t.connect({Device::host(h0), 0}, {Device::sw(sA), 0});
  t.connect({Device::host(h1), 0}, {Device::sw(sB), 1});
  t.connect({Device::sw(sA), 1}, {Device::sw(sM), 0});
  t.connect({Device::sw(sA), 2}, {Device::sw(sM), 1});
  t.connect({Device::sw(sM), 2}, {Device::sw(sB), 0});

  const auto primary = t.shortest_route(h0, h1);
  ASSERT_TRUE(primary.has_value());
  const auto alt = t.disjoint_route(h0, h1, *primary, 1);
  ASSERT_TRUE(alt.has_value());
  EXPECT_EQ(alt->cls, DisjointClass::kOverlapping);
  EXPECT_NE(alt->route, *primary);
  auto end = t.trace_route(h0, alt->route);
  ASSERT_TRUE(end.has_value());
  EXPECT_EQ(*end, Device::host(h1));
}

TEST(Topology, DisjointRouteImpossibleOnSharedCrossbar) {
  // Same-crossbar pair: the primary's interior is empty — the only route IS
  // the primary, and the caller degrades to a backup-less entry.
  PairFixture f;
  const auto primary = f.topo.shortest_route(f.h0, f.h1);
  ASSERT_TRUE(primary.has_value());
  EXPECT_FALSE(f.topo.disjoint_route(f.h0, f.h1, *primary, 1).has_value());
}

TEST(Topology, DisjointRouteIsDeterministicPerSalt) {
  auto f = make_figure2_fabric(8);
  const auto primary = f.topo.shortest_route(f.hosts[0], f.hosts[3]);
  ASSERT_TRUE(primary.has_value());
  const auto a = f.topo.disjoint_route(f.hosts[0], f.hosts[3], *primary, 42);
  const auto b = f.topo.disjoint_route(f.hosts[0], f.hosts[3], *primary, 42);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->route, b->route);
  EXPECT_EQ(a->cls, b->cls);
}

TEST(Topology, DisjointRouteWiringViewIgnoresUpDownState) {
  // With links and switches down, the wiring view answers exactly what the
  // up view answered on the whole fabric, for every ordered pair of clos-64;
  // the up view routes around the faults.
  auto f = make_clos_fabric(*clos_named_shape("clos-64"));
  Topology& t = f.topo;
  struct Pair {
    HostId from, to;
    Route primary;
    std::optional<AltRoute> whole;
  };
  std::vector<Pair> pairs;
  for (const HostId a : f.hosts) {
    const RouteTree tree = t.shortest_routes_from(a);
    for (const HostId b : f.hosts) {
      if (a == b) continue;
      const auto primary = tree[b];
      ASSERT_TRUE(primary.has_value());
      const std::uint64_t salt = 31 * a.v + b.v;
      pairs.push_back({a, b, *primary, t.disjoint_route(a, b, *primary, salt)});
    }
  }
  for (const std::uint32_t l : {0u, 5u, 40u, 97u}) t.set_link_up(LinkId{l}, false);
  t.set_switch_up(f.cores[0], false);
  t.set_switch_up(f.aggs[0], false);
  std::size_t moved = 0;
  for (const Pair& p : pairs) {
    const std::uint64_t salt = 31 * p.from.v + p.to.v;
    const auto wired =
        t.disjoint_route(p.from, p.to, p.primary, salt, FabricView::kWiring);
    ASSERT_EQ(wired.has_value(), p.whole.has_value());
    if (!wired) continue;
    EXPECT_EQ(wired->route, p.whole->route);
    EXPECT_EQ(wired->cls, p.whole->cls);
    const auto up = t.disjoint_route(p.from, p.to, p.primary, salt);
    if (!up || up->route != wired->route) ++moved;
  }
  EXPECT_GT(moved, 0u);
}

TEST(Figure2Fabric, CrossFabricBackupIsLinkDisjoint) {
  // sw8_a - sw16_a - sw16_b - sw8_b is a chain: the interior switches cannot
  // be avoided, but every trunk is doubled — the best achievable backup for
  // a cross-fabric pair is exactly link-disjoint, and it survives the death
  // of any single primary trunk.
  auto f = make_figure2_fabric(8);
  const auto primary = f.topo.shortest_route(f.hosts[0], f.hosts[3]);
  ASSERT_TRUE(primary.has_value());
  const auto alt = f.topo.disjoint_route(f.hosts[0], f.hosts[3], *primary, 7);
  ASSERT_TRUE(alt.has_value());
  EXPECT_EQ(alt->cls, DisjointClass::kLinkDisjoint);
  auto end = f.topo.trace_route_up(f.hosts[0], alt->route);
  ASSERT_TRUE(end.has_value());
  EXPECT_EQ(*end, Device::host(f.hosts[3]));
}

TEST(Figure2Fabric, BuildsAndConnectsAllHosts) {
  auto f = make_figure2_fabric(8);
  EXPECT_EQ(f.topo.num_hosts(), 8u);
  EXPECT_EQ(f.topo.num_switches(), 4u);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      if (i == j) continue;
      auto r = f.topo.shortest_route(f.hosts[i], f.hosts[j]);
      ASSERT_TRUE(r.has_value()) << i << "->" << j;
      auto dev = f.topo.trace_route(f.hosts[i], *r);
      ASSERT_TRUE(dev.has_value());
      EXPECT_EQ(*dev, Device::host(f.hosts[j]));
    }
  }
}

TEST(Figure2Fabric, SurvivesSingleTrunkLinkDeath) {
  auto f = make_figure2_fabric(8);
  // Kill one of the two sw8_a - sw16_a trunks (link id 0 by construction).
  f.topo.set_link_up(LinkId{0}, false);
  for (std::size_t j = 1; j < 8; ++j) {
    EXPECT_TRUE(f.topo.shortest_route(f.hosts[0], f.hosts[j]).has_value());
  }
}

TEST(Figure2Fabric, HostCapacityIsEnforced) {
  EXPECT_THROW(make_figure2_fabric(64), std::logic_error);
}

// --- k-ary Clos / fat-tree builder (the 64/128-host scale-out fabrics) -----

TEST(ClosFabric, CanonicalShapeCounts) {
  // k = 8 fully populated: 128 hosts, 32 edge + 32 agg + 16 core switches.
  auto f = make_clos_fabric({});
  EXPECT_EQ(f.cfg.k, 8u);
  EXPECT_EQ(f.cfg.num_hosts, 128u);
  EXPECT_EQ(f.cfg.core_group_size, 4u);
  EXPECT_EQ(f.topo.num_hosts(), 128u);
  EXPECT_EQ(f.cores.size(), 16u);
  EXPECT_EQ(f.aggs.size(), 32u);
  EXPECT_EQ(f.edges.size(), 32u);
  EXPECT_EQ(f.topo.num_switches(), 80u);
  // Links: 128 host access + 8 pods * 16 edge-agg + 32 aggs * 4 core uplinks.
  EXPECT_EQ(f.topo.num_links(), 128u + 8 * 16 + 32 * 4);
  // Core switches are created first so chaos scenarios can address the spine
  // as switch 0.
  EXPECT_EQ(f.cores[0].v, 0u);
}

TEST(ClosFabric, PartialPopulationKeepsSwitchShape) {
  auto f = make_clos_fabric({.k = 8, .num_hosts = 64});
  EXPECT_EQ(f.topo.num_hosts(), 64u);
  EXPECT_EQ(f.topo.num_switches(), 80u);  // fabric shape independent of hosts
  EXPECT_EQ(f.topo.num_links(), 64u + 8 * 16 + 32 * 4);
}

TEST(ClosFabric, SpineRedundancyIsConfigurable) {
  // core_group_size 2 halves the spine: k/2 * 2 = 8 cores, 2 uplinks per agg.
  auto f = make_clos_fabric({.k = 8, .num_hosts = 32, .core_group_size = 2});
  EXPECT_EQ(f.cores.size(), 8u);
  EXPECT_EQ(f.topo.num_switches(), 8u + 32u + 32u);
  EXPECT_EQ(f.topo.num_links(), 32u + 8 * 16 + 32 * 2);
}

TEST(ClosFabric, EveryHostHasAValidAccessLink) {
  auto f = make_clos_fabric({.k = 8, .num_hosts = 64});
  for (auto h : f.hosts) {
    auto l = f.topo.host_access_link(h);
    ASSERT_TRUE(l.has_value()) << "host " << h.v;
    EXPECT_TRUE(f.topo.link_up(*l));
    auto [a, b] = f.topo.link_ends(*l);
    const bool host_end = a.dev == Device::host(h) || b.dev == Device::host(h);
    EXPECT_TRUE(host_end) << "host " << h.v;
    const Port sw_end = a.dev == Device::host(h) ? b : a;
    EXPECT_TRUE(sw_end.dev.is_switch());
    // Hosts sit on edge downlink ports (k/2 and up, below the edge radix).
    EXPECT_GE(sw_end.port, f.cfg.k / 2);
    EXPECT_LT(sw_end.port, f.cfg.k);
  }
}

TEST(ClosFabric, AllPairsReachableAtClosDistances) {
  auto f = make_clos_fabric({.k = 8, .num_hosts = 64});
  for (auto a : f.hosts) {
    for (auto b : f.hosts) {
      if (a == b) continue;
      auto r = f.topo.shortest_route(a, b);
      ASSERT_TRUE(r.has_value()) << a.v << "->" << b.v;
      auto end = f.topo.trace_route(a, *r);
      ASSERT_TRUE(end.has_value()) << a.v << "->" << b.v;
      EXPECT_EQ(*end, Device::host(b));
      // Fat-tree distances are exactly 1 (same edge), 3 (same pod) or
      // 5 (cross-pod) switches.
      EXPECT_TRUE(r->hops() == 1 || r->hops() == 3 || r->hops() == 5)
          << a.v << "->" << b.v << " hops=" << r->hops();
    }
  }
}

TEST(ClosFabric, RouteLinksCountEveryHopPlusAccess) {
  auto f = make_clos_fabric({.k = 8, .num_hosts = 64});
  for (auto a : f.hosts) {
    for (auto b : f.hosts) {
      if (a == b) continue;
      auto r = f.topo.shortest_route(a, b);
      ASSERT_TRUE(r.has_value()) << a.v << "->" << b.v;
      const auto links = f.topo.route_links(a, *r);
      ASSERT_EQ(links.size(), r->hops() + 1) << a.v << "->" << b.v;
      EXPECT_EQ(links.front(), *f.topo.host_access_link(a));
      EXPECT_EQ(links.back(), *f.topo.host_access_link(b));
    }
  }
}

TEST(ClosFabric, RoundRobinPlacementSetsExpectedDistances) {
  // Hosts round-robin across the 32 pod-major edges: host 0 and host 32
  // share edge 0 (distance 1); host 1 lands on edge 1, still pod 0
  // (edges 0-3), so 0->1 is the same-pod edge-agg-edge path (distance 3);
  // host 4 lands on edge 4 in pod 1, the cross-pod path through the spine
  // (distance 5). bench_scale relies on exactly these three pairs.
  auto f = make_clos_fabric({.k = 8, .num_hosts = 64});
  EXPECT_EQ(f.topo.shortest_route(f.hosts[0], f.hosts[32])->hops(), 1u);
  EXPECT_EQ(f.topo.shortest_route(f.hosts[0], f.hosts[1])->hops(), 3u);
  EXPECT_EQ(f.topo.shortest_route(f.hosts[0], f.hosts[4])->hops(), 5u);
}

TEST(ClosFabric, SurvivesSingleCoreSwitchDeath) {
  auto f = make_clos_fabric({.k = 8, .num_hosts = 64});
  f.topo.set_switch_up(f.cores[0], false);
  // Cross-pod pairs re-route through the redundant spine.
  for (std::size_t j = 1; j < 8; ++j) {
    auto r = f.topo.shortest_route(f.hosts[0], f.hosts[j]);
    ASSERT_TRUE(r.has_value()) << "0->" << j;
    EXPECT_EQ(*f.topo.trace_route(f.hosts[0], *r), Device::host(f.hosts[j]));
  }
}

// Goal-directed per-pair search, kept as the reference that every route of
// Topology::shortest_routes_from must reproduce byte for byte: a std::map of
// crumbs fixed on first visit, expansion in port order, stop at the goal.
std::optional<Route> reference_route(const Topology& t, HostId from,
                                     HostId to) {
  if (from == to) return Route{};
  struct Crumb {
    Device prev;
    LinkId via;
  };
  std::map<Device, Crumb> visited;
  const Device start = Device::host(from);
  const Device goal = Device::host(to);
  std::deque<Device> frontier{start};
  visited[start] = Crumb{start, LinkId{}};
  auto expand = [&](Device d, Port p) -> std::optional<Device> {
    auto att = t.peer_of(p);
    if (!att || !t.link_up(att->link)) return std::nullopt;
    const Device nbr = att->peer.dev;
    if (nbr.is_switch() && !t.switch_up(nbr.as_switch())) return std::nullopt;
    if (visited.contains(nbr)) return std::nullopt;
    visited[nbr] = Crumb{d, att->link};
    return nbr;
  };
  bool found = false;
  while (!frontier.empty() && !found) {
    const Device d = frontier.front();
    frontier.pop_front();
    if (d.is_host()) {
      if (d != start) continue;
      if (auto n = expand(d, Port{d, 0})) {
        if (*n == goal) found = true;
        frontier.push_back(*n);
      }
      continue;
    }
    if (!t.switch_up(d.as_switch())) continue;
    for (std::uint8_t p = 0; p < t.switch_ports(d.as_switch()) && !found;
         ++p) {
      if (auto n = expand(d, Port{d, p})) {
        if (*n == goal) found = true;
        frontier.push_back(*n);
      }
    }
  }
  if (!visited.contains(goal)) return std::nullopt;
  Route route;
  for (Device cur = goal; cur != start;) {
    const Crumb& c = visited[cur];
    if (c.prev.is_switch()) {
      const auto [a, b] = t.link_ends(c.via);
      route.ports.push_back((a.dev == c.prev ? a : b).port);
    }
    cur = c.prev;
  }
  std::reverse(route.ports.begin(), route.ports.end());
  return route;
}

// Every ordered pair: the tree's route equals the reference search and
// shortest_route. Returns the number of reachable ordered pairs.
std::size_t expect_trees_match_reference(const Topology& t) {
  std::size_t reachable = 0;
  for (std::uint32_t a = 0; a < t.num_hosts(); ++a) {
    const RouteTree tree = t.shortest_routes_from(HostId{a});
    EXPECT_EQ(tree.source(), HostId{a});
    for (std::uint32_t b = 0; b < t.num_hosts(); ++b) {
      const auto want = reference_route(t, HostId{a}, HostId{b});
      EXPECT_EQ(tree[HostId{b}], want) << a << "->" << b;
      EXPECT_EQ(t.shortest_route(HostId{a}, HostId{b}), want)
          << a << "->" << b;
      if (want) ++reachable;
    }
    const auto past_end = static_cast<std::uint32_t>(t.num_hosts());
    EXPECT_FALSE(tree[HostId{past_end}].has_value());
    EXPECT_FALSE(tree[HostId{past_end + 1000}].has_value());
  }
  return reachable;
}

TEST(RouteTree, MatchesPerPairSearchOnFigure2) {
  auto f = make_figure2_fabric(16);
  EXPECT_EQ(expect_trees_match_reference(f.topo), 16u * 16u);
}

TEST(RouteTree, MatchesPerPairSearchOnClos64) {
  auto f = make_clos_fabric({.k = 8, .num_hosts = 64});
  EXPECT_EQ(expect_trees_match_reference(f.topo), 64u * 64u);
}

TEST(RouteTree, MatchesPerPairSearchOnDegradedClos64) {
  auto f = make_clos_fabric({.k = 8, .num_hosts = 64});
  const RouteTree healthy = f.topo.shortest_routes_from(f.hosts[0]);
  // A core uplink of pod 0's first aggregation switch, and pod 1's second
  // aggregation switch: every host stays reachable, some routes move.
  auto uplink = f.topo.peer_of({Device::sw(f.aggs[0]), 4});
  ASSERT_TRUE(uplink.has_value());
  ASSERT_TRUE(uplink->peer.dev.is_switch());
  f.topo.set_link_up(uplink->link, false);
  f.topo.set_switch_up(f.aggs[5], false);
  EXPECT_EQ(expect_trees_match_reference(f.topo), 64u * 64u);
  const RouteTree degraded = f.topo.shortest_routes_from(f.hosts[0]);
  std::size_t moved = 0;
  for (const HostId h : f.hosts) moved += healthy[h] != degraded[h] ? 1 : 0;
  EXPECT_GT(moved, 0u);

  // An edge switch down cuts its hosts off: both searches agree on nullopt.
  f.topo.set_switch_up(f.edges[3], false);
  const std::size_t cut = 2;  // hosts 3 and 35 sit on edge 3
  EXPECT_EQ(expect_trees_match_reference(f.topo),
            (64u - cut) * (64u - cut) + cut);
}

TEST(RouteTree, UnknownSourceReachesOnlyItself) {
  PairFixture f;
  const RouteTree tree = f.topo.shortest_routes_from(HostId{7});
  EXPECT_EQ(tree[HostId{7}], Route{});
  EXPECT_FALSE(tree[f.h0].has_value());
  EXPECT_FALSE(tree[f.h1].has_value());
}

TEST(ClosFabric, RejectsBadShapes) {
  EXPECT_THROW(make_clos_fabric({.k = 5}), std::invalid_argument);
  EXPECT_THROW(make_clos_fabric({.k = 8, .core_group_size = 5}),
               std::invalid_argument);
}

TEST(ClosFabric, NamedShapesResolveCanonically) {
  // The named shapes are the contract between tests, benches and scripts:
  // exactly one geometry per label.
  const auto c64 = clos_named_shape("clos-64");
  ASSERT_TRUE(c64.has_value());
  EXPECT_EQ(c64->k, 8u);
  EXPECT_EQ(c64->num_hosts, 64u);
  const auto c128 = clos_named_shape("clos-128");
  ASSERT_TRUE(c128.has_value());
  EXPECT_EQ(c128->k, 8u);
  EXPECT_EQ(c128->num_hosts, 128u);
  const auto c256 = clos_named_shape("clos-256");
  ASSERT_TRUE(c256.has_value());
  EXPECT_EQ(c256->k, 16u);
  EXPECT_EQ(c256->num_hosts, 256u);
  const auto c1024 = clos_named_shape("clos-1024");
  ASSERT_TRUE(c1024.has_value());
  EXPECT_EQ(c1024->k, 16u);
  EXPECT_EQ(c1024->num_hosts, 1024u);
  EXPECT_FALSE(clos_named_shape("clos-42").has_value());
  EXPECT_FALSE(clos_named_shape("").has_value());
}

TEST(ClosFabric, Clos256RadixAndPodShape) {
  // k = 16 quarter-populated: 16 pods of 8 edges + 8 aggs, 64-core spine.
  auto f = make_clos_fabric(*clos_named_shape("clos-256"));
  EXPECT_EQ(f.cfg.core_group_size, 8u);
  EXPECT_EQ(f.topo.num_hosts(), 256u);
  EXPECT_EQ(f.cores.size(), 64u);
  EXPECT_EQ(f.aggs.size(), 128u);
  EXPECT_EQ(f.edges.size(), 128u);
  EXPECT_EQ(f.topo.num_switches(), 320u);
  // 256 access + 16 pods * 64 edge-agg + 128 aggs * 8 core uplinks.
  EXPECT_EQ(f.topo.num_links(), 256u + 16 * 64 + 128 * 8);
  // Cores and aggs run at full radix k = 16; the quarter-populated edges
  // carry 2 hosts + 8 agg uplinks (the spare ports are the headroom
  // clos-1024 fills on the identical switch core).
  for (auto s : f.cores) EXPECT_EQ(f.topo.switch_ports(s), 16u);
  for (auto s : f.aggs) EXPECT_EQ(f.topo.switch_ports(s), 16u);
  for (auto s : f.edges) EXPECT_EQ(f.topo.switch_ports(s), 10u);
  // Round-robin population: host 0 (edge 0, pod 0) to host 8 (edge 8,
  // pod 1) is a cross-pod 5-hop path; host 0 to host 1 stays in pod 0.
  EXPECT_EQ(f.topo.shortest_route(f.hosts[0], f.hosts[8])->hops(), 5u);
  EXPECT_EQ(f.topo.shortest_route(f.hosts[0], f.hosts[1])->hops(), 3u);
}

TEST(ClosFabric, Clos1024RadixAndPodShape) {
  // k = 16 fully populated: k^3/4 = 1024 hosts on the same 320-switch core.
  auto f = make_clos_fabric(*clos_named_shape("clos-1024"));
  EXPECT_EQ(f.topo.num_hosts(), 1024u);
  EXPECT_EQ(f.topo.num_switches(), 320u);
  EXPECT_EQ(f.topo.num_links(), 1024u + 16 * 64 + 128 * 8);
  // Full population saturates every edge downlink: 8 hosts per edge. Edge
  // switch ids are pod-interleaved with the aggs, so count by id.
  std::vector<std::size_t> per_switch(f.topo.num_switches(), 0);
  for (auto h : f.hosts) {
    auto l = f.topo.host_access_link(h);
    ASSERT_TRUE(l.has_value());
    auto [a, b] = f.topo.link_ends(*l);
    const Port sw_end = a.dev.is_switch() ? a : b;
    ++per_switch[sw_end.dev.as_switch().v];
  }
  for (auto e : f.edges) EXPECT_EQ(per_switch[e.v], 8u) << "edge " << e.v;
  for (auto s : f.cores) EXPECT_EQ(per_switch[s.v], 0u);
  for (auto s : f.aggs) EXPECT_EQ(per_switch[s.v], 0u);
}

}  // namespace
}  // namespace sanfault::net
