// sanbench: the service benchmark. Runs the replicated KV service (src/kv
// over vmmc -> firmware -> nic -> net -> sim) on one named workload and
// prints every metric by name with its unit; the last stdout line is one
// JSON object {correct, attempted, failed, metrics}.
//
//   sanbench --workload <steady|linkkill|hostkill|repair> --seed <n>
//            --seconds <s> --trace <0|1>
//
// Two clocks. Sim time is what the modeled SAN and service take; it is a
// pure function of (workload, seed). Host time is thread CPU time this
// process spends simulating. Everything is measured from outside the
// program: the benchmark drives kv::KvClientHost::call itself, reads each
// layer's public stats(), installs the public hooks and reads the obs trace
// ring. See perfbench/README.md for the workloads and metric definitions.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "alloc_count.hpp"
#include "kv/audit.hpp"
#include "kv/rig.hpp"
#include "membership/swim.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "reducers.hpp"
#include "reference_kernel.hpp"
#include "sim/awaitables.hpp"
#include "sim/process.hpp"
#include "sim/rng.hpp"
#include "traffic/engine.hpp"

namespace {

using namespace sanfault;
namespace pb = perfbench;

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Fault { kNone, kLink, kHost };

struct Workload {
  const char* name;
  Fault fault;
  bool clos;          // clos-64 (16 servers + 48 clients) vs Figure-2 4+4
  bool striped;       // striped object class + repair (the repair workload)
  double rate_rps;    // offered load, open-loop Poisson
  double get_ratio;   // remainder after del_ratio is PUT
  double del_ratio;
  std::uint64_t requests;  // per execution
  int subruns;             // executions (sub-seeds) pooled into one result
};

// One result pools `subruns` executions on sub-seeds of --seed, which makes
// the sim-time figures steady from seed to seed. Each pool is the smallest
// that kept the quartile spread of every end-to-end metric over ten seeds
// within its bound while ten seeds of all four workloads, measured twice,
// stay well inside an hour on a 4-vCPU container. linkkill's and hostkill's
// were too small at 5: linkkill's sub-seeds differ by up to a fifth in
// events per request, and one sub-seed in a few has a slower GET tail, so
// over two sets of ten seeds its mean host time spread up to 6.4% and its
// GET p99 up to 12% with 6 sub-seeds, 6.3% with 8. hostkill's write tail
// depends on how the cascade after the kill unfolds: one sub-seed's write
// p99 lies anywhere in 265-525 ms, and the pooled p99 spread 23% over ten
// seeds with 5 sub-seeds, 16% with 8.
const Workload kWorkloads[] = {
    {"steady", Fault::kNone, false, false, 100'000, 0.50, 0.05, 40'000, 8},
    {"linkkill", Fault::kLink, false, false, 100'000, 0.50, 0.05, 20'000, 8},
    {"hostkill", Fault::kHost, true, false, 25'000, 0.50, 0.05, 5'000, 8},
    {"repair", Fault::kHost, true, true, 25'000, 1.00, 0.00, 2'500, 16},
};

constexpr std::size_t kLogicalClients = 1000;
constexpr double kZipfTheta = 0.99;
constexpr std::size_t kValueMin = 64;
constexpr std::size_t kValueMax = 512;
constexpr std::uint64_t kStripedObjects = 64;
constexpr std::uint32_t kStripedLen = 512;
constexpr std::size_t kVictimIndex = 5;  // a unit-holding server on clos-64
// The p99 limit of the capacity search: above the ~1.3 ms retransmission
// wait the 1e-3 drops put into p99, so the limit measures queueing.
constexpr sim::Duration kCapacityLimit = sim::milliseconds(2);

kv::KvRigConfig rig_config(const Workload& w) {
  kv::KvRigConfig rc;  // reliable firmware is the default
  rc.cluster.mapper = harness::MapperKind::kOnDemand;
  if (!w.clos) {
    // Figure-2 fabric, paper §5.1.3 drop injection at 1e-3.
    rc.num_servers = 4;
    rc.num_client_hosts = 4;
    rc.cluster.topo = harness::TopoKind::kFigure2;
    rc.cluster.rel.drop_interval = 1000;
    if (w.fault == Fault::kLink) {
      // Fast permanent-failure declaration so the mid-run kill resolves
      // within the run, as bench_kv_service configures it.
      rc.cluster.rel.fail_threshold = sim::milliseconds(10);
      rc.cluster.rel.fail_min_rounds = 8;
    }
    return rc;
  }
  // clos-64 with SWIM and pod-aware placement, with bench_repair's mapper
  // and SWIM settings; NIC and firmware knobs stay at their defaults.
  rc.num_servers = 16;
  rc.num_client_hosts = 48;
  rc.cluster.topo = harness::TopoKind::kClos;
  rc.cluster.clos.k = 8;
  rc.cluster.ondemand.configured_identity = true;
  rc.cluster.ondemand.multipath = true;
  rc.cluster.ondemand.max_probes = std::size_t{1} << 17;
  rc.cluster.ondemand.probe_timeout = sim::microseconds(30);
  rc.membership = true;
  rc.pod_aware_placement = true;
  // The default 64 KiB would hold 256 MiB of rings per rig (64 endpoints x
  // 64 peers); 16 KiB, as bench_repair uses, still fits any message here.
  rc.ring_per_peer = 16 * 1024;
  rc.swim.protocol_period = sim::milliseconds(2);
  rc.swim.probe_timeout = sim::milliseconds(1);
  rc.swim.suspect_timeout = sim::milliseconds(20);
  if (w.striped) {
    rc.striped = true;
    rc.repair.bandwidth_bytes_per_sec = 0;  // unthrottled
  }
  return rc;
}

// ---------------------------------------------------------------------------
// Host clocks
// ---------------------------------------------------------------------------

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// Host time is reported at the reference kernel's nominal speed: the load
// loop runs kRefIters kernel iterations every kRefEvery scheduler steps
// (about 5% of its CPU time), outside the simulator's timed CPU, and
// every host time of the execution is scaled by nominal / measured kernel
// speed. kRefNsPerIter is about the fastest the interleaved kernel ran per
// iteration on an idle 4-vCPU Xeon container, so scaled figures read as
// microseconds of that machine at its fastest.
constexpr std::uint64_t kRefEvery = 16384;
constexpr std::uint64_t kRefIters = 2000;
constexpr double kRefNsPerIter = 160.0;

pb::ReferenceKernel& reference_kernel() {
  static pb::ReferenceKernel k;
  return k;
}

double wall_s() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

// ---------------------------------------------------------------------------
// Layer counters, summed over hosts; deltas over the load phase
// ---------------------------------------------------------------------------

using Counters = std::map<std::string, double>;

Counters snapshot(kv::KvRig& rig) {
  Counters c;
  const net::FabricStats& f = rig.c.fabric().stats();
  c["net.injected"] = static_cast<double>(f.injected);
  c["net.delivered"] = static_cast<double>(f.delivered);
  c["net.drops_link_down"] = static_cast<double>(f.dropped_link_down);
  c["net.drops_path_reset"] = static_cast<double>(f.dropped_path_reset);
  for (std::size_t i = 0; i < rig.c.size(); ++i) {
    const nic::NicStats& n = rig.c.nic(i).stats();
    c["nic.wire_tx"] += static_cast<double>(n.wire_tx);
    c["nic.bytes_tx"] += static_cast<double>(n.bytes_tx);
    c["nic.injection_stalls"] += static_cast<double>(n.injection_stalls);
    const firmware::ReliabilityStats& r = rig.c.rel(i).stats();
    c["fw.data_tx"] += static_cast<double>(r.data_tx);
    c["fw.retransmissions"] += static_cast<double>(r.retransmissions);
    c["fw.acks_explicit_tx"] += static_cast<double>(r.acks_explicit_tx);
    c["fw.ooo_drops"] += static_cast<double>(r.ooo_drops);
    c["fw.path_failures"] += static_cast<double>(r.path_failures);
    c["fw.generation_restarts"] += static_cast<double>(r.generation_restarts);
    c["fw.unreachable_drops"] += static_cast<double>(r.unreachable_drops);
    const firmware::OnDemandMapperStats& m = rig.c.mapper(i).stats();
    c["mapper.mappings_started"] += static_cast<double>(m.mappings_started);
    c["mapper.mappings_succeeded"] += static_cast<double>(m.mappings_succeeded);
    c["mapper.mappings_failed"] += static_cast<double>(m.mappings_failed);
    c["mapper.probes"] +=
        static_cast<double>(m.host_probes_tx + m.switch_probes_tx);
    c["mapper.mapping_ns"] += static_cast<double>(m.mapping_time_total);
    c["mapper.path_cache_hits"] += static_cast<double>(m.path_cache_hits);
    c["mapper.backup_promotions"] += static_cast<double>(m.backup_promotions);
    const vmmc::EndpointStats& v = rig.eps[i]->stats();
    c["vmmc.segments_tx"] += static_cast<double>(v.segments_tx);
    c["vmmc.bytes_tx"] += static_cast<double>(v.bytes_tx);
  }
  for (const auto& ch : rig.clients) {
    const kv::KvClientStats& s = ch->stats();
    c["kv.calls"] += static_cast<double>(s.calls);
    c["kv.posts"] += static_cast<double>(s.posts);
    c["kv.timeouts"] += static_cast<double>(s.timeouts);
    c["kv.failovers"] += static_cast<double>(s.failovers);
    c["kv.dead_skips"] += static_cast<double>(s.dead_skips);
  }
  for (const auto& sv : rig.servers) {
    const kv::KvServerStats& s = sv->stats();
    c["kv.forwards"] += static_cast<double>(s.forwards);
    c["kv.replicates_tx"] += static_cast<double>(s.replicates_tx);
    c["kv.repl_retries"] += static_cast<double>(s.repl_retries);
    c["kv.repl_failures"] += static_cast<double>(s.repl_failures);
    c["kv.cached_replies"] += static_cast<double>(s.cached_replies);
  }
  for (const auto& a : rig.agents) {
    const membership::SwimStats& s = a->stats();
    c["swim.gossip_bytes"] += static_cast<double>(s.gossip_bytes_tx);
    c["swim.probe_timeouts"] += static_cast<double>(s.probe_timeouts);
    c["swim.refutations"] += static_cast<double>(s.refutations);
  }
  for (const auto& sc : rig.striped_clients) {
    c["ec.degraded_reads"] += static_cast<double>(sc->stats().degraded_reads);
  }
  return c;
}

Counters delta(const Counters& after, const Counters& before) {
  Counters d = after;
  for (const auto& [k, v] : before) d[k] -= v;
  return d;
}

// ---------------------------------------------------------------------------
// The load generator: open-loop Poisson on the sim clock
// ---------------------------------------------------------------------------

/// One benchmark span: a KV call from its due arrival time to its outcome.
struct CallSpan {
  double due_exact = 0;  // the Poisson due time before the 1 ns tick
  sim::Time due = 0;
  sim::Time done = 0;
  std::uint32_t client_host = 0;
  std::uint32_t primary = 0;
  std::uint32_t backup = 0;
  bool write = false;
  bool ok = false;  // committed
};

struct Load {
  kv::KvRig& rig;
  const Workload& w;
  double rate_rps;
  std::uint64_t total;
  sim::Rng rng;
  traffic::ZipfSampler keys;
  kv::KvRetryPolicy policy;
  std::vector<std::uint64_t> next_seq;
  std::vector<CallSpan> calls;
  kv::ShadowMap shadow;
  std::uint64_t finished = 0;
  sim::Time last_due = 0;
  bool arrivals_done = false;
  // Capacity probes: stop issuing once this many calls broke the limit.
  sim::Duration limit = 0;
  std::uint64_t breaks_allowed = 0;
  std::uint64_t breaks = 0;
  std::function<void(std::uint64_t issued)> on_issue;

  Load(kv::KvRig& r, const Workload& wl, double rate, std::uint64_t n,
       std::uint64_t seed)
      : rig(r),
        w(wl),
        rate_rps(rate),
        total(n),
        rng(seed),
        keys(traffic::TrafficConfig{}.num_keys, kZipfTheta),
        next_seq(kLogicalClients, 0) {
    calls.reserve(n);
  }

  [[nodiscard]] bool broken() const {
    return limit > 0 && breaks > breaks_allowed;
  }
  [[nodiscard]] bool done() const {
    return arrivals_done && finished == calls.size();
  }
};

sim::Process run_call(Load& L, std::size_t idx, kv::RequestId id, kv::Op op,
                      std::uint64_t key, std::vector<std::uint8_t> value,
                      std::size_t host) {
  kv::Outcome o = co_await L.rig.client(host).call(id, op, key,
                                                   std::move(value), L.policy);
  CallSpan& c = L.calls[idx];
  c.done = o.completed_at;
  c.ok = o.ok();
  ++L.finished;
  if (c.ok && c.write) L.shadow.record_committed(id);
  if (L.limit > 0 && (!c.ok || c.done - c.due > L.limit)) ++L.breaks;
}

sim::Process generate(Load& L) {
  sim::Scheduler& sched = L.rig.c.sched;
  const double mean_gap_ns = 1e9 / L.rate_rps;
  double due = static_cast<double>(sched.now());
  const std::size_t hosts = L.rig.clients.size();
  for (std::uint64_t i = 0; i < L.total && !L.broken(); ++i) {
    due += -std::log(std::max(L.rng.uniform_double(), 1e-12)) * mean_gap_ns;
    const auto at = static_cast<sim::Time>(due);
    co_await sim::DelayFor{sched, at > sched.now() ? at - sched.now() : 0};

    const std::uint64_t client = L.rng.uniform(kLogicalClients);
    const std::uint64_t key = L.keys.sample(L.rng);
    const double roll = L.rng.uniform_double();
    kv::Op op = kv::Op::kPut;
    if (roll < L.w.get_ratio) {
      op = kv::Op::kGet;
    } else if (roll < L.w.get_ratio + L.w.del_ratio) {
      op = kv::Op::kDel;
    }
    const kv::RequestId id{client, ++L.next_seq[client]};
    std::vector<std::uint8_t> value;
    if (op == kv::Op::kPut) {
      value = kv::make_value(
          id, kValueMin + L.rng.uniform(kValueMax - kValueMin + 1));
    }
    const std::size_t host = client % hosts;
    const std::size_t shard = L.rig.map->shard_of(key);
    CallSpan span;
    span.due_exact = due;
    span.due = sched.now();
    span.client_host = L.rig.client(host).host().v;
    span.primary = L.rig.map->primary(shard).v;
    span.backup = L.rig.map->backup(shard).v;
    span.write = op != kv::Op::kGet;
    L.calls.push_back(span);
    if (span.write) L.shadow.record_issued_write(id, key);
    L.last_due = span.due;
    run_call(L, L.calls.size() - 1, id, op, key, std::move(value), host);
    if (L.on_issue) L.on_issue(i + 1);
  }
  L.arrivals_done = true;
}

// ---------------------------------------------------------------------------
// Trace reduction: sim-time parts of each call
// ---------------------------------------------------------------------------

std::uint64_t pair_key(std::uint32_t a, std::uint32_t b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

struct PacketLife {
  std::int64_t enq = -1;
  std::int64_t first_send = -1;
  std::int64_t last_send = -1;  // last send before delivery
  std::int64_t deliver = -1;
};

struct TraceParts {
  // Per op class (0 = get, 1 = write): summed parts and summed latency.
  std::array<pb::Parts, 2> parts{};
  std::array<std::int64_t, 2> latency{};
  std::array<std::uint64_t, 2> calls{};
  double queue_wait_us = 0;  // mean per packet, host enqueue -> first send
  double retx_wait_us = 0;   // mean per retransmitted, delivered packet
  double wire_us = 0;        // mean per delivered packet, last send -> deliver
  bool sums_match = true;
  std::uint64_t events = 0;
  std::uint64_t wrapped = 0;
};

/// What the trace shows on one host pair (either direction): its data
/// packets, ordered by when they entered the firmware, and its remap
/// intervals, merged.
struct PairStages {
  std::vector<PacketLife> packets;
  std::vector<std::pair<std::int64_t, std::int64_t>> remaps;
};

std::int64_t packet_start(const PacketLife& p) {
  return p.enq >= 0 ? p.enq : p.first_send;
}

void merge_intervals(std::vector<std::pair<std::int64_t, std::int64_t>>& v) {
  std::sort(v.begin(), v.end());
  std::size_t out = 0;
  for (const auto& iv : v) {
    if (iv.second <= iv.first) continue;
    if (out > 0 && iv.first <= v[out - 1].second) {
      v[out - 1].second = std::max(v[out - 1].second, iv.second);
    } else {
      v[out++] = iv;
    }
  }
  v.resize(out);
}

TraceParts reduce_trace(const std::vector<obs::TraceEvent>& events,
                        std::uint64_t wrapped,
                        const std::vector<pb::StageInterval>& remaps,
                        const std::vector<std::uint64_t>& remap_pairs,
                        const std::vector<CallSpan>& calls) {
  TraceParts tp;
  tp.events = events.size();
  tp.wrapped = wrapped;
  struct KeyHash {
    std::size_t operator()(const std::pair<std::uint64_t, std::uint64_t>& k)
        const {
      return std::hash<std::uint64_t>{}(k.first * 0x9e3779b97f4a7c15ull ^
                                        k.second);
    }
  };
  std::unordered_map<std::pair<std::uint64_t, std::uint64_t>, PacketLife,
                     KeyHash>
      life;
  for (const obs::TraceEvent& e : events) {
    using K = obs::TraceKind;
    const bool send = e.kind == K::kWireInject || e.kind == K::kRetransmit ||
                      e.kind == K::kInjectedDrop;
    if (!send && e.kind != K::kHostEnqueue && e.kind != K::kDeliver) continue;
    const std::pair<std::uint64_t, std::uint64_t> k{
        (static_cast<std::uint64_t>(e.src) << 32) | e.dst,
        (static_cast<std::uint64_t>(e.gen) << 32) | e.seq};
    PacketLife& p = life[k];
    const auto t = static_cast<std::int64_t>(e.t);
    if (e.kind == K::kHostEnqueue) {
      p.enq = t;
    } else if (e.kind == K::kDeliver) {
      if (p.deliver < 0) p.deliver = t;
    } else if (p.deliver < 0) {
      if (p.first_send < 0) p.first_send = t;
      p.last_send = t;
    }
  }

  std::unordered_map<std::uint64_t, PairStages> pairs;
  double qsum = 0, rsum = 0, wsum = 0;
  std::uint64_t qn = 0, rn = 0, wn = 0;
  for (const auto& [k, p] : life) {
    if (p.first_send < 0) continue;
    pairs[pair_key(static_cast<std::uint32_t>(k.first >> 32),
                   static_cast<std::uint32_t>(k.first))]
        .packets.push_back(p);
    if (p.enq >= 0) {
      qsum += static_cast<double>(p.first_send - p.enq);
      ++qn;
    }
    if (p.deliver >= 0) {
      wsum += static_cast<double>(p.deliver - p.last_send);
      ++wn;
      if (p.last_send > p.first_send) {
        rsum += static_cast<double>(p.last_send - p.first_send);
        ++rn;
      }
    }
  }
  for (std::size_t i = 0; i < remaps.size(); ++i) {
    pairs[remap_pairs[i]].remaps.emplace_back(remaps[i].begin, remaps[i].end);
  }
  for (auto& [pk, ps] : pairs) {
    std::sort(ps.packets.begin(), ps.packets.end(),
              [](const PacketLife& x, const PacketLife& y) {
                const std::int64_t xs = packet_start(x);
                const std::int64_t ys = packet_start(y);
                return std::tie(xs, x.enq, x.first_send, x.last_send,
                                x.deliver) < std::tie(ys, y.enq, y.first_send,
                                                      y.last_send, y.deliver);
              });
    merge_intervals(ps.remaps);
  }
  tp.queue_wait_us = qn ? qsum / static_cast<double>(qn) / 1e3 : 0;
  tp.retx_wait_us = rn ? rsum / static_cast<double>(rn) / 1e3 : 0;
  tp.wire_us = wn ? wsum / static_cast<double>(wn) / 1e3 : 0;

  std::vector<pb::StageInterval> stages;
  for (const CallSpan& c : calls) {
    if (!c.ok) continue;
    const auto a = static_cast<std::int64_t>(c.due);
    const auto b = static_cast<std::int64_t>(c.done);
    stages.clear();
    std::uint64_t keys[3] = {pair_key(c.client_host, c.primary),
                             pair_key(c.client_host, c.backup),
                             pair_key(c.primary, c.backup)};
    const std::size_t nkeys = c.write ? 3 : 2;
    for (std::size_t i = 0; i < nkeys; ++i) {
      const auto it = pairs.find(keys[i]);
      if (it == pairs.end()) continue;
      // Packets that entered the firmware during the call: its own request,
      // reply and replication, plus any other call's on the same pair.
      const auto& pk = it->second.packets;
      auto p = std::lower_bound(pk.begin(), pk.end(), a,
                                [](const PacketLife& x, std::int64_t t) {
                                  return packet_start(x) < t;
                                });
      for (; p != pk.end() && packet_start(*p) < b; ++p) {
        if (p->enq >= 0) stages.push_back({p->enq, p->first_send, pb::kQueue});
        stages.push_back({p->first_send, p->last_send, pb::kRetx});
        if (p->deliver >= 0) {
          stages.push_back({p->last_send, p->deliver, pb::kWire});
        }
      }
      const auto& rm = it->second.remaps;
      auto r = std::lower_bound(
          rm.begin(), rm.end(), a,
          [](const std::pair<std::int64_t, std::int64_t>& iv, std::int64_t t) {
            return iv.second <= t;
          });
      for (; r != rm.end() && r->first < b; ++r) {
        stages.push_back({r->first, r->second, pb::kRemap});
      }
    }
    const pb::Parts parts = pb::split_call(a, b, stages);
    const std::size_t cls = c.write ? 1 : 0;
    std::int64_t sum = 0;
    for (std::size_t p = 0; p < pb::kNumParts; ++p) {
      tp.parts[cls][p] += parts[p];
      sum += parts[p];
    }
    if (sum != b - a) tp.sums_match = false;
    tp.latency[cls] += b - a;
    ++tp.calls[cls];
  }
  return tp;
}

// ---------------------------------------------------------------------------
// One execution of a workload
// ---------------------------------------------------------------------------

struct Exec {
  // Sim time (deterministic per workload and seed).
  std::uint64_t issued = 0;
  std::uint64_t committed = 0;
  std::uint64_t writes = 0;  // KV write calls issued
  // ns from the exact due time, committed calls, sorted.
  std::vector<double> get_lat;
  std::vector<double> put_lat;
  double goodput_rps = 0;
  double recovery_ms = 0;
  double repair_drain_ms = 0;
  double detect_ms = 0;
  std::uint64_t false_confirms = 0;
  double load_sim_s = 0;
  std::uint64_t hops = 0;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  Counters layer;
  std::uint64_t units_rebuilt = 0;
  std::uint64_t repair_bytes = 0;
  std::uint64_t stripes_abandoned = 0;
  // Correctness.
  std::uint64_t wrong = 0;  // audited outcomes that are wrong
  std::vector<std::string> violations;
  // Host time.
  double setup_s = 0;     // raw thread CPU time; see host_scale()
  double load_cpu_s = 0;  // raw, without the reference kernel's slices
  double ref_cpu_s = 0;   // the reference kernel's slices in the load loop
  std::uint64_t ref_iters = 0;
  double peak_heap_mb = 0;  // live operator-new bytes above the start
  double encode_ns_per_kb = 0;
  double reconstruct_ns_per_kb = 0;
  TraceParts trace;  // traced executions only

  /// Nominal over measured reference-kernel speed during the load loop.
  double host_scale() const {
    return ref_cpu_s > 0
               ? kRefNsPerIter * 1e-9 * static_cast<double>(ref_iters) /
                     ref_cpu_s
               : 1.0;
  }
  double host_us_per_req() const {
    return issued ? load_cpu_s * host_scale() * 1e6 /
                        static_cast<double>(issued)
                  : 0.0;
  }
};

struct ExecOptions {
  std::uint64_t seed = 1;
  std::uint64_t requests = 0;
  double rate_rps = 0;
  std::size_t trace_capacity = 0;  // > 0: record the obs trace ring
  // Capacity probe: fault off, no audit; stops issuing once more than 1% of
  // its calls failed or exceeded kCapacityLimit.
  bool probe = false;
};

// Host-time micro-measurement of the public codec calls on 64 KiB of
// seeded stripes; ns per KiB of object data.
void time_codec(const kv::KvRig& rig, std::uint64_t seed, Exec& ex) {
  const ec::RsCodec& codec = *rig.codec;
  sim::Rng rng(seed ^ 0xec0dull);
  std::vector<std::uint8_t> object(4096);
  for (auto& b : object) b = static_cast<std::uint8_t>(rng.uniform(256));
  constexpr int kStripes = 16;
  double enc = 0;
  double rec = 0;
  for (int i = 0; i < kStripes; ++i) {
    auto units = codec.split(object);
    const double t0 = thread_cpu_s();
    codec.encode(units);
    enc += thread_cpu_s() - t0;
    std::vector<bool> present(codec.n(), true);
    present[static_cast<std::size_t>(i) % codec.n()] = false;
    present[(static_cast<std::size_t>(i) + 1) % codec.n()] = false;
    auto damaged = units;
    damaged[static_cast<std::size_t>(i) % codec.n()].clear();
    damaged[(static_cast<std::size_t>(i) + 1) % codec.n()].clear();
    const double t1 = thread_cpu_s();
    const bool ok = codec.reconstruct(damaged, present);
    rec += thread_cpu_s() - t1;
    if (!ok || damaged != units) ex.violations.emplace_back("codec roundtrip");
  }
  const double kb = kStripes * static_cast<double>(object.size()) / 1024.0;
  ex.encode_ns_per_kb = enc * 1e9 / kb;
  ex.reconstruct_ns_per_kb = rec * 1e9 / kb;
}

struct Preload {
  kv::StripedShadow shadow;
  std::vector<double> lat;  // ns from the exact due time, committed puts
  std::uint64_t landed = 0;
};

sim::Process striped_put(kv::KvRig& rig, Preload& pre, kv::RequestId id,
                         std::uint64_t key, double due) {
  auto put = co_await rig.striped_client(0).put(
      id, key, kv::make_value(id, kStripedLen));
  if (put.status == kv::Status::kOk) {
    pre.shadow.record_committed(id);
    pre.lat.push_back(static_cast<double>(put.completed_at) - due);
  }
  ++pre.landed;
}

// Open loop at 2k/s from one client host, seeded keys: slow enough that the
// puts rarely overlap, so their latency is the fabric's, not the queue's.
sim::Process preload(kv::KvRig& rig, Preload& pre, std::uint64_t seed) {
  sim::Scheduler& sched = rig.c.sched;
  sim::Rng rng(seed ^ 0x57121bedull);
  double due = static_cast<double>(sched.now());
  for (std::uint64_t i = 0; i < kStripedObjects; ++i) {
    due -= std::log(std::max(rng.uniform_double(), 1e-12)) * 5e5;
    const auto at = static_cast<sim::Time>(due);
    co_await sim::DelayFor{sched, at > sched.now() ? at - sched.now() : 0};
    const std::uint64_t key = (rng.uniform(1ull << 40) << 8) | i;
    const kv::RequestId id{99, i + 1};
    pre.shadow.record_issued(id, key, kStripedLen);
    striped_put(rig, pre, id, key, due);
  }
}

Exec execute(const Workload& w, const ExecOptions& o) {
  Exec ex;
  // Built on first use, before any allocation is counted.
  pb::ReferenceKernel& ref = reference_kernel();
  pb::reset_heap_peak();
  const std::uint64_t heap0 = pb::alloc_counts().live;
  const double setup0 = thread_cpu_s();
  auto rig_ptr = std::make_unique<kv::KvRig>(rig_config(w));
  kv::KvRig& rig = *rig_ptr;
  sim::Scheduler& sched = rig.c.sched;

  // Repair preload: the striped corpus. These are the workload's only
  // writes, so they are its write-latency samples.
  Preload pre;
  if (w.striped) {
    preload(rig, pre, o.seed);
    while (pre.landed < kStripedObjects && sched.step()) {
    }
    if (pre.shadow.committed().size() != kStripedObjects) {
      ex.violations.emplace_back("striped preload incomplete");
    }
  }
  ex.setup_s = thread_cpu_s() - setup0;

  // Observers, installed through the public hooks.
  std::uint64_t hops = 0;
  rig.c.fabric().set_delivery_hook([&hops](const net::Packet& p, net::HostId) {
    hops += p.in_ports.size();
  });
  std::vector<pb::StageInterval> remaps;
  std::vector<std::uint64_t> remap_pairs;
  std::unordered_map<std::uint64_t, std::int64_t> remap_open;
  if (o.trace_capacity > 0) {
    for (firmware::ReliableFirmware* fw : rig.rel_view()) {
      fw->set_event_hook([&](const firmware::FwEvent& e) {
        using K = firmware::FwEvent::Kind;
        const std::uint64_t directed =
            (static_cast<std::uint64_t>(e.self.v) << 32) | e.peer.v;
        const auto now = static_cast<std::int64_t>(sched.now());
        if (e.kind == K::kPathFail) {
          remap_open.emplace(directed, now);
        } else if (e.kind == K::kGenRestart || e.kind == K::kPeerExcluded ||
                   (e.kind == K::kRemapDone && !e.ok)) {
          const auto it = remap_open.find(directed);
          if (it == remap_open.end()) return;
          remaps.push_back({it->second, now, pb::kRemap});
          remap_pairs.push_back(pair_key(e.self.v, e.peer.v));
          remap_open.erase(it);
        }
      });
    }
  }
  const net::HostId victim = rig.c.hosts[kVictimIndex];
  bool killed = false;
  sim::Time t_fault = 0;
  sim::Time t_detect = 0;
  std::uint64_t false_confirms = 0;
  // Live agents only: the victim's own agent, cut off, confirms everyone.
  for (std::size_t i = 0; i < rig.agents.size(); ++i) {
    if (i == kVictimIndex) continue;
    rig.agents[i]->add_confirm_hook([&](net::HostId dead, sim::Time at) {
      if (killed && dead == victim) {
        if (t_detect == 0) t_detect = at;
      } else {
        ++false_confirms;
      }
    });
  }

  const std::uint64_t requests = o.requests ? o.requests : w.requests;
  const double rate = o.rate_rps > 0 ? o.rate_rps : w.rate_rps;
  Load L(rig, w, rate, requests, o.seed);
  if (o.probe) {
    L.limit = kCapacityLimit;
    L.breaks_allowed = requests / 100;  // p99 within the limit
  }

  obs::TraceRing& ring = obs::Registry::of(sched).trace();
  if (o.trace_capacity > 0) ring.enable(o.trace_capacity);
  const Counters before = snapshot(rig);
  const std::uint64_t events0 = sched.events_executed();
  const pb::AllocCounts alloc0 = pb::alloc_counts();
  const sim::Time t_start = sched.now();

  struct ReadTally {
    std::uint64_t ok = 0, exact = 0;
    bool done = false;
  } tally;
  sim::Time t_drained = 0;
  std::function<void()> poll_drained = [&] {
    bool enqueued = false;
    bool idle = true;
    for (const auto& rm : rig.repairs) {
      if (rm->host() == victim) continue;
      enqueued |= rm->stats().stripes_enqueued > 0;
      idle &= rm->idle();
    }
    if (enqueued && idle) {
      t_drained = sched.now();
      return;
    }
    sched.after(sim::milliseconds(1), poll_drained);
  };
  // Faults land at the p25 issue phase (as bench_repair's host kill does):
  // three quarters of the requests then meet the fault, so medians sit
  // inside the fault's latency mode instead of on the edge between modes.
  if (!o.probe && w.fault != Fault::kNone) {
    L.on_issue = [&](std::uint64_t issued) {
      if (issued != (requests + 3) / 4 || killed) return;
      killed = true;
      t_fault = sched.now();
      if (w.fault == Fault::kLink) {
        // Trunk sw8_a <-> sw16_a of the Figure-2 fabric.
        rig.c.fabric().fail_link(net::LinkId{0});
        return;
      }
      rig.c.fabric().cut_host(victim);
      if (!w.striped) return;
      poll_drained();
      const sim::Duration bound = membership::SwimAgent::detection_bound(
          rig.config().swim, rig.c.size());
      sched.after(bound + sim::milliseconds(2), [&] {
        [](kv::KvRig& r, const kv::StripedShadow& shadow,
           ReadTally& t) -> sim::Process {
          auto& sc = r.striped_client(1);
          for (const auto& [packed, wr] : shadow.issued()) {
            auto get = co_await sc.get({98, wr.id.seq}, wr.key);
            if (get.status == kv::Status::kOk) {
              ++t.ok;
              if (get.value == kv::make_value(wr.id, wr.object_len)) ++t.exact;
            }
          }
          t.done = true;
        }(rig, pre.shadow, tally);
      });
    };
  }

  const auto ref_slice = [&] {
    const double r0 = thread_cpu_s();
    ref.run(kRefIters);
    ex.ref_cpu_s += thread_cpu_s() - r0;
    ex.ref_iters += kRefIters;
  };
  ref_slice();
  const double ref_before = ex.ref_cpu_s;
  const double cpu0 = thread_cpu_s();
  generate(L);
  const sim::Time cap = t_start + sim::seconds(600);
  std::uint64_t steps = 0;
  while (!L.done() && sched.now() < cap && sched.step()) {
    if (++steps % kRefEvery == 0) ref_slice();
  }
  const double cpu1 = thread_cpu_s();
  ex.load_cpu_s = cpu1 - cpu0 - (ex.ref_cpu_s - ref_before);
  ref_slice();
  ex.events = sched.events_executed() - events0;
  const pb::AllocCounts alloc1 = pb::alloc_counts();
  ex.allocs = alloc1.allocs - alloc0.allocs;
  ex.alloc_bytes = alloc1.bytes - alloc0.bytes;
  const sim::Time t_end = sched.now();
  ex.load_sim_s = sim::to_seconds(t_end - t_start);
  if (!L.done()) ex.violations.emplace_back("load did not drain within 600 s");

  if (o.trace_capacity > 0) {
    ring.disable();
    ex.trace = reduce_trace(ring.snapshot(), ring.dropped(), remaps,
                            remap_pairs, L.calls);
    if (!ex.trace.sums_match) {
      ex.violations.emplace_back("trace parts do not sum to call latency");
    }
  }
  ex.layer = delta(snapshot(rig), before);
  ex.hops = hops;

  // Latency, goodput and recovery on the sim clock.
  ex.issued = L.calls.size();
  std::vector<pb::ArrivalCommit> series;
  series.reserve(L.calls.size());
  for (const CallSpan& c : L.calls) {
    ex.writes += c.write ? 1 : 0;
    series.push_back({static_cast<std::int64_t>(c.due),
                      c.ok ? static_cast<std::int64_t>(c.done) : -1});
    if (!c.ok) continue;
    ++ex.committed;
    (c.write ? ex.put_lat : ex.get_lat)
        .push_back(static_cast<double>(c.done) - c.due_exact);
  }
  if (w.striped) ex.put_lat = std::move(pre.lat);
  std::sort(ex.get_lat.begin(), ex.get_lat.end());
  std::sort(ex.put_lat.begin(), ex.put_lat.end());
  // Goodput over the offered window: commits completed by the last arrival,
  // per simulated second from load start to the last arrival. The drain
  // after it (late retries) would otherwise set the denominator.
  std::uint64_t in_window = 0;
  for (const CallSpan& c : L.calls) in_window += c.ok && c.done <= L.last_due;
  if (L.last_due > t_start) {
    ex.goodput_rps = static_cast<double>(in_window) /
                     sim::to_seconds(L.last_due - t_start);
  }
  if (killed) {
    ex.recovery_ms =
        1e-6 * static_cast<double>(pb::recovery_time(
                   series, static_cast<std::int64_t>(t_fault),
                   static_cast<std::int64_t>(L.last_due),
                   static_cast<std::int64_t>(sim::milliseconds(10)),
                   static_cast<std::int64_t>(sim::milliseconds(1)), 0.9));
  }
  if (o.probe) return ex;

  // Settle, then audit.
  if (w.striped) {
    while (!tally.done && sched.now() < cap && sched.step()) {
    }
    while (killed && t_drained == 0 && sched.now() < cap) {
      sched.run_for(sim::milliseconds(1));
    }
  }
  rig.quiesce();
  ex.false_confirms = false_confirms;
  if (t_detect > t_fault) ex.detect_ms = sim::to_millis(t_detect - t_fault);

  const kv::AuditResult a = kv::audit(*rig.map, rig.server_view(), L.shadow);
  if (w.fault == Fault::kHost) {
    // Victim-aware audit (bench_repair's gate): exactly-once everywhere;
    // replica agreement only on shards the victim does not hold.
    std::uint64_t mismatches = 0;
    std::unordered_map<std::uint32_t, const kv::KvServer*> by_host;
    for (const auto* s : rig.server_view()) by_host[s->host().v] = s;
    for (std::size_t shard = 0; shard < rig.map->num_shards(); ++shard) {
      if (rig.map->primary(shard) == victim ||
          rig.map->backup(shard) == victim) {
        continue;
      }
      const kv::KvServer* prim = by_host.at(rig.map->primary(shard).v);
      const kv::KvServer* back = by_host.at(rig.map->backup(shard).v);
      for (const auto& [key, value] : prim->store()) {
        if (rig.map->shard_of(key) != shard) continue;
        const auto bit = back->store().find(key);
        if (bit == back->store().end() || bit->second != value) ++mismatches;
      }
      for (const auto& [key, value] : back->store()) {
        if (rig.map->shard_of(key) == shard && !prim->store().contains(key)) {
          ++mismatches;
        }
      }
    }
    ex.wrong += a.lost + a.duplicated + a.alien_values + mismatches;
  } else {
    ex.wrong += a.lost + a.duplicated + a.alien_values + a.replica_mismatches;
  }
  if (ex.wrong > 0) {
    ex.violations.push_back(
        "kv audit: lost=" + std::to_string(a.lost) +
        " dup=" + std::to_string(a.duplicated) +
        " alien=" + std::to_string(a.alien_values) +
        " mismatched=" + std::to_string(a.replica_mismatches));
  }
  if (killed && w.fault == Fault::kHost &&
      !rig.agents[0]->confirmed_dead(victim)) {
    ex.violations.emplace_back("SWIM never confirmed the victim dead");
  }

  if (w.striped) {
    const auto dead = [&rig](net::HostId h) {
      return rig.agents[0]->confirmed_dead(h);
    };
    const kv::StripedAuditResult sa = kv::audit_striped(
        *rig.stripe_map, *rig.codec, rig.store_view(), pre.shadow, dead);
    const std::uint64_t bad_reads = kStripedObjects - tally.exact;
    ex.wrong += sa.lost + sa.mismatched + sa.duplicated + sa.incomplete +
                sa.alien_units + bad_reads;
    if (!sa.ok()) ex.violations.emplace_back("striped completeness audit");
    if (bad_reads > 0) {
      ex.violations.emplace_back("striped read-back not byte-exact");
    }
    for (const auto& rm : rig.repairs) {
      if (rm->host() == victim) continue;
      ex.units_rebuilt += rm->stats().units_rebuilt;
      ex.repair_bytes += rm->stats().bytes_fetched + rm->stats().bytes_written;
      ex.stripes_abandoned += rm->stats().stripes_abandoned;
    }
    if (ex.units_rebuilt == 0) {
      ex.violations.emplace_back("the kill cost no units");
    }
    if (t_drained > t_fault) {
      ex.repair_drain_ms = sim::to_millis(t_drained - t_fault);
    }
    time_codec(rig, o.seed, ex);
  }
  ex.peak_heap_mb =
      static_cast<double>(pb::alloc_counts().peak - heap0) / (1024.0 * 1024.0);
  return ex;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double per(double num, double den) { return den > 0 ? num / den : 0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Sim-time metrics and per-layer counts of one execution. A pure function
/// of the workload and the execution's seed, so two executions of one seed
/// must print them byte-identically.
std::vector<Metric> sim_metrics(const Exec& x) {
  const Counters& c = x.layer;
  const double reqs = static_cast<double>(x.issued);
  const double committed = static_cast<double>(x.committed);
  const double sim_s = x.load_sim_s;
  const auto get = [&c](const char* k) {
    const auto it = c.find(k);
    return it == c.end() ? 0.0 : it->second;
  };
  const pb::Percentile g50 = pb::percentile(x.get_lat, 0.50);
  const pb::Percentile g99 = pb::percentile(x.get_lat, 0.99);
  const pb::Percentile p50 = pb::percentile(x.put_lat, 0.50);
  const pb::Percentile p99 = pb::percentile(x.put_lat, 0.99);
  const double data_tx = get("fw.data_tx");
  const double retx = get("fw.retransmissions");
  const double mappings = get("mapper.mappings_started");
  const double calls = get("kv.calls");
  return {
      {"goodput_rps", x.goodput_rps, "1/s"},
      {"commit_share", per(committed, reqs), "ratio"},
      {"fail_share", per(reqs - committed, reqs), "ratio"},
      {"get_p50_us", 1e-3 * g50.value, "us"},
      {"get_p99_us", 1e-3 * g99.value, "us"},
      {"put_p50_us", 1e-3 * p50.value, "us"},
      {"put_p99_us", 1e-3 * p99.value, "us"},
      {"get_samples", static_cast<double>(g50.samples), "count"},
      {"put_samples", static_cast<double>(p50.samples), "count"},
      {"get_p99_beyond", static_cast<double>(g99.beyond), "count"},
      {"put_p99_beyond", static_cast<double>(p99.beyond), "count"},
      {"recovery_ms", x.recovery_ms, "ms"},
      {"repair_drain_ms", x.repair_drain_ms, "ms"},
      {"sim.events_per_req", per(static_cast<double>(x.events), reqs), "1/req"},
      {"sim.allocs_per_req", per(static_cast<double>(x.allocs), reqs), "1/req"},
      {"sim.alloc_bytes_per_req", per(static_cast<double>(x.alloc_bytes), reqs),
       "B/req"},
      {"net.injected_per_req", per(get("net.injected"), reqs), "1/req"},
      {"net.hops_per_pkt",
       per(static_cast<double>(x.hops), get("net.delivered")), "hops"},
      {"net.drops_link_down", get("net.drops_link_down"), "count"},
      {"net.drops_path_reset", get("net.drops_path_reset"), "count"},
      {"nic.wire_tx_per_req", per(get("nic.wire_tx"), reqs), "1/req"},
      {"nic.bytes_tx_per_req", per(get("nic.bytes_tx"), reqs), "B/req"},
      {"nic.injection_stalls", get("nic.injection_stalls"), "count"},
      {"fw.retx_per_req", per(retx, reqs), "1/req"},
      {"fw.useful_tx_ratio", per(data_tx, data_tx + retx), "ratio"},
      {"fw.acks_explicit_per_data", per(get("fw.acks_explicit_tx"), data_tx),
       "ratio"},
      {"fw.ooo_drops", get("fw.ooo_drops"), "count"},
      {"fw.path_failures", get("fw.path_failures"), "count"},
      {"fw.generation_restarts", get("fw.generation_restarts"), "count"},
      {"fw.unreachable_drops", get("fw.unreachable_drops"), "count"},
      {"mapper.probes_per_mapping", per(get("mapper.probes"), mappings),
       "1/map"},
      {"mapper.mappings_failed", get("mapper.mappings_failed"), "count"},
      {"mapper.mapping_ms",
       1e-6 * per(get("mapper.mapping_ns"),
                  get("mapper.mappings_succeeded") +
                      get("mapper.mappings_failed")),
       "ms"},
      {"mapper.path_cache_hit_ratio",
       per(get("mapper.path_cache_hits"),
           get("mapper.path_cache_hits") + mappings),
       "ratio"},
      {"mapper.backup_promotions", get("mapper.backup_promotions"), "count"},
      {"vmmc.segments_per_req", per(get("vmmc.segments_tx"), reqs), "1/req"},
      {"vmmc.bytes_tx_per_req", per(get("vmmc.bytes_tx"), reqs), "B/req"},
      {"kv.posts_per_call", per(get("kv.posts"), calls), "1/call"},
      {"kv.timeouts_per_call", per(get("kv.timeouts"), calls), "1/call"},
      {"kv.failovers", get("kv.failovers"), "count"},
      {"kv.dead_skips", get("kv.dead_skips"), "count"},
      {"kv.forwards", get("kv.forwards"), "count"},
      {"kv.replicates_per_write",
       per(get("kv.replicates_tx"), static_cast<double>(x.writes)), "1/write"},
      {"kv.repl_retries", get("kv.repl_retries"), "count"},
      {"kv.repl_failures", get("kv.repl_failures"), "count"},
      {"kv.cached_replies", get("kv.cached_replies"), "count"},
      {"swim.detect_ms", x.detect_ms, "ms"},
      {"swim.false_confirms", static_cast<double>(x.false_confirms), "count"},
      {"swim.gossip_bytes_per_s", per(get("swim.gossip_bytes"), sim_s), "B/s"},
      {"swim.probe_timeouts", get("swim.probe_timeouts"), "count"},
      {"swim.refutations", get("swim.refutations"), "count"},
      {"repair.units_rebuilt", static_cast<double>(x.units_rebuilt), "count"},
      {"repair.bytes", static_cast<double>(x.repair_bytes), "B"},
      {"repair.bw_bps",
       per(static_cast<double>(x.repair_bytes), 1e-3 * x.repair_drain_ms),
       "B/s"},
      {"repair.stripes_abandoned", static_cast<double>(x.stripes_abandoned),
       "count"},
      {"ec.degraded_reads", get("ec.degraded_reads"), "count"},
  };
}

/// The run's result. Latency percentiles and their sample counts are taken
/// over the pooled samples of all executions, which estimates a tail from
/// every execution's share of it; every other metric is the median over the
/// executions, which keeps one execution whose fault went unusually badly
/// from moving the result.
std::vector<Metric> pooled_metrics(const std::vector<const Exec*>& xs) {
  std::vector<std::vector<Metric>> per_exec;
  for (const Exec* x : xs) per_exec.push_back(sim_metrics(*x));
  std::vector<Metric> out = per_exec.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> v;
    for (const auto& ms : per_exec) v.push_back(ms[i].value);
    out[i].value = median(std::move(v));
  }
  for (const bool write : {false, true}) {
    std::vector<double> lat;
    for (const Exec* x : xs) {
      const auto& v = write ? x->put_lat : x->get_lat;
      lat.insert(lat.end(), v.begin(), v.end());
    }
    std::sort(lat.begin(), lat.end());
    const std::string cls = write ? "put" : "get";
    const pb::Percentile p50 = pb::percentile(lat, 0.50);
    const pb::Percentile p99 = pb::percentile(lat, 0.99);
    for (Metric& m : out) {
      if (m.name == cls + "_p50_us") m.value = 1e-3 * p50.value;
      if (m.name == cls + "_p99_us") m.value = 1e-3 * p99.value;
      if (m.name == cls + "_samples") {
        m.value = static_cast<double>(p50.samples);
      }
      if (m.name == cls + "_p99_beyond") {
        m.value = static_cast<double>(p99.beyond);
      }
    }
  }
  return out;
}

/// The determinism self-check compares these strings. The traced execution
/// allocates for its own observers, so its comparison leaves out the heap
/// counts.
std::string fingerprint(const Exec& ex, bool with_allocs = true) {
  std::string s;
  char buf[96];
  for (const Metric& m : sim_metrics(ex)) {
    if (!with_allocs && m.name.rfind("sim.alloc", 0) == 0) continue;
    std::snprintf(buf, sizeof buf, "%s=%.17g\n", m.name.c_str(), m.value);
    s += buf;
  }
  return s;
}

const Metric& find(const std::vector<Metric>& ms, const std::string& name) {
  for (const Metric& m : ms) {
    if (m.name == name) return m;
  }
  std::fprintf(stderr, "sanbench: internal error: no metric %s\n",
               name.c_str());
  std::exit(3);
}

/// Percentiles with the samples behind them; one with fewer than 10
/// samples beyond it is printed as under-sampled, not as a number.
void print_percentiles(const char* label, const std::vector<Metric>& ms) {
  for (const bool write : {false, true}) {
    const std::string c = write ? "put" : "get";
    const double n = find(ms, c + "_samples").value;
    const double beyond99 = find(ms, c + "_p99_beyond").value;
    for (const char* q : {"p50", "p99"}) {
      const double beyond =
          std::string(q) == "p50" ? std::floor(n / 2) : beyond99;
      const double v = find(ms, c + "_" + q + "_us").value;
      if (beyond < static_cast<double>(pb::kMinBeyond)) {
        std::printf("  %-9s %s %s: UNDER-SAMPLED (n=%.0f, %.0f beyond, "
                    "need %" PRIu64 ")\n",
                    label, c.c_str(), q, n, beyond, pb::kMinBeyond);
      } else {
        std::printf("  %-9s %s %s: %.3f us (n=%.0f, %.0f beyond)\n", label,
                    c.c_str(), q, v, n, beyond);
      }
    }
  }
}

// Highest offered rate at which p99 <= 2 ms with no failed request, found
// by bisection on short probes of the workload's rig without its fault.
double capacity_rps(const Workload& w, std::uint64_t seed, int& probes) {
  const std::uint64_t n = 20'000;
  const pb::Bisection b =
      pb::bisect_capacity(100'000, 400'000, 2'500, [&](double rate) {
        ExecOptions o;
        o.seed = seed;
        o.requests = n;
        o.rate_rps = rate;
        o.probe = true;
        const Exec ex = execute(w, o);
        std::vector<double> all = ex.get_lat;
        all.insert(all.end(), ex.put_lat.begin(), ex.put_lat.end());
        std::sort(all.begin(), all.end());
        const pb::Percentile p = pb::percentile(all, 0.99);
        const bool pass = ex.issued == n && ex.committed == n &&
                          p.value <= static_cast<double>(kCapacityLimit);
        std::printf("  capacity probe %.0f rps: %s (issued %" PRIu64
                    ", p99 %.1f us)\n",
                    rate, pass ? "pass" : "break", ex.issued, 1e-3 * p.value);
        return pass;
      });
  probes = b.probes;
  return b.lo_passed ? b.rate : 0;
}

/// Seed of sub-execution `i` of a run (splitmix64 of the pair).
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed * 0x100000001b3ull + (i + 1) * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The sim-time metrics printed with --trace 0; the rest go to --trace 1.
const std::string kEndToEndSim[] = {"goodput_rps", "commit_share",
                                    "get_p50_us",  "get_p99_us",
                                    "put_p50_us",  "put_p99_us"};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <steady|linkkill|hostkill|repair> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const char* wname = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const bool has = i + 1 < argc;
    if (std::strcmp(argv[i], "--workload") == 0 && has) {
      wname = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && has) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--seconds") == 0 && has) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--trace") == 0 && has) {
      trace = std::atoi(argv[++i]);
    } else {
      return usage(argv[0]);
    }
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (wname != nullptr && std::strcmp(cand.name, wname) == 0) w = &cand;
  }
  if (w == nullptr || !(seconds > 0) || (trace != 0 && trace != 1)) {
    return usage(argv[0]);
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  std::printf("workload %s seed %" PRIu64 " seconds %g trace %d\n", w->name,
              seed, seconds, trace);
  std::printf("load: open-loop Poisson on the sim clock (the generator is "
              "never late: lag 0 by construction), %.0f rps, %" PRIu64
              " requests x %d sub-seeds; all traffic simulated\n",
              w->rate_rps, w->requests, w->subruns);

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto account = [&](const Exec& ex, const char* label) {
    attempted += ex.issued;
    failed += ex.wrong;
    for (const std::string& v : ex.violations) {
      std::printf("VIOLATION (%s): %s\n", label, v.c_str());
      correct = false;
    }
  };

  // The pooled result: one execution per sub-seed.
  const double t0 = wall_s();
  std::vector<Exec> pool;
  std::vector<std::string> prints;
  std::vector<double> setup, host_us, raw_us, ref_ns;
  // Host µs/req by sub-seed: sub-seeds differ in the work a request costs
  // (a fault's effects vary), repeats of one sub-seed only in the machine.
  std::vector<std::vector<double>> host_by_sub(
      static_cast<std::size_t>(w->subruns));
  const auto run = [&](std::size_t i, const char* label) {
    ExecOptions o;
    o.seed = sub_seed(seed, i);
    Exec ex = execute(*w, o);
    account(ex, label);
    setup.push_back(ex.setup_s * ex.host_scale());
    host_us.push_back(ex.host_us_per_req());
    host_by_sub[i].push_back(host_us.back());
    raw_us.push_back(ex.load_cpu_s * 1e6 / static_cast<double>(ex.issued));
    ref_ns.push_back(1e9 * ex.ref_cpu_s / static_cast<double>(ex.ref_iters));
    return ex;
  };
  for (int i = 0; i < w->subruns; ++i) {
    pool.push_back(run(static_cast<std::size_t>(i), "pool"));
    prints.push_back(fingerprint(pool.back()));
  }
  // Determinism self-check: repeat the pool's sub-seeds in order; each
  // repeat must reproduce its sim metrics and per-layer counts byte for
  // byte. A trace run repeats at least once; any run repeats while
  // --seconds of wall time have not passed (trace runs keep half of them
  // for the traced execution, the held-out seed and the capacity probes).
  const double budget = trace ? 0.5 * seconds : seconds;
  int repeats = 0;
  while ((trace && repeats == 0) || wall_s() - t0 < budget) {
    const std::size_t i = static_cast<std::size_t>(repeats) % pool.size();
    const Exec ex = run(i, "repeat");
    if (fingerprint(ex) != prints[i]) {
      std::printf("DETERMINISM FAILURE: sub-seed %zu of seed %" PRIu64
                  " changed on repeat\n--- first\n%s--- repeat\n%s",
                  i, seed, prints[i].c_str(), fingerprint(ex).c_str());
      correct = false;
    }
    ++repeats;
  }
  std::printf("determinism: %d repeats of %zu sub-seeds, sim metrics "
              "byte-identical: %s\n",
              repeats, pool.size(), correct ? "yes" : "NO");

  std::vector<const Exec*> pooled;
  for (const Exec& ex : pool) pooled.push_back(&ex);
  const std::vector<Metric> sm = pooled_metrics(pooled);
  // The median over a sub-seed's executions keeps a slow moment of the
  // machine out; the mean over sub-seeds weighs each sub-seed's work once.
  double host_us_per_req = 0;
  for (const std::vector<double>& h : host_by_sub) {
    host_us_per_req += median(h) / static_cast<double>(host_by_sub.size());
  }
  const double setup_s = median(setup);

  std::vector<Metric> out;
  if (trace == 0) {
    std::printf("%-30s %16s  unit (median over %zu executions)\n", "metric",
                "run", pool.size());
    for (const Metric& m : sm) {
      std::printf("%-30s %16.9g  %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    print_percentiles("run", sm);
    for (const std::string& k : kEndToEndSim) out.push_back(find(sm, k));
    out.push_back({"host_us_per_req", host_us_per_req, "us"});
    out.push_back({"setup_s", setup_s, "s"});
    std::vector<double> heap;
    for (const Exec& ex : pool) heap.push_back(ex.peak_heap_mb);
    out.push_back({"peak_heap_mb", median(heap), "MiB"});
  } else {
    // Held-out seed: never used while tuning; reported beside the pool.
    ExecOptions ho;
    ho.seed = sub_seed(seed + 1'000'003ull, 0);
    const Exec held = execute(*w, ho);
    account(held, "held-out");
    const std::vector<Metric> hm = sim_metrics(held);
    std::printf("%-30s %16s %16s  unit (run: median over %zu executions)\n",
                "metric", "run", "held-out", pool.size());
    for (std::size_t i = 0; i < sm.size(); ++i) {
      std::printf("%-30s %16.9g %16.9g  %s\n", sm[i].name.c_str(),
                  sm[i].value, hm[i].value, sm[i].unit.c_str());
    }
    print_percentiles("run", sm);
    print_percentiles("held-out", hm);

    // The ring must not wrap. Trace events have stayed below 70% of the
    // scheduler events of the same execution, which the pool already
    // counted; if the ring wraps anyway, the execution is repeated with a
    // ring of exactly the size it needed (the run is deterministic).
    ExecOptions to;
    to.seed = sub_seed(seed, 0);
    to.trace_capacity =
        static_cast<std::size_t>(pool[0].events) / 4 * 3 + 4096;
    Exec tr = execute(*w, to);
    if (tr.trace.wrapped > 0) {
      to.trace_capacity = static_cast<std::size_t>(tr.trace.events +
                                                   tr.trace.wrapped) + 4096;
      tr = execute(*w, to);
      if (tr.trace.wrapped > 0) {
        tr.violations.emplace_back("trace ring wrapped");
      }
    }
    account(tr, "traced");
    if (fingerprint(tr, false) != fingerprint(pool[0], false)) {
      std::printf("DETERMINISM FAILURE: tracing changed the sim metrics\n");
      correct = false;
    }
    const double traced_us = tr.host_us_per_req();
    // Against the untraced executions of the same sub-seed.
    const double untraced_us = median(host_by_sub[0]);
    const double overhead = per(traced_us, untraced_us) - 1.0;
    std::printf("trace: %" PRIu64 " events, wrapped %" PRIu64
                ", host %.3f us/req traced vs %.3f untraced median "
                "(overhead %.3f)\n",
                tr.trace.events, tr.trace.wrapped, traced_us, untraced_us,
                overhead);
    const char* cls_name[2] = {"get", "put"};
    const char* part_name[pb::kNumParts] = {"remap", "retx", "queue", "wire",
                                            "other"};
    for (std::size_t cls = 0; cls < 2; ++cls) {
      const double n = static_cast<double>(tr.trace.calls[cls]);
      std::printf("  %s: %" PRIu64 " committed calls, mean latency %.3f us =",
                  cls_name[cls], tr.trace.calls[cls],
                  1e-3 * per(static_cast<double>(tr.trace.latency[cls]), n));
      for (std::size_t p = 0; p < pb::kNumParts; ++p) {
        const double v =
            1e-3 * per(static_cast<double>(tr.trace.parts[cls][p]), n);
        std::printf(" %s %.3f%s", part_name[p], v,
                    p + 1 < pb::kNumParts ? " +" : "\n");
        out.push_back({std::string(cls_name[cls]) + ".part." + part_name[p] +
                           "_us",
                       v, "us"});
      }
    }
    for (const Metric& m : sm) {
      if (std::find(std::begin(kEndToEndSim), std::end(kEndToEndSim),
                    m.name) == std::end(kEndToEndSim)) {
        out.push_back(m);
      }
    }
    double cpu = 0, events = 0;
    for (const Exec& ex : pool) {
      cpu += ex.load_cpu_s * ex.host_scale();
      events += static_cast<double>(ex.events);
    }
    out.push_back({"sim.host_ns_per_event", 1e9 * per(cpu, events), "ns"});
    out.push_back({"net.wire_us", tr.trace.wire_us, "us"});
    out.push_back({"fw.queue_wait_us", tr.trace.queue_wait_us, "us"});
    out.push_back({"fw.retx_wait_us", tr.trace.retx_wait_us, "us"});
    out.push_back({"ec.encode_ns_per_kb", tr.encode_ns_per_kb, "ns/KiB"});
    out.push_back({"ec.reconstruct_ns_per_kb", tr.reconstruct_ns_per_kb,
                   "ns/KiB"});
    out.push_back({"trace_overhead", overhead, "ratio"});
    out.push_back({"host.raw_us_per_req", median(raw_us), "us"});
    out.push_back({"host.ref_ns_per_iter", median(ref_ns), "ns"});
    double cap = 0;
    if (w->fault == Fault::kNone) {
      int probes = 0;
      cap = capacity_rps(*w, sub_seed(seed, 0), probes);
      std::printf("capacity_rps %.0f after %d probes\n", cap, probes);
    }
    out.push_back({"capacity_rps", cap, "1/s"});
  }
  std::printf("%-30s %16.9g  us (host at nominal speed, mean over "
              "sub-seeds of the median of each one's executions, %zu in all: "
              "min %.6g, max %.6g; unscaled median %.6g, "
              "reference kernel %.4g ns/iter against %.4g nominal)\n",
              "host_us_per_req", host_us_per_req, host_us.size(),
              *std::min_element(host_us.begin(), host_us.end()),
              *std::max_element(host_us.begin(), host_us.end()),
              median(raw_us), median(ref_ns), kRefNsPerIter);
  std::printf("%-30s %16.9g  s (host, median of %zu set-ups)\n", "setup_s",
              setup_s, setup.size());

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", out[i].name.c_str(), out[i].value,
                out[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
