// ParallelCluster: the experiment rig on the conservative parallel engine.
//
// Builds the same topology/NIC/firmware stack as harness::Cluster but spread
// over sim::ParallelScheduler partitions: hosts are grouped along fault-
// domain (pod) boundaries by net::partition_clos_pods, every per-host
// component lives on its partition's scheduler, and one net::Fabric shard
// per partition carries the wire — cross-partition hops travel through the
// engine's lock-free channels with the cut links' latency as lookahead.
//
// What this rig deliberately does NOT carry: the KV/traffic/recovery layers
// (kv::KvRig), whose shard map, audit log and recovery monitor are shared
// mutable state across all hosts. Those stay on the serial Cluster; the
// parallel rig runs firmware-level workloads (reliable-delivery rings,
// chaos scenarios), which is where fabric-scale event rates live anyway.
//
// Chaos runs through ShardedFaultInjector on the engine's *control* queue:
// fault actions mutate the shared Topology only at global sync points, with
// every worker parked — the same instant every partition observes.
#pragma once

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/cluster.hpp"
#include "net/partition.hpp"
#include "sim/parallel_scheduler.hpp"

namespace sanfault::harness {

/// Applies each fault once to the shared topology (through shard 0, so the
/// transition is counted and hooks fire exactly once — merged counters match
/// a serial run) and mirrors per-shard knobs (loss/corrupt rates) to every
/// other shard, which reads only its own copy during windows.
class ShardedFaultInjector : public net::FaultInjector {
 public:
  explicit ShardedFaultInjector(std::vector<net::Fabric*> shards)
      : shards_(std::move(shards)) {
    assert(!shards_.empty());
  }

  void fail_link(net::LinkId l) override { shards_[0]->fail_link(l); }
  void restore_link(net::LinkId l) override { shards_[0]->restore_link(l); }
  void fail_switch(net::SwitchId s) override { shards_[0]->fail_switch(s); }
  void restore_switch(net::SwitchId s) override {
    shards_[0]->restore_switch(s);
  }
  void cut_host(net::HostId h) override { shards_[0]->cut_host(h); }
  void heal_host(net::HostId h) override { shards_[0]->heal_host(h); }
  void set_link_fault_rates(std::optional<net::LinkId> l, double loss,
                            double corrupt) override {
    for (std::size_t i = 1; i < shards_.size(); ++i) {
      shards_[i]->mirror_link_fault_rates(l, loss, corrupt);
    }
    shards_[0]->set_link_fault_rates(l, loss, corrupt);
  }

 private:
  std::vector<net::Fabric*> shards_;
};

struct ParallelClusterConfig {
  ClusterConfig cluster;
  /// Logical processes to split the fabric into; clamped to the topology's
  /// pod count (partitions follow fault domains). Results are a function of
  /// this value, NOT of `threads`.
  std::uint32_t partitions = 2;
  /// Worker threads (0 = one per partition). Any value gives bit-identical
  /// results for a fixed partition count.
  std::uint32_t threads = 0;
};

class ParallelCluster {
 public:
  explicit ParallelCluster(ParallelClusterConfig pcfg)
      : cfg_(std::move(pcfg)) {
    BuiltTopology b = build_cluster_topology(cfg_.cluster);
    topo = std::move(b.topo);
    hosts = std::move(b.hosts);
    switches = std::move(b.switches);
    host_pods = std::move(b.host_pods);
    num_pods = b.num_pods;

    part = net::partition_clos_pods(topo, cfg_.partitions, host_pods,
                                    static_cast<std::uint32_t>(num_pods));

    engine = std::make_unique<sim::ParallelScheduler>(
        sim::ParallelScheduler::Config{part.count, cfg_.threads, 1});
    for (std::uint32_t from = 0; from < part.count; ++from) {
      for (std::uint32_t to = 0; to < part.count; ++to) {
        if (from == to) continue;
        engine->set_lookahead(from, to, part.pair_lookahead(from, to));
      }
    }

    // One fabric shard per partition over the one shared topology. Shard
    // registries must not individually honor SANFAULT_METRICS_JSON — the
    // merged export below is the one authoritative file.
    shards_.reserve(part.count);
    for (std::uint32_t p = 0; p < part.count; ++p) {
      shards_.push_back(std::make_unique<net::Fabric>(
          engine->local(p), topo, cfg_.cluster.fabric));
      shard_ptrs_.push_back(shards_.back().get());
      obs::Registry::of(engine->local(p)).set_export_path("");
    }
    obs::Registry::of(engine->control()).set_export_path("");
    for (std::uint32_t p = 0; p < part.count; ++p) {
      shards_[p]->bind_shard(*engine, p, part, shard_ptrs_);
    }
    injector_ = std::make_unique<ShardedFaultInjector>(shard_ptrs_);

    // Per-host stack on the owning partition's scheduler, mirroring
    // harness::Cluster member for member.
    const ClusterConfig& cc = cfg_.cluster;
    inboxes_.resize(hosts.size());
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      const std::uint32_t p = part.host_owner[i];
      nics_.push_back(std::make_unique<nic::Nic>(
          engine->local(p), *shards_[p], hosts[i], cc.nic));
      fw_.add(cc, topo, hosts, i, *nics_.back());
      inboxes_[i] = std::make_unique<sim::Channel<HostMsg>>();
      nics_[i]->set_host_rx(
          [this, i](net::UserHeader u, net::PayloadRef pl, net::HostId src) {
            sim::Scheduler& s = sched_of(i);
            inboxes_[i]->push(s, HostMsg{s.now(), u, std::move(pl), src});
          });
    }
  }

  [[nodiscard]] std::size_t size() const { return hosts.size(); }
  [[nodiscard]] std::uint32_t partitions() const { return part.count; }
  /// The scheduler that owns host i's whole stack.
  [[nodiscard]] sim::Scheduler& sched_of(std::size_t i) {
    return engine->local(part.host_owner[i]);
  }
  [[nodiscard]] net::Fabric& shard(std::uint32_t p) { return *shards_.at(p); }
  [[nodiscard]] net::Fabric& shard_of(std::size_t i) {
    return *shards_.at(part.host_owner[i]);
  }
  [[nodiscard]] ShardedFaultInjector& injector() { return *injector_; }
  [[nodiscard]] nic::Nic& nic(std::size_t i) { return *nics_.at(i); }
  [[nodiscard]] sim::Channel<HostMsg>& inbox(std::size_t i) {
    return *inboxes_.at(i);
  }
  [[nodiscard]] firmware::ReliableFirmware& rel(std::size_t i) {
    assert(cfg_.cluster.fw == FirmwareKind::kReliable);
    return *fw_.rel.at(i);
  }
  [[nodiscard]] const ParallelClusterConfig& config() const { return cfg_; }

  /// Convenience: submit a payload from host `from` to host `to`. Safe
  /// before run() or from events executing on `from`'s own partition.
  void send(std::size_t from, std::size_t to,
            std::vector<std::uint8_t> payload, net::UserHeader user = {},
            std::function<void()> on_accepted = {}) {
    nic::SendRequest req;
    req.dst = hosts.at(to);
    req.user = user;
    req.payload = std::move(payload);
    nics_.at(from)->host_submit(std::move(req), std::move(on_accepted));
  }

  /// Sum of wire-level fabric stats over every shard (equals the serial
  /// fabric's stats for the same config/seed/horizon).
  [[nodiscard]] net::FabricStats fabric_stats() const {
    net::FabricStats t;
    for (const auto& sh : shards_) {
      const net::FabricStats& s = sh->stats();
      t.injected += s.injected;
      t.delivered += s.delivered;
      t.delivered_corrupt += s.delivered_corrupt;
      t.corruptions_injected += s.corruptions_injected;
      t.duplicates_injected += s.duplicates_injected;
      t.reorders_injected += s.reorders_injected;
      t.dropped_link_down += s.dropped_link_down;
      t.dropped_switch_dead += s.dropped_switch_dead;
      t.dropped_misroute += s.dropped_misroute;
      t.dropped_random += s.dropped_random;
      t.dropped_path_reset += s.dropped_path_reset;
      t.dropped_unattached += s.dropped_unattached;
    }
    return t;
  }

  /// Fold every partition registry plus the control registry into one
  /// Registry and serialize it — byte-comparable against a serial run's
  /// teardown export for the same workload.
  [[nodiscard]] std::string merged_metrics_json() {
    obs::Registry merged;
    for (std::uint32_t p = 0; p < part.count; ++p) {
      merged.merge_from(obs::Registry::of(engine->local(p)));
    }
    merged.merge_from(obs::Registry::of(engine->control()));
    return merged.to_json();
  }

  ~ParallelCluster() {
    // Mirror the serial registry's SANFAULT_METRICS_JSON teardown export
    // with the merged view (shard registries were muted in the ctor).
    if (const char* path = std::getenv("SANFAULT_METRICS_JSON")) {
      if (*path != '\0') {
        const std::string json = merged_metrics_json();
        if (std::FILE* f = std::fopen(path, "w")) {
          std::fwrite(json.data(), 1, json.size(), f);
          std::fclose(f);
        }
      }
    }
  }

  net::Topology topo;
  std::vector<net::HostId> hosts;
  std::vector<net::SwitchId> switches;
  std::vector<std::uint32_t> host_pods;
  std::size_t num_pods = 1;
  net::FabricPartition part;
  std::unique_ptr<sim::ParallelScheduler> engine;

 private:
  ParallelClusterConfig cfg_;
  std::vector<std::unique_ptr<net::Fabric>> shards_;
  std::vector<net::Fabric*> shard_ptrs_;
  std::unique_ptr<ShardedFaultInjector> injector_;
  std::vector<std::unique_ptr<nic::Nic>> nics_;
  FirmwareStacks fw_;
  std::vector<std::unique_ptr<sim::Channel<HostMsg>>> inboxes_;
};

}  // namespace sanfault::harness
