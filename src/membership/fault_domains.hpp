// Hierarchical fault domains: host < edge switch < pod < fabric root.
//
// DAOS-style placement input: the fault-domain tree is a static,
// non-overlapping partition of the hosts derived from the fabric shape
// (net::make_clos_fabric pods; figure-2 leaf switches; the trivial single
// domain otherwise). Placement policies consult it to keep a shard's primary
// and backup in distinct domains, so no single pod-level fault (edge/agg
// death, whole-pod power loss) can take out both replicas of any shard.
//
// The tree is shape-only and immutable.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "net/ids.hpp"
#include "net/topology.hpp"

namespace sanfault::membership {

class FaultDomainTree {
 public:
  /// Trivial tree: every host in one pod behind one edge (single-switch
  /// rigs, or fabrics whose shape carries no placement information).
  static FaultDomainTree flat(std::size_t num_hosts) {
    FaultDomainTree t;
    t.edge_of_.assign(num_hosts, 0);
    t.pod_of_.assign(num_hosts, 0);
    t.num_edges_ = num_hosts == 0 ? 0 : 1;
    t.num_pods_ = t.num_edges_;
    return t;
  }

  /// Derive from a freshly built Clos fabric: host i hangs off edge
  /// (i mod num_edges); edges are pod-major, k/2 per pod.
  static FaultDomainTree from_clos(const net::ClosFabric& f) {
    const std::size_t m = f.cfg.k / 2;
    const std::size_t num_edges = f.edges.size();
    FaultDomainTree t;
    t.num_edges_ = num_edges;
    t.num_pods_ = f.cfg.k;
    t.edge_of_.reserve(f.hosts.size());
    t.pod_of_.reserve(f.hosts.size());
    for (std::size_t i = 0; i < f.hosts.size(); ++i) {
      const std::size_t e = i % num_edges;
      t.edge_of_.push_back(static_cast<std::uint32_t>(e));
      t.pod_of_.push_back(static_cast<std::uint32_t>(e / m));
    }
    return t;
  }

  /// Generic form: the caller supplies the pod index per host (harness
  /// clusters expose this for every topology kind). Edges default to pods.
  static FaultDomainTree from_pods(std::vector<std::uint32_t> pods) {
    FaultDomainTree t;
    std::uint32_t hi = 0;
    for (const std::uint32_t p : pods) hi = std::max(hi, p);
    t.pod_of_ = std::move(pods);
    t.edge_of_ = t.pod_of_;
    t.num_pods_ = t.pod_of_.empty() ? 0 : hi + 1;
    t.num_edges_ = t.num_pods_;
    return t;
  }

  [[nodiscard]] std::size_t num_hosts() const { return pod_of_.size(); }
  [[nodiscard]] std::size_t num_pods() const { return num_pods_; }
  [[nodiscard]] std::size_t num_edges() const { return num_edges_; }

  [[nodiscard]] std::uint32_t pod_of(net::HostId h) const {
    assert(h.v < pod_of_.size());
    return pod_of_[h.v];
  }
  [[nodiscard]] std::uint32_t edge_of(net::HostId h) const {
    assert(h.v < edge_of_.size());
    return edge_of_[h.v];
  }
  [[nodiscard]] bool same_pod(net::HostId a, net::HostId b) const {
    return pod_of(a) == pod_of(b);
  }

  [[nodiscard]] std::vector<net::HostId> hosts_in_pod(std::uint32_t pod) const {
    std::vector<net::HostId> out;
    for (std::uint32_t i = 0; i < pod_of_.size(); ++i) {
      if (pod_of_[i] == pod) out.push_back(net::HostId{i});
    }
    return out;
  }

 private:
  std::vector<std::uint32_t> edge_of_;  // host -> edge-switch ordinal
  std::vector<std::uint32_t> pod_of_;   // host -> pod ordinal
  std::size_t num_edges_ = 0;
  std::size_t num_pods_ = 0;
};

}  // namespace sanfault::membership
