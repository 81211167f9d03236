// Message-oriented request/reply convenience layer over VMMC deposits.
//
// Raw VMMC is a remote-write primitive: the sender picks the offset, the
// receiver sees a deposit notification. Services want discrete messages with
// an inbox. MsgEndpoint provides that while staying honest to VMMC
// semantics:
//
//  * each MsgEndpoint exports ONE well-known ring buffer (export id 1 — it
//    must be the first export created on its Endpoint), statically
//    partitioned per sender host. Senders own their partition, so concurrent
//    peers never collide and no receiver-side allocation protocol is needed;
//  * post() writes the message sequentially into the sender's partition
//    (wrapping at the end) and rides the user tag through unchanged;
//  * a pump coroutine copies each complete deposit out of the ring into an
//    owned Msg *at notification time*, so later traffic reusing ring space
//    cannot alienate a message already notified.
//
// Delivery contract: messages from one peer arrive in order (VMMC
// point-to-point ordering over the reliable firmware). Across a
// permanent-path failover the firmware re-sends delivered-but-unacked
// packets under a new generation, so a message can be delivered MORE THAN
// ONCE — receivers needing exactly-once must dedup by tag/request id
// (src/kv does). This is the paper's at-least-once contract surfaced one
// layer up.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "sim/awaitables.hpp"
#include "sim/process.hpp"
#include "vmmc/endpoint.hpp"

namespace sanfault::vmmc {

/// A complete message copied out of the ring.
struct Msg {
  sim::Time at = 0;       // notification time at the receiver
  net::HostId src;
  std::uint64_t tag = 0;  // sender-chosen, rides the deposit tag
  std::vector<std::uint8_t> bytes;
};

struct MsgEndpointStats {
  std::uint64_t msgs_tx = 0;
  std::uint64_t msgs_rx = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t bytes_rx = 0;
  std::uint64_t connects = 0;
};

class MsgEndpoint {
 public:
  /// The ring is always the first export of the endpoint, so peers can
  /// import it without an out-of-band id exchange.
  static constexpr ExportId kRingExport = 1;

  /// `per_peer_bytes` is one sender's ring partition; a message must fit in
  /// it. `max_peers` bounds the partition count (indexed by sender HostId).
  MsgEndpoint(sim::Scheduler& sched, Endpoint& ep,
              std::size_t per_peer_bytes = 64 * 1024,
              std::size_t max_peers = 16);
  ~MsgEndpoint();

  /// Import `remote`'s ring (one control round trip). Must complete before
  /// the first post() to that host. Returns false if the remote has no
  /// MsgEndpoint ring.
  sim::Task<bool> connect(net::HostId remote);
  [[nodiscard]] bool connected(net::HostId remote) const {
    return peers_.contains(remote);
  }

  /// Post one message to a connected remote; resumes when the local NIC has
  /// accepted every segment (source buffer reusable), not when delivered.
  sim::Task<void> post(net::HostId remote, std::vector<std::uint8_t> bytes,
                       std::uint64_t tag = 0);

  /// Inbound messages from all peers, in per-peer order.
  [[nodiscard]] sim::Channel<Msg>& inbox() { return inbox_; }

  /// Optional pre-inbox intercept. The pump offers every complete message to
  /// the tap first; returning true consumes it (it never reaches the inbox).
  /// Lets a sideband protocol (membership gossip) share a service's ring
  /// without the service's dispatch loop having to know its message types.
  using Tap = std::function<bool(const Msg&)>;
  void set_tap(Tap tap) { tap_ = std::move(tap); }
  /// Current tap, for chaining: a second sideband protocol captures the
  /// installed tap and installs a composite that tries it first.
  [[nodiscard]] const Tap& tap() const { return tap_; }

  [[nodiscard]] net::HostId host() const { return ep_.host(); }
  [[nodiscard]] const MsgEndpointStats& stats() const { return stats_; }

 private:
  struct Peer {
    Endpoint::Import imp;
    std::size_t next_off = 0;  // within this sender's partition
  };

  sim::Process pump();

  sim::Scheduler& sched_;
  Endpoint& ep_;
  std::size_t per_peer_;
  std::unordered_map<net::HostId, Peer> peers_;
  sim::Channel<Msg> inbox_;
  Tap tap_;
  MsgEndpointStats stats_;
};

/// A cluster's message plane: one Endpoint and one MsgEndpoint (with a
/// `ring_per_peer`-byte partition for every sender) on each of `nics`,
/// filling the empty `eps` and `msgs` in NIC order. Endpoint i then
/// connects to every other endpoint when i < full_rows, and to the first
/// `full_rows` only otherwise. Connects run one at a time, in
/// row-major order; `sched` is stepped until the last completes.
void build_msg_mesh(sim::Scheduler& sched,
                    std::span<const std::unique_ptr<nic::Nic>> nics,
                    std::size_t ring_per_peer, std::size_t full_rows,
                    std::vector<std::unique_ptr<Endpoint>>& eps,
                    std::vector<std::unique_ptr<MsgEndpoint>>& msgs);

}  // namespace sanfault::vmmc
