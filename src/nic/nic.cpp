#include "nic/nic.hpp"

#include <cassert>

namespace sanfault::nic {

namespace {
/// Fixed cost to start the host DMA engine for one transfer.
constexpr sim::Duration kDmaEngineStart = 300;
}  // namespace

Nic::Nic(sim::Scheduler& sched, net::Fabric& fabric, net::HostId self,
         NicConfig cfg)
    : sched_(sched),
      fabric_(fabric),
      self_(self),
      cfg_(cfg),
      cpu_(sched),
      host_dma_(sched),
      pool_(cfg.send_buffers, cfg.costs.buffer_bytes) {
  fabric_.attach(self_, [this](net::Packet&& pkt, bool crc_ok) {
    on_fabric_rx(std::move(pkt), crc_ok);
  });

  obs::Registry& reg = obs::Registry::of(sched_);
  const std::string node = "{node=" + std::to_string(self_.v) + "}";
  buf_in_use_ = &reg.histogram("nic.send_buffers_in_use" + node, "buffers");
  reg.add_collector(this, [this, &reg, node] {
    const NicStats& s = stats_;
    reg.counter("nic.host_submits" + node, "packets").set(s.host_submits);
    reg.counter("nic.pio_sends" + node, "packets").set(s.pio_sends);
    reg.counter("nic.dma_sends" + node, "packets").set(s.dma_sends);
    reg.counter("nic.wire_tx" + node, "packets").set(s.wire_tx);
    reg.counter("nic.wire_rx" + node, "packets").set(s.wire_rx);
    reg.counter("nic.bytes_tx" + node, "bytes").set(s.bytes_tx);
    reg.counter("nic.bytes_rx" + node, "bytes").set(s.bytes_rx);
    reg.counter("nic.crc_failures" + node, "packets").set(s.crc_failures);
    reg.counter("nic.host_deliveries" + node, "packets")
        .set(s.host_deliveries);
    reg.counter("nic.injection_stalls" + node, "stalls")
        .set(s.injection_stalls);
    reg.counter("nic.cpu_busy_ns" + node, "ns")
        .set(static_cast<std::uint64_t>(cpu_.busy_time()));
    reg.counter("nic.host_dma_busy_ns" + node, "ns")
        .set(static_cast<std::uint64_t>(host_dma_.busy_time()));
    reg.gauge("nic.send_buffers_free" + node, "buffers")
        .set(static_cast<std::int64_t>(pool_.free_count()));
    reg.gauge("nic.send_waiters" + node, "requests")
        .set(static_cast<std::int64_t>(pool_.waiting()));
  });
}

Nic::~Nic() {
  if (auto* r = obs::Registry::find(sched_)) r->remove_collectors(this);
}

void Nic::host_submit(SendRequest req, std::function<void()> on_accepted) {
  assert(fw_ != nullptr && "firmware must be loaded before traffic");
  assert(req.payload.size() <= cfg_.costs.buffer_bytes &&
         "segmentation is the caller's job (VMMC segments at 4 KB)");
  ++stats_.host_submits;

  // Host library overhead, then block until a send buffer is free.
  sched_.after(cfg_.host.send_overhead, [this, req = std::move(req),
                                         on_accepted = std::move(on_accepted)]() mutable {
    buf_in_use_->record(pool_.in_use());
    if (pool_.free_count() == 0) ++stats_.injection_stalls;
    pool_.acquire([this, req = std::move(req),
                   on_accepted = std::move(on_accepted)]() mutable {
      const std::size_t bytes = req.payload.size();
      auto to_cpu = [this, req = std::move(req),
                     on_accepted = std::move(on_accepted)]() mutable {
        if (on_accepted) on_accepted();
        const sim::Duration cost = fw_->tx_cpu_cost(req);
        cpu_.submit(cost, [this, req = std::move(req)]() mutable {
          fw_->on_host_packet(std::move(req));
        });
      };
      if (bytes <= cfg_.host.pio_threshold) {
        // Programmed I/O: the host CPU stores the message into NIC SRAM.
        ++stats_.pio_sends;
        const auto pio = cfg_.host.pio_base +
                         static_cast<sim::Duration>(
                             cfg_.host.pio_per_byte_ns * static_cast<double>(bytes));
        sched_.after(pio, std::move(to_cpu));
      } else {
        // DMA: host posts a descriptor; the PCI engine moves the data.
        ++stats_.dma_sends;
        sched_.after(cfg_.host.dma_setup, [this, bytes, to_cpu = std::move(to_cpu)]() mutable {
          host_dma_.submit(
              kDmaEngineStart +
                  sim::transfer_time(bytes, cfg_.host.pci_bandwidth_bps),
              std::move(to_cpu));
        });
      }
    });
  });
}

sim::Time Nic::inject(net::Packet pkt) {
  ++stats_.wire_tx;
  stats_.bytes_tx += pkt.payload.size();
  return fabric_.inject(self_, std::move(pkt));
}

void Nic::on_fabric_rx(net::Packet&& pkt, bool crc_ok) {
  ++stats_.wire_rx;
  stats_.bytes_rx += pkt.payload.size();
  // Hardware CRC check: the receive DMA recomputes the CRC on the fly (the
  // fabric hands over its verdict), so this costs no control-processor time.
  if (!crc_ok) ++stats_.crc_failures;
  const sim::Duration cost = fw_->rx_cpu_cost(pkt);
  cpu_.submit(cost, [this, pkt = std::move(pkt), crc_ok]() mutable {
    fw_->on_wire_packet(std::move(pkt), crc_ok);
  });
}

void Nic::deliver_to_host(net::Packet pkt) {
  ++stats_.host_deliveries;
  const std::size_t bytes = pkt.payload.size();
  host_dma_.submit(
      kDmaEngineStart + sim::transfer_time(bytes, cfg_.host.pci_bandwidth_bps),
      [this, pkt = std::move(pkt)]() mutable {
        sched_.after(cfg_.host.rx_notify, [this, pkt = std::move(pkt)]() mutable {
          if (host_rx_) {
            host_rx_(pkt.hdr.user, std::move(pkt.payload), pkt.hdr.src);
          }
        });
      });
}

}  // namespace sanfault::nic
