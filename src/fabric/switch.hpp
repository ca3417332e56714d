// fabric::CxlSwitch — the shared choke point of the pooled fabric.
//
// N nodes' private links attach to switch ports; everything they carry is
// then forwarded onto two shared pool ports (one per direction), each a
// cxl::Channel with the configured port bandwidth and the fixed
// port-to-port hop latency. Arbitration is FIFO in wire-arrival order:
// packets enter the shared port in the order they finish on their private
// links, and the port's serializer imposes the queueing — the switch
// measures it (per-port waited time) so contention is observable, not just
// implied.
//
// Modeling note: the forwarder hook appends the shared hop *after* the
// private link in both directions. Physically a pool->node packet crosses
// the shared port first; for closed-form FIFO serializers the two hop
// orders compose to the same end-to-end timing, so one hook suffices.
// Ingress buffering at the switch is unbounded: backpressure to producers
// is the private link's 128-entry queue, and shared-port contention shows
// up as queue_time rather than producer stalls.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cxl/channel.hpp"
#include "cxl/link.hpp"
#include "fabric/fabric.hpp"
#include "obs/metrics.hpp"

namespace teco::fabric {

/// One shared pool port's accounting.
struct PortStats {
  std::uint64_t packets = 0;
  std::uint64_t wire_bytes = 0;
  /// Total time packets waited at the port for the shared wire (arrival to
  /// service start) — the measurable queueing contention produces.
  sim::Time queue_time = 0.0;
};

/// Per-attached-node forwarding totals (the arbitration-fairness test
/// compares these across saturating producers).
struct NodePortStats {
  std::uint64_t to_pool_packets = 0;
  std::uint64_t to_pool_bytes = 0;
  std::uint64_t from_pool_packets = 0;
  std::uint64_t from_pool_bytes = 0;
};

class CxlSwitch {
 public:
  explicit CxlSwitch(const FabricConfig& cfg);

  CxlSwitch(const CxlSwitch&) = delete;
  CxlSwitch& operator=(const CxlSwitch&) = delete;

  /// Attach a node's link to its switch port: every subsequent send on the
  /// link is forwarded through the shared pool ports. The switch must
  /// outlive the link (or the link must detach with set_forwarder(nullptr)
  /// first). `node` must be < cfg.nodes and attached at most once.
  void attach(std::uint32_t node, cxl::Link& link);

  /// Shared-port accounting. to_pool = node->pool (the up/S2M side of every
  /// attached link), from_pool = pool->node (down/M2S).
  const PortStats& to_pool() const;
  const PortStats& from_pool() const;
  const NodePortStats& node_stats(std::uint32_t node) const;

  /// Drain time of the shared port serving `dir` traffic.
  sim::Time drain(cxl::Direction dir) const;

  const cxl::Channel& port(cxl::Direction dir) const {
    return dir == cxl::Direction::kDeviceToCpu ? to_pool_ch_ : from_pool_ch_;
  }

  /// Resolve fabric.switch.* handles; nullptr detaches.
  void set_metrics(obs::MetricsRegistry* reg);

 private:
  /// A node's attachment point; relays into the owning switch.
  class Port final : public cxl::LinkForwarder {
   public:
    Port(CxlSwitch& sw, std::uint32_t node) : sw_(sw), node_(node) {}
    cxl::Delivery forward(cxl::Direction dir, const cxl::Packet& pkt,
                          std::uint64_t n, const cxl::Delivery& local) override {
      return sw_.forward(node_, dir, pkt, n, local);
    }
    sim::Time forward_drain(cxl::Direction dir) const override {
      return sw_.drain(dir);
    }

   private:
    CxlSwitch& sw_;
    std::uint32_t node_;
  };

  cxl::Delivery forward(std::uint32_t node, cxl::Direction dir,
                        const cxl::Packet& pkt, std::uint64_t n,
                        const cxl::Delivery& local);

  cxl::Channel to_pool_ch_;
  cxl::Channel from_pool_ch_;
  /// Last shared-port entry time per direction ([0]=to_pool, [1]=from_pool);
  /// clamping to it keeps the channel's nondecreasing-ready contract across
  /// N producers and realizes FIFO arrival-order arbitration.
  sim::Time last_ready_[2] = {0.0, 0.0};
  PortStats port_stats_[2];
  std::vector<NodePortStats> node_stats_;
  std::vector<std::unique_ptr<Port>> ports_;
  obs::Counter* m_pkts_[2] = {nullptr, nullptr};
  obs::Counter* m_bytes_[2] = {nullptr, nullptr};
  obs::Counter* m_queue_us_[2] = {nullptr, nullptr};
};

}  // namespace teco::fabric
