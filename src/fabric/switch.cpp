#include "fabric/switch.hpp"

#include <memory>
#include <stdexcept>
#include <string>

namespace teco::fabric {

namespace {
sim::Bandwidth port_bandwidth(const FabricConfig& cfg) {
  return cfg.port_gbps * sim::kGBps * cfg.node_phy.cxl_efficiency;
}
}  // namespace

CxlSwitch::CxlSwitch(const FabricConfig& cfg)
    : to_pool_ch_("nodes->pool", port_bandwidth(cfg), cfg.hop_latency),
      from_pool_ch_("pool->nodes", port_bandwidth(cfg), cfg.hop_latency),
      node_stats_(cfg.nodes),
      ports_(cfg.nodes) {}

void CxlSwitch::attach(std::uint32_t node, cxl::Link& link) {
  if (node >= ports_.size()) {
    throw std::invalid_argument("CxlSwitch::attach: node " +
                                std::to_string(node) + " out of range");
  }
  if (ports_[node] != nullptr) {
    throw std::invalid_argument("CxlSwitch::attach: node " +
                                std::to_string(node) + " already attached");
  }
  ports_[node] = std::make_unique<Port>(*this, node);
  link.set_forwarder(ports_[node].get());
}

const PortStats& CxlSwitch::to_pool() const { return port_stats_[0]; }

const PortStats& CxlSwitch::from_pool() const { return port_stats_[1]; }

const NodePortStats& CxlSwitch::node_stats(std::uint32_t node) const {
  return node_stats_.at(node);
}

sim::Time CxlSwitch::drain(cxl::Direction dir) const {
  return port(dir).drain_time();
}

void CxlSwitch::set_metrics(obs::MetricsRegistry* reg) {
  if (reg == nullptr) {
    for (int i = 0; i < 2; ++i) {
      m_pkts_[i] = m_bytes_[i] = m_queue_us_[i] = nullptr;
    }
    return;
  }
  const char* names[2] = {"to_pool", "from_pool"};
  for (int i = 0; i < 2; ++i) {
    const std::string p = std::string("fabric.switch.") + names[i] + '.';
    m_pkts_[i] = &reg->counter(p + "pkts");
    m_bytes_[i] = &reg->counter(p + "bytes");
    m_queue_us_[i] = &reg->counter(p + "queue_us");
  }
}

cxl::Delivery CxlSwitch::forward(std::uint32_t node, cxl::Direction dir,
                                 const cxl::Packet& pkt, std::uint64_t n,
                                 const cxl::Delivery& local) {
  const int idx = dir == cxl::Direction::kDeviceToCpu ? 0 : 1;
  cxl::Channel& ch = idx == 0 ? to_pool_ch_ : from_pool_ch_;

  // FIFO arrival-order arbitration: the packet enters the shared port when
  // its private wire finishes, never before a previously arrived packet
  // (the clamp also keeps the channel's nondecreasing-ready contract).
  sim::Time t_in = local.finished;
  if (t_in < last_ready_[idx]) t_in = last_ready_[idx];
  last_ready_[idx] = t_in;

  const cxl::Delivery hop =
      n == 1 ? ch.submit(t_in, pkt) : ch.submit_stream(t_in, pkt, n);

  const std::uint64_t bytes = pkt.wire_bytes() * n;
  const sim::Time service = static_cast<double>(bytes) / ch.bandwidth();
  sim::Time waited = hop.finished - service - t_in;
  if (waited < 0.0) waited = 0.0;  // floating-point guard

  PortStats& ps = port_stats_[idx];
  ps.packets += n;
  ps.wire_bytes += bytes;
  ps.queue_time += waited;
  NodePortStats& ns = node_stats_[node];
  if (idx == 0) {
    ns.to_pool_packets += n;
    ns.to_pool_bytes += bytes;
  } else {
    ns.from_pool_packets += n;
    ns.from_pool_bytes += bytes;
  }
  if (m_pkts_[idx] != nullptr) {
    m_pkts_[idx]->add(static_cast<double>(n));
    m_bytes_[idx]->add(static_cast<double>(bytes));
    m_queue_us_[idx]->add(waited * 1e6);
  }

  // End-to-end delivery: producer admission is the private link's; finish
  // and arrival are the shared hop's.
  return cxl::Delivery{local.accepted, hop.finished, hop.delivered};
}

}  // namespace teco::fabric
