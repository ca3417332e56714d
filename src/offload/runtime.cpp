#include "offload/runtime.hpp"

#include <algorithm>
#include <cmath>

#include "cxl/channel.hpp"
#include "cxl/packet.hpp"
#include "mem/address.hpp"

namespace teco::offload {

namespace {

using cxl::Channel;
using cxl::Packet;
using sim::Time;

}  // namespace

Time paced_line_stream(Channel& ch, Time t_start, Time window,
                       std::uint64_t total_lines,
                       std::uint64_t line_payload_bytes, std::size_t chunks) {
  if (total_lines == 0) return t_start;
  const Packet line_pkt = cxl::data_packet(
      cxl::MessageType::kFlushData, 0, line_payload_bytes);
  Time last = t_start;
  std::uint64_t sent = 0;
  for (std::size_t i = 0; i < chunks; ++i) {
    const std::uint64_t upto = total_lines * (i + 1) / chunks;
    const std::uint64_t n = upto - sent;
    sent = upto;
    if (n == 0) continue;
    const Time ready =
        t_start + window * static_cast<double>(i + 1) /
                      static_cast<double>(chunks);
    last = ch.submit_stream(ready, line_pkt, n).delivered;
  }
  return last;
}

namespace {

/// Fill the breakdown's wire totals from the channel stats and mirror them
/// onto the registry when one is attached.
void harvest_wire(StepBreakdown& b, const Channel& up, const Channel& down,
                  obs::MetricsRegistry* reg) {
  b.bytes_to_cpu = up.stats().payload_bytes;
  b.bytes_to_device = down.stats().payload_bytes;
  b.packets = up.stats().packets + down.stats().packets;
  if (reg != nullptr) {
    reg->counter("offload.up.payload_bytes")
        .add(static_cast<double>(b.bytes_to_cpu));
    reg->counter("offload.down.payload_bytes")
        .add(static_cast<double>(b.bytes_to_device));
    reg->counter("offload.up.packets")
        .add(static_cast<double>(up.stats().packets));
    reg->counter("offload.down.packets")
        .add(static_cast<double>(down.stats().packets));
  }
}

/// Bulk demand fetch under the invalidation protocol. Unlike the update
/// protocol's pushes, demand reads are request/response: at most the
/// pending-queue depth of line fetches is in flight, so throughput is
/// concurrency-limited to queue * 64 B / RTT — usually well below the link
/// bandwidth. This is the physics behind the +56.6 % motivation number.
Time demand_fetch(const Calibration& cal, Channel& data_ch, Time t_start,
                  std::uint64_t total_lines) {
  if (total_lines == 0) return t_start;
  const Time rtt = 2.0 * cal.phy.packet_latency;
  const double concurrency_bw =
      static_cast<double>(cal.cxl_queue_entries) * mem::kLineBytes / rtt;
  const double eff_bw = std::min(cal.phy.cxl_bandwidth(), concurrency_bw);
  // Account wire volume through the channel, but pace completion by the
  // effective demand-read throughput.
  const Packet line_pkt =
      cxl::data_packet(cxl::MessageType::kData, 0, mem::kLineBytes);
  data_ch.submit_stream(t_start, line_pkt, total_lines);
  return t_start + rtt +
         static_cast<double>(total_lines) * mem::kLineBytes / eff_bw;
}

bool uses_dma(RuntimeKind kind) {
  return kind == RuntimeKind::kZeroOffload ||
         kind == RuntimeKind::kZeroOffloadDpu;
}

}  // namespace

std::string_view to_string(RuntimeKind k) {
  switch (k) {
    case RuntimeKind::kZeroOffload: return "ZeRO-Offload";
    case RuntimeKind::kZeroOffloadDpu: return "ZeRO-Offload+DPU";
    case RuntimeKind::kCxlInvalidation: return "CXL-Invalidation";
    case RuntimeKind::kTecoCxl: return "TECO-CXL";
    case RuntimeKind::kTecoReduction: return "TECO-Reduction";
  }
  __builtin_unreachable();
}

std::pair<Channel, Channel> step_channels(RuntimeKind kind,
                                          const Calibration& cal) {
  const auto& phy = cal.phy;
  const bool dma = uses_dma(kind);
  const sim::Bandwidth bw = dma ? phy.dma_bandwidth() : phy.cxl_bandwidth();
  const Time latency = dma ? phy.dma_setup_latency : phy.packet_latency;
  return {Channel(dma ? "dma-up" : "cxl-up", bw, latency,
                  cal.cxl_queue_entries),
          Channel(dma ? "dma-down" : "cxl-down", bw, latency,
                  cal.cxl_queue_entries)};
}

Time grad_phase(RuntimeKind kind, const StepInputs& in, const Calibration& cal,
                Channel& up, Time bwd_start) {
  const Time bwd_end = bwd_start + in.backward;
  if (uses_dma(kind)) {
    // The GPU gradient buffer flushes whenever it fills during backward.
    const std::uint64_t n_flushes =
        (in.grad_bytes + in.grad_buffer_bytes - 1) / in.grad_buffer_bytes;
    Time done = bwd_end;
    std::uint64_t sent = 0;
    for (std::uint64_t i = 0; i < n_flushes; ++i) {
      const std::uint64_t upto =
          std::min(in.grad_bytes, (i + 1) * in.grad_buffer_bytes);
      const Time ready =
          bwd_start + in.backward * static_cast<double>(upto) /
                          static_cast<double>(in.grad_bytes);
      done = up.submit(ready, cxl::data_packet(cxl::MessageType::kData, 0,
                                               upto - sent))
                 .delivered;
      sent = upto;
    }
    return done;
  }
  if (kind == RuntimeKind::kCxlInvalidation) {
    // Device gradient writes invalidated the CPU copies; before the CPU can
    // clip, it demand-fetches every gradient line — fully exposed.
    return demand_fetch(cal, up, bwd_end, in.grad_lines);
  }
  // Gradient lines stream up the link as the GPU writes them back during
  // backward (Fig. 6 step 3).
  return paced_line_stream(up, bwd_start, in.backward, in.grad_lines,
                           mem::kLineBytes, cal.pacing_chunks);
}

Time param_phase(RuntimeKind kind, const StepInputs& in,
                 const Calibration& cal, Channel& down, Time adam_start,
                 std::uint8_t dirty_bytes) {
  const Time opt_end = adam_start + in.adam;
  if (uses_dma(kind)) {
    // Double-buffer staging AFTER the optimizer. The pinned-buffer fill is
    // fast; the DMA transfer is what's exposed.
    const std::size_t chunks =
        std::max<std::size_t>(1, cal.param_staging_chunks);
    const double chunk_bytes =
        static_cast<double>(in.param_bytes) / static_cast<double>(chunks);
    const Time fill_per_chunk = chunk_bytes / cal.pinned_copy_bw;
    const Packet pkt = cxl::data_packet(
        cxl::MessageType::kData, 0, static_cast<std::uint64_t>(chunk_bytes));
    Time done = opt_end;
    for (std::size_t j = 0; j < chunks; ++j) {
      done = down.submit(opt_end + fill_per_chunk * static_cast<double>(j + 1),
                         pkt)
                 .delivered;
    }
    return done;
  }
  if (kind == RuntimeKind::kCxlInvalidation) {
    // Invalidations go out during the Adam sweep (control flits; cheap).
    // The next forward then stalls on demand reads of every parameter line
    // — the on-demand transfer the paper measures at +56.6 % training time.
    down.submit_stream(
        adam_start, cxl::control_packet(cxl::MessageType::kInvalidate, 0),
        in.param_lines);
    return demand_fetch(cal, down, opt_end, in.param_lines);
  }
  // Parameter lines stream down as the vectorized Adam sweep writes them
  // back (Fig. 6 steps 1-2); DBA trims each line's payload and adds its
  // pipelined Agg/Disagg stages.
  const bool dba = kind == RuntimeKind::kTecoReduction;
  const std::uint64_t payload = dba && dirty_bytes < 4
                                    ? mem::kWordsPerLine * dirty_bytes
                                    : mem::kLineBytes;
  const Time done = paced_line_stream(down, adam_start, in.adam,
                                      in.param_lines, payload,
                                      cal.pacing_chunks);
  return dba ? done + cal.dba_latency : done;
}

StepBreakdown simulate_step(RuntimeKind kind, const dl::ModelConfig& model,
                            std::uint32_t batch, const Calibration& cal,
                            const StepOptions& opts) {
  const StepInputs in = compute_step_inputs(model, batch, cal);
  auto [up, down] = step_channels(kind, cal);

  StepBreakdown b;
  b.forward_backward = in.forward + in.backward;
  const Time bwd_end = b.forward_backward;

  // CXLFENCE() at loss.backward() completion: the CPU clips only once every
  // gradient has landed (Section II-A).
  const Time cpu_start =
      std::max(bwd_end, grad_phase(kind, in, cal, up, in.forward));
  b.grad_transfer_exposed = cpu_start - bwd_end;

  b.grad_optimizer = in.grad_clip;
  b.param_optimizer = in.adam;
  const Time adam_start = cpu_start + in.grad_clip;
  const Time opt_end = adam_start + in.adam;

  // CXLFENCE() at the end of optimizer.step(). DPU instead overlaps the
  // transfer with the NEXT step's forward+backward (steady state): only
  // the overhang is exposed.
  Time exposed =
      param_phase(kind, in, cal, down, adam_start, opts.dirty_bytes) -
      opt_end;
  if (kind == RuntimeKind::kZeroOffloadDpu) exposed -= b.forward_backward;
  b.param_transfer_exposed = std::max(0.0, exposed);

  harvest_wire(b, up, down, opts.metrics);
  return b;
}

}  // namespace teco::offload
