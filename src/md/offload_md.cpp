#include "md/offload_md.hpp"

#include <algorithm>

#include "cxl/channel.hpp"
#include "mem/address.hpp"
#include "offload/runtime.hpp"

namespace teco::md {

namespace {

using sim::Time;

}  // namespace

MdStepBreakdown simulate_md_step(MdMode mode, const MdWorkload& w,
                                 const offload::Calibration& cal) {
  MdStepBreakdown b;
  const double atoms = static_cast<double>(w.n_atoms);
  b.force_compute = atoms / w.gpu_atoms_per_sec;
  b.integrate = atoms * w.cpu_bytes_per_atom / cal.cpu_stream_bw;
  const std::uint64_t vec_bytes = w.n_atoms * 3 * 4;  // FP32 x,y,z.

  if (mode == MdMode::kExplicitCopy) {
    // Forces copied after the kernel; positions copied after integration;
    // both fully exposed (LAMMPS GPU-package style synchronous exchange).
    const auto& phy = cal.phy;
    b.force_xfer_exposed =
        phy.dma_setup_latency + vec_bytes / phy.dma_bandwidth();
    b.pos_xfer_exposed =
        phy.dma_setup_latency + vec_bytes / phy.dma_bandwidth();
    b.bytes_to_cpu = vec_bytes;
    b.bytes_to_device = vec_bytes;
    return b;
  }

  auto [up, down] = offload::step_channels(offload::RuntimeKind::kTecoCxl, cal);

  // Force lines stream up as the kernel writes them back.
  const std::uint64_t vec_lines =
      (vec_bytes + mem::kLineBytes - 1) / mem::kLineBytes;
  const Time forces_done =
      offload::paced_line_stream(up, 0.0, b.force_compute, vec_lines,
                                 mem::kLineBytes, cal.pacing_chunks);
  b.force_xfer_exposed = std::max(0.0, forces_done - b.force_compute);

  // Integration starts when forces landed; position lines stream down.
  const Time int_start = std::max(b.force_compute, forces_done);
  const std::uint32_t pos_payload =
      mode == MdMode::kTecoReduction
          ? static_cast<std::uint32_t>(mem::kWordsPerLine) * w.pos_dirty_bytes
          : static_cast<std::uint32_t>(mem::kLineBytes);
  Time pos_done =
      offload::paced_line_stream(down, int_start, b.integrate, vec_lines,
                                 pos_payload, cal.pacing_chunks);
  if (mode == MdMode::kTecoReduction) pos_done += cal.dba_latency;
  b.pos_xfer_exposed = std::max(0.0, pos_done - (int_start + b.integrate));

  b.bytes_to_cpu = up.stats().payload_bytes;
  b.bytes_to_device = down.stats().payload_bytes;
  return b;
}

MdGeneralityReport md_generality_report(const MdWorkload& w,
                                        const offload::Calibration& cal) {
  MdGeneralityReport r;
  r.baseline = simulate_md_step(MdMode::kExplicitCopy, w, cal);
  r.cxl = simulate_md_step(MdMode::kTecoCxl, w, cal);
  r.reduction = simulate_md_step(MdMode::kTecoReduction, w, cal);

  const double base = r.baseline.total();
  r.improvement = 1.0 - r.reduction.total() / base;
  const double total_base_vol =
      static_cast<double>(r.cxl.bytes_to_cpu + r.cxl.bytes_to_device);
  const double total_red_vol =
      static_cast<double>(r.reduction.bytes_to_cpu +
                          r.reduction.bytes_to_device);
  r.volume_reduction = 1.0 - total_red_vol / total_base_vol;

  const double gain_cxl = base - r.cxl.total();
  const double gain_total = base - r.reduction.total();
  if (gain_total > 0.0) {
    r.cxl_contribution = gain_cxl / gain_total;
    r.dba_contribution = 1.0 - r.cxl_contribution;
  }
  return r;
}

}  // namespace teco::md
