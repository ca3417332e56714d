// Training-step timelines for every evaluated runtime (Sections II, IV, VI).
//
// Each runtime schedules the five phases of a ZeRO-Offload training step
// (Fig. 1) against the interconnect model and reports how much transfer time
// is exposed on the critical path — the quantity every table and figure in
// the paper's evaluation is built from.
//
//  kZeroOffload     — the baseline: explicit DMA copies. Gradients flush
//                     from a GPU-side buffer during backward; CPU Adam runs
//                     after ALL gradients arrive; parameters stage through a
//                     double buffer after the optimizer and the transfer is
//                     largely exposed (Section II-A).
//  kZeroOffloadDpu  — baseline + one-step delayed parameter update: the
//                     parameter transfer overlaps the NEXT step's GPU
//                     compute (risks convergence; needs high arithmetic
//                     intensity).
//  kCxlInvalidation — TECO hardware with stock invalidation MESI: updates
//                     send invalidations; data crosses the link on demand
//                     reads, serialized onto the consumer's critical path
//                     (the +56.6 % motivation of Section IV-A2).
//  kTecoCxl         — the update-protocol extension: cache-line-grained
//                     pushes stream during the producer's compute window.
//  kTecoReduction   — kTecoCxl + dirty-byte aggregation on the parameter
//                     stream (half the volume at dirty_bytes = 2).
//
// The runtimes differ only in their two transfer phases, so each phase is
// written once, keyed by the runtime: grad_phase() (backward -> CPU) and
// param_phase() (Adam -> device), over the channel pair step_channels()
// builds. simulate_step() composes them into the single steady-state step;
// simulate_pipeline() and simulate_activation_step() reuse the same phases.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>

#include "cxl/channel.hpp"
#include "dl/model_zoo.hpp"
#include "obs/metrics.hpp"
#include "offload/calibration.hpp"
#include "offload/step_model.hpp"
#include "sim/time.hpp"

namespace teco::offload {

enum class RuntimeKind {
  kZeroOffload,
  kZeroOffloadDpu,
  kCxlInvalidation,
  kTecoCxl,
  kTecoReduction,
};

std::string_view to_string(RuntimeKind k);

struct StepBreakdown {
  // The five Fig. 12 components.
  sim::Time forward_backward = 0.0;
  sim::Time grad_transfer_exposed = 0.0;
  sim::Time grad_optimizer = 0.0;   ///< Gradient clipping on CPU.
  sim::Time param_optimizer = 0.0;  ///< Adam sweep on CPU.
  sim::Time param_transfer_exposed = 0.0;

  // Wire accounting (payload bytes, per direction).
  std::uint64_t bytes_to_cpu = 0;
  std::uint64_t bytes_to_device = 0;
  std::uint64_t packets = 0;

  sim::Time total() const {
    return forward_backward + grad_transfer_exposed + grad_optimizer +
           param_optimizer + param_transfer_exposed;
  }
  sim::Time comm_exposed() const {
    return grad_transfer_exposed + param_transfer_exposed;
  }
  double comm_fraction() const {
    const sim::Time t = total();
    return t > 0.0 ? comm_exposed() / t : 0.0;
  }
};

struct StepOptions {
  std::uint8_t dirty_bytes = 2;  ///< For kTecoReduction.
  /// When set, the step's wire totals are also recorded as
  /// offload.{up,down}.{payload_bytes,packets} counters (accumulating
  /// across steps; read per-step deltas via a StepPublisher).
  obs::MetricsRegistry* metrics = nullptr;
};

/// Simulate one steady-state training step.
StepBreakdown simulate_step(RuntimeKind kind, const dl::ModelConfig& model,
                            std::uint32_t batch, const Calibration& cal,
                            const StepOptions& opts = {});

/// Stream `total_lines` cache-line packets, produced uniformly across
/// [t_start, t_start + window], through `ch` in `chunks` paced bursts.
/// Returns the delivery time of the final line. The closed-form channel
/// primitive under both TECO transfer phases and the MD generality model.
sim::Time paced_line_stream(cxl::Channel& ch, sim::Time t_start,
                            sim::Time window, std::uint64_t total_lines,
                            std::uint64_t line_payload_bytes,
                            std::size_t chunks);

/// The (up, down) channel pair a runtime's transfers ride: DMA engines for
/// the ZeRO-Offload baselines, the CXL link otherwise. Both take the
/// calibrated pending-queue depth.
std::pair<cxl::Channel, cxl::Channel> step_channels(RuntimeKind kind,
                                                    const Calibration& cal);

/// Gradient phase: backward starts at `bwd_start` and runs for
/// `in.backward`. ZeRO flushes its GPU gradient buffer by DMA whenever it
/// fills; TECO streams FlushData lines as backward writes them back;
/// invalidation demand-fetches every line after backward. Returns when the
/// last gradient byte reaches the CPU.
sim::Time grad_phase(RuntimeKind kind, const StepInputs& in,
                     const Calibration& cal, cxl::Channel& up,
                     sim::Time bwd_start);

/// Parameter phase: the Adam sweep starts at `adam_start` and runs for
/// `in.adam`. ZeRO stages through the pinned double buffer after the
/// optimizer; TECO streams lines as Adam writes them (kTecoReduction trims
/// the payload to `dirty_bytes` per word and pays `cal.dba_latency`);
/// invalidation sends invalidations during Adam and the device then
/// demand-fetches every line. Returns when the last parameter byte lands.
sim::Time param_phase(RuntimeKind kind, const StepInputs& in,
                      const Calibration& cal, cxl::Channel& down,
                      sim::Time adam_start, std::uint8_t dirty_bytes);

}  // namespace teco::offload
