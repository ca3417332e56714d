#include "offload/pipeline_sim.hpp"

#include <algorithm>

namespace teco::offload {

namespace {
using sim::Time;
}  // namespace

PipelineResult simulate_pipeline(RuntimeKind kind,
                                 const dl::ModelConfig& model,
                                 std::uint32_t batch, std::size_t steps,
                                 const Calibration& cal,
                                 const StepOptions& opts) {
  PipelineResult out;
  if (steps == 0) return out;

  if (kind == RuntimeKind::kCxlInvalidation) {
    // Demand-driven transfers serialize inside each step; nothing
    // pipelines across boundaries.
    const Time per = simulate_step(kind, model, batch, cal, opts).total();
    out.step_durations.assign(steps, per);
    out.total = per * static_cast<double>(steps);
    out.first_step = per;
    out.steady_step = per;
    return out;
  }

  const StepInputs in = compute_step_inputs(model, batch, cal);
  const bool dpu = kind == RuntimeKind::kZeroOffloadDpu;
  auto [up, down] = step_channels(kind, cal);

  std::vector<Time> params_delivered(steps, 0.0);
  Time gpu_free = 0.0, cpu_free = 0.0, prev_end = 0.0;
  out.step_durations.reserve(steps);

  for (std::size_t i = 0; i < steps; ++i) {
    // Forward may only use parameters that have landed on the device.
    // DPU: the optimizer remains synchronous with the training loop
    // (optimizer.step() blocks), but the TRANSFER of step i overlaps step
    // i+1's compute — the device only needs step i-1's delivery.
    Time fwd_start = gpu_free;
    if (dpu) {
      fwd_start = std::max(fwd_start, cpu_free);
      if (i >= 2) fwd_start = std::max(fwd_start, params_delivered[i - 2]);
    } else if (i >= 1) {
      fwd_start = std::max(fwd_start, params_delivered[i - 1]);
    }
    const Time bwd_start = fwd_start + in.forward;
    const Time bwd_end = bwd_start + in.backward;
    gpu_free = bwd_end;

    // CPU phases start once every gradient landed and the CPU is free.
    const Time grads_done = grad_phase(kind, in, cal, up, bwd_start);
    const Time cpu_start = std::max({bwd_end, grads_done, cpu_free});
    const Time adam_start = cpu_start + in.grad_clip;
    const Time opt_end = adam_start + in.adam;
    cpu_free = opt_end;

    params_delivered[i] =
        param_phase(kind, in, cal, down, adam_start, opts.dirty_bytes);

    // Step boundary: when this step's state is committed. Under DPU the
    // transfer spills into the next step by design.
    const Time end = dpu ? opt_end : std::max(opt_end, params_delivered[i]);
    out.step_durations.push_back(end - prev_end);
    prev_end = end;
  }

  out.total = std::max(prev_end, params_delivered.back());
  out.first_step = out.step_durations.front();
  out.steady_step = out.step_durations.back();
  return out;
}

}  // namespace teco::offload
