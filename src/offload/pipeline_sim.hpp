// Multi-step pipeline simulation across training-step boundaries.
//
// simulate_step() assumes steady state; this simulator runs K consecutive
// steps with PERSISTENT link channels and explicit cross-step
// dependencies, so pipelined effects are modeled exactly:
//
//  * ZeRO-Offload: forward of step i+1 waits for step i's parameter
//    transfer (the exposure simulate_step charges within the step);
//  * ZeRO-Offload+DPU: step i+1 computes with one-step-delayed parameters,
//    so its forward only waits for step i-1's transfer — the transfer of
//    step i overlaps step i+1's compute, sharing the downlink with nothing
//    (gradients ride the uplink);
//  * TECO runtimes: fences close each producer window as in the paper.
//
// Each step's transfers are the same grad_phase()/param_phase() calls
// simulate_step() makes (runtime.hpp), on one step_channels() pair kept
// across steps; only the cross-step dependencies live here. The tests pin
// the first pipelined step to simulate_step() and the steady state to
// within a few percent of it.
#pragma once

#include <cstdint>
#include <vector>

#include "dl/model_zoo.hpp"
#include "offload/calibration.hpp"
#include "offload/runtime.hpp"

namespace teco::offload {

struct PipelineResult {
  std::vector<sim::Time> step_durations;  ///< Wall time between step ends.
  sim::Time total = 0.0;
  sim::Time steady_step = 0.0;  ///< Duration of the final step.
  sim::Time first_step = 0.0;
};

/// Simulate `steps` consecutive steps. kCxlInvalidation is supported by
/// falling back to per-step composition (its transfers are demand-driven
/// and never pipeline across steps).
PipelineResult simulate_pipeline(RuntimeKind kind,
                                 const dl::ModelConfig& model,
                                 std::uint32_t batch, std::size_t steps,
                                 const Calibration& cal,
                                 const StepOptions& opts = {});

}  // namespace teco::offload
