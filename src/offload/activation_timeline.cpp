#include "offload/activation_timeline.hpp"

#include <algorithm>
#include <utility>

#include "cxl/channel.hpp"
#include "cxl/packet.hpp"
#include "mem/address.hpp"
#include "sim/event_queue.hpp"

namespace teco::offload {

ActivationStepReport simulate_activation_step(
    const dl::ModelConfig& m, std::uint32_t batch, const Calibration& cal,
    const ActivationTimelineOptions& opts) {
  ActivationStepReport r;
  const StepInputs in = compute_step_inputs(m, batch, cal);
  r.profile = tier::profile_step(m, batch, cal);

  // The corrected check: would the all-HBM placement OOM at this budget?
  r.memory = check_gpu_memory(m, batch, opts.hbm_bytes,
                              /*checkpointing=*/false);
  r.hbm_oom = !r.memory.fits;

  // The planner manages the profiled tensors (FP16 weights + activations);
  // the gradient buffer is a fixed resident carved out of the budget.
  tier::PlannerConfig pcfg;
  pcfg.policy = opts.policy;
  const std::uint64_t reserved = in.grad_buffer_bytes;
  pcfg.hbm_bytes = opts.hbm_bytes > reserved ? opts.hbm_bytes - reserved : 0;
  pcfg.giant_cache_bytes = opts.giant_cache_bytes;
  pcfg.prefetch_depth = opts.prefetch_depth;
  const tier::PlacementPlanner planner(pcfg, cal);
  r.plan = planner.plan(r.profile);

  auto channels = step_channels(RuntimeKind::kTecoReduction, cal);
  cxl::Channel& up = channels.first;
  cxl::Channel& down = channels.second;
  sim::EventQueue q;

  // Gradient lines stream up the link as backward retires each layer
  // (Fig. 6 step 3) — one burst per backward slot, contending with the
  // activation evictions on the same channel.
  const std::uint32_t layers = std::max(1u, m.n_layers);
  const cxl::Packet grad_pkt =
      cxl::data_packet(cxl::MessageType::kFlushData, 0, mem::kLineBytes);
  sim::Time grads_wire_done = 0.0;
  std::uint64_t grad_sent = 0;
  std::uint32_t bwd_retired = 0;
  tier::MigrationScheduler sched(r.profile, r.plan, cal, opts.observer);
  sched.set_metrics(opts.metrics);
  sched.set_trace(opts.spans);
  sched.set_causal(opts.causal);
  sched.set_slot_hook([&](bool backward, std::uint32_t /*layer*/,
                          sim::Time /*start*/, sim::Time end) {
    if (!backward) return;
    ++bwd_retired;
    const std::uint64_t upto = in.grad_lines * bwd_retired / layers;
    const std::uint64_t n = upto - grad_sent;
    grad_sent = upto;
    if (n == 0) return;
    grads_wire_done = up.submit_stream(end, grad_pkt, n).delivered;
  });
  r.sched = sched.run(q, up, down);

  r.forward_backward = r.sched.backward_end;
  const sim::Time grads_done = std::max(r.forward_backward, grads_wire_done);
  r.grad_transfer_exposed = grads_done - r.forward_backward;

  r.grad_optimizer = in.grad_clip;
  r.param_optimizer = in.adam;
  const sim::Time adam_start = grads_done + in.grad_clip;
  const sim::Time opt_end = adam_start + in.adam;

  // Parameter lines stream down as the Adam sweep writes them back, with
  // dirty-byte aggregation trimming the payload (Fig. 6 steps 1-2).
  const sim::Time params_done =
      param_phase(RuntimeKind::kTecoReduction, in, cal, down, adam_start,
                  opts.dirty_bytes);
  r.param_transfer_exposed = std::max(0.0, params_done - opt_end);

  r.step_total = r.forward_backward + r.grad_transfer_exposed +
                 r.grad_optimizer + r.param_optimizer +
                 r.param_transfer_exposed;
  r.bytes_to_cpu = up.stats().payload_bytes;
  r.bytes_to_device = down.stats().payload_bytes;

  if (opts.causal != nullptr) {
    // Splice the serialized phases onto the scheduler's per-slot chain:
    // the exposed grad/param windows are the backward and optimizer
    // CXLFENCE drains, the clip+Adam sweeps are CPU compute. The chain
    // then covers [0, step_total] gaplessly, so the extracted path's
    // category sums reconcile with the step end-to-end (hard-checked).
    std::uint32_t tail = r.sched.causal_tail;
    const auto note = [&](obs::causal::Category cat, sim::Time from,
                          sim::Time to) {
      if (to > from) tail = opts.causal->add(cat, to, tail, from);
    };
    note(obs::causal::Category::kFenceDrain, r.forward_backward, grads_done);
    note(obs::causal::Category::kCompute, grads_done, adam_start);
    note(obs::causal::Category::kCompute, adam_start, opt_end);
    note(obs::causal::Category::kFenceDrain, opt_end,
         opt_end + r.param_transfer_exposed);
    r.causal_tail = tail;
    r.attribution =
        obs::causal::critical_path(*opts.causal, 0.0, r.step_total, tail);
  }

  if (opts.spans != nullptr) {
    // One span per Fig. 12 phase, on the same simulated clock the tier
    // spans use, so the unified trace shows compute, exposed transfers and
    // migrations in one viewer.
    sim::Time t = 0.0;
    const std::pair<const char*, sim::Time> phases[] = {
        {"forward+backward", r.forward_backward},
        {"grad_transfer", r.grad_transfer_exposed},
        {"grad_clip", r.grad_optimizer},
        {"adam", r.param_optimizer},
        {"param_transfer", r.param_transfer_exposed}};
    for (const auto& [name, dur] : phases) {
      if (dur > 0.0) opts.spans->emit("phase", name, t, t + dur);
      t += dur;
    }
  }
  if (opts.metrics != nullptr) {
    obs::MetricsRegistry& reg = *opts.metrics;
    reg.counter("offload.up.payload_bytes")
        .add(static_cast<double>(r.bytes_to_cpu));
    reg.counter("offload.down.payload_bytes")
        .add(static_cast<double>(r.bytes_to_device));
    reg.counter("step.total_us").add(r.step_total * 1e6);
    // Exposed transfer time sits behind the two CXLFENCE() drains; busy
    // time beyond that (and beyond migration stalls) ran under compute.
    const sim::Time exposed =
        r.grad_transfer_exposed + r.param_transfer_exposed;
    const sim::Time busy =
        up.stats().busy_time + down.stats().busy_time;
    reg.counter("step.fence_drain_us").add(exposed * 1e6);
    reg.counter("step.overlap_us")
        .add(std::max(0.0, busy - exposed - r.sched.stall_time) * 1e6);
    if (opts.publisher != nullptr) {
      opts.publisher->publish(reg, opts.step_index, 0.0, r.step_total);
    }
  }
  return r;
}

}  // namespace teco::offload
