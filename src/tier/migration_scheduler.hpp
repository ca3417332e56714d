// MigrationScheduler — execute a TierPlan against the event/link substrate.
//
// The scheduler replays the step's compute slots (forward layers in order,
// then backward layers in reverse) on the shared sim::EventQueue and turns
// the plan's migrations into real traffic: CXL-tier migrations are
// submitted to the caller's cxl::Channel pair — the SAME channels the
// parameter/gradient update streams use, so link contention is modeled,
// not assumed away — while giant-cache migrations are device-local copies
// that never cross the link. When a consumer reaches a tensor whose fetch
// has not landed, the slot stalls until delivery and the stall is charged
// (and reported to the check::TierObserver, where the strict checker
// enforces the T1/T2 invariants).
//
// Prefetch pacing: a prefetch for a consume in slot s may be issued once
// execution enters slot s - prefetch_depth (initial slots are issued at
// step start). Under Policy::kNaiveSwap there is no lookahead and
// evictions are synchronous: compute blocks on the link both ways — the
// strawman the benches compare against.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "check/tier_checker.hpp"
#include "cxl/channel.hpp"
#include "obs/causal.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "offload/calibration.hpp"
#include "sim/event_queue.hpp"
#include "tier/placement_planner.hpp"

namespace teco::tier {

/// Step-function byte occupancy of one tier over the step.
struct OccupancySeries {
  std::vector<std::pair<sim::Time, std::uint64_t>> points;
  std::uint64_t peak = 0;
};

/// One executed migration, for Gantt lanes and trace export.
struct Transfer {
  sim::Time start = 0.0;
  sim::Time end = 0.0;
  Tier from = Tier::kHbm;
  Tier to = Tier::kCxlDram;
  std::uint32_t tensor = 0;
  std::uint64_t bytes = 0;
  bool prefetch = false;
};

struct ScheduleResult {
  sim::Time forward_end = 0.0;   ///< Includes fetch/evict stalls.
  sim::Time backward_end = 0.0;  ///< End of compute, with stalls.
  sim::Time stall_time = 0.0;
  std::vector<std::pair<sim::Time, sim::Time>> stalls;  ///< Stalled spans.
  std::array<OccupancySeries, kTierCount> occupancy;
  std::vector<Transfer> transfers;
  /// tier.* registry deltas for this run (tier.prefetches,
  /// tier.prefetch_bytes, tier.prefetch_hits, tier.demand_fetches,
  /// tier.evictions, tier.evict_bytes, tier.stall_us) — the scheduler's
  /// bespoke counter fields migrated onto the one instrumentation spine.
  std::vector<obs::Sample> metrics;
  /// Tail of the scheduler's causal chain (stall -> compute -> evict
  /// nodes per slot), sim::kNoCausalNode unless set_causal() was wired.
  /// Callers splice follow-on phases (the activation timeline's optimizer
  /// stages) onto it and extract the step's critical path from theirs.
  std::uint32_t causal_tail = sim::kNoCausalNode;

  /// Value of a tier.* delta by full dotted name; 0.0 when absent.
  double metric(std::string_view name) const {
    for (const obs::Sample& s : metrics) {
      if (s.name == name) return s.value;
    }
    return 0.0;
  }

  std::uint64_t migrated_bytes() const {
    return static_cast<std::uint64_t>(metric("tier.prefetch_bytes") +
                                      metric("tier.evict_bytes"));
  }
};

class MigrationScheduler {
 public:
  /// `obs` may be null; `prof` and `plan` must outlive run().
  MigrationScheduler(const StepProfile& prof, const TierPlan& plan,
                     const offload::Calibration& cal,
                     check::TierObserver* obs = nullptr);

  /// Called as each compute slot retires: (backward, layer, start, end).
  /// The activation timeline uses it to pace the gradient update stream
  /// onto the same up-link the evictions ride.
  using SlotHook =
      std::function<void(bool, std::uint32_t, sim::Time, sim::Time)>;
  void set_slot_hook(SlotHook hook) { hook_ = std::move(hook); }

  /// Record tier.* counters into `reg` instead of the scheduler's private
  /// registry (nullptr reverts). Handles are resolved at run() start; the
  /// run's deltas land in ScheduleResult::metrics either way.
  void set_metrics(obs::MetricsRegistry* reg) { ext_reg_ = reg; }

  /// Emit tier.{fetch,evict}/tier.stall spans into `buf` (nullptr = off).
  void set_trace(obs::TraceBuffer* buf) { trace_ = buf; }

  /// Record the run's causal chain into `g` (nullptr = off): the graph is
  /// attached to the queue as its provenance sink for the duration of
  /// run(), fetch/evict schedules are category-tagged, and every slot
  /// appends stall/compute nodes to an explicit chain ending at
  /// ScheduleResult::causal_tail.
  void set_causal(obs::causal::CausalGraph* g) { causal_ = g; }

  /// Run the step to completion on `q`, submitting CXL migrations to
  /// `up` (device -> CPU: evictions) and `down` (CPU -> device:
  /// prefetches and demand fetches).
  ScheduleResult run(sim::EventQueue& q, cxl::Channel& up,
                     cxl::Channel& down);

 private:
  struct TState {
    bool in_hbm = false;
    bool in_lower = false;
    bool fetching = false;
    bool prefetched = false;  ///< Current residency came from a prefetch.
    sim::Time hbm_ready = 0.0;
    std::size_t consumed = 0;  ///< Retired consume count.
  };
  struct PendingPrefetch {
    std::uint32_t tensor = 0;
    std::size_t consume_idx = 0;
    std::size_t slot = 0;  ///< Slot whose start the fetch must beat.
  };

  std::size_t slot_of(sim::Time consume_t) const;
  void occ_change(sim::Time t, Tier tier, std::int64_t delta);
  /// Move `bytes` of `tensor`; returns delivery time.
  sim::Time transfer(sim::Time t, std::uint32_t tensor, Tier from, Tier to,
                     bool prefetch);
  /// Start a fetch toward HBM and schedule its delivery flip; returns the
  /// delivery time.
  sim::Time issue_fetch(sim::Time t, std::uint32_t tensor);
  /// Fetch toward HBM if needed; returns the time the tensor is usable.
  sim::Time require(sim::Time t, std::uint32_t tensor);
  void try_issue_prefetches(std::size_t horizon_slot, sim::Time t);
  sim::Time evict(sim::Time t, std::uint32_t tensor);
  void exec_slot(sim::EventQueue& q, std::size_t g, sim::Time t);

  const StepProfile& prof_;
  const TierPlan& plan_;
  const offload::Calibration& cal_;
  check::TierObserver* obs_;
  SlotHook hook_;

  /// Resolved tier.* handles, valid for the duration of one run().
  struct Handles {
    obs::Counter* prefetches = nullptr;
    obs::Counter* prefetch_bytes = nullptr;
    obs::Counter* prefetch_hits = nullptr;
    obs::Counter* demand_fetches = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Counter* evict_bytes = nullptr;
    obs::Counter* stall_us = nullptr;
  };
  Handles resolve_handles(obs::MetricsRegistry& reg);
  void charge_stall(sim::Time from, sim::Time to);
  /// Append a [from, to] node to the explicit chain (no-op when unwired
  /// or zero-width).
  void causal_note(obs::causal::Category cat, sim::Time from, sim::Time to);

  obs::MetricsRegistry* ext_reg_ = nullptr;
  obs::MetricsRegistry local_reg_;  ///< Used when no registry is attached.
  obs::TraceBuffer* trace_ = nullptr;
  obs::causal::CausalGraph* causal_ = nullptr;
  std::uint32_t causal_tail_ = sim::kNoCausalNode;
  Handles m_;

  sim::EventQueue* q_ = nullptr;
  cxl::Channel* up_ = nullptr;
  cxl::Channel* down_ = nullptr;
  ScheduleResult res_;
  std::vector<TState> state_;
  std::array<std::uint64_t, kTierCount> occ_bytes_{};
  std::size_t n_slots_ = 0;
  /// Per slot: (tensor, consume_idx) retiring at slot start.
  std::vector<std::vector<std::pair<std::uint32_t, std::size_t>>> consumers_;
  /// Per forward slot: activations materializing at slot end.
  std::vector<std::vector<std::uint32_t>> produces_;
  std::vector<PendingPrefetch> pending_;
};

}  // namespace teco::tier
