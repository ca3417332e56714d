#include "tier/placement_planner.hpp"

#include <algorithm>
#include <cmath>

namespace teco::tier {

std::string_view to_string(Policy p) {
  switch (p) {
    case Policy::kAllHbm: return "all_hbm";
    case Policy::kNaiveSwap: return "naive_swap";
    case Policy::kMinStall: return "min_stall";
    case Policy::kKnapsack: return "knapsack";
  }
  __builtin_unreachable();
}

void order_victims(Policy p, std::vector<VictimCandidate>& v) {
  switch (p) {
    case Policy::kAllHbm:
    case Policy::kNaiveSwap:
      // No cost model: deterministic id order (oldest session first).
      std::sort(v.begin(), v.end(),
                [](const VictimCandidate& a, const VictimCandidate& b) {
                  return a.id < b.id;
                });
      return;
    case Policy::kMinStall:
      // Belady approximation: the candidate needed furthest in the future
      // gives the prefetcher the longest window to hide the re-fetch.
      std::sort(v.begin(), v.end(),
                [](const VictimCandidate& a, const VictimCandidate& b) {
                  if (a.next_use_gap != b.next_use_gap) {
                    return a.next_use_gap > b.next_use_gap;
                  }
                  if (a.idle != b.idle) return a.idle > b.idle;
                  return a.id < b.id;
                });
      return;
    case Policy::kKnapsack:
      // Byte-seconds density: evicting cold-and-large owners buys the most
      // budget headroom per unit of expected re-fetch pain.
      std::sort(v.begin(), v.end(),
                [](const VictimCandidate& a, const VictimCandidate& b) {
                  const double sa = static_cast<double>(a.bytes) *
                                    (a.idle + a.next_use_gap);
                  const double sb = static_cast<double>(b.bytes) *
                                    (b.idle + b.next_use_gap);
                  if (sa != sb) return sa > sb;
                  return a.id < b.id;
                });
      return;
  }
  __builtin_unreachable();
}

std::string_view to_string(Tier t) {
  switch (t) {
    case Tier::kHbm: return "HBM";
    case Tier::kGiantCache: return "giant$";
    case Tier::kCxlDram: return "CXL";
  }
  __builtin_unreachable();
}

std::string_view to_string(TensorClass c) {
  switch (c) {
    case TensorClass::kWeight: return "weight";
    case TensorClass::kActivation: return "activation";
  }
  __builtin_unreachable();
}

sim::Time PlacementPlanner::transfer_time(std::uint64_t bytes, Tier t) const {
  if (t == Tier::kGiantCache) {
    // Device-local copy through the resizable-BAR window: no link crossing.
    return cal_.hbm_gc_copy_latency +
           static_cast<double>(bytes) / cal_.hbm_gc_copy_bw;
  }
  return cal_.phy.packet_latency +
         static_cast<double>(bytes) / cal_.phy.cxl_bandwidth();
}

sim::Time PlacementPlanner::estimated_stall(const TensorRecord& rec, Tier t,
                                            sim::Time window) const {
  // Each consume needs the tensor back in HBM; the scheduler can hide the
  // re-fetch behind up to `window` of earlier compute, but never more than
  // the idle gap that actually precedes the consume — a tensor consumed
  // right after produce pays the full transfer.
  const sim::Time xfer = transfer_time(rec.bytes, t);
  sim::Time stall = 0.0;
  sim::Time prev = rec.produce;
  for (const sim::Time c : rec.consumes) {
    const sim::Time overlap = std::min(window, std::max(0.0, c - prev));
    stall += std::max(0.0, xfer - overlap);
    prev = c;
  }
  return stall;
}

void PlacementPlanner::emit_migrations(const StepProfile& prof,
                                       TierPlan* plan) const {
  for (const auto& rec : prof.tensors) {
    const Tier home = plan->home[rec.id];
    if (home == Tier::kHbm) continue;
    const sim::Time xfer = transfer_time(rec.bytes, home);
    // Weights start the step already parked in their home tier, so the
    // first prefetch has no preceding eviction; activations materialize in
    // HBM and are evicted right after produce.
    if (rec.cls == TensorClass::kActivation) {
      plan->migrations.push_back({rec.id, Tier::kHbm, home, false, SIZE_MAX,
                                  rec.produce, 0.0});
    }
    sim::Time prev = rec.produce;
    for (std::size_t i = 0; i < rec.consumes.size(); ++i) {
      const sim::Time c = rec.consumes[i];
      const bool idle_before = c > prev || (i == 0 &&
                               rec.cls == TensorClass::kWeight);
      if (idle_before) {
        plan->migrations.push_back(
            {rec.id, home, Tier::kHbm, true, i,
             std::max(rec.produce, c - xfer), c});
      }
      // Park it again between uses (no data moves for a clean copy; the
      // scheduler frees the HBM bytes once the next idle gap opens).
      if (i + 1 < rec.consumes.size() && rec.consumes[i + 1] > c) {
        plan->migrations.push_back({rec.id, Tier::kHbm, home, false, i, c,
                                    0.0});
      }
      prev = c;
    }
  }
  std::stable_sort(plan->migrations.begin(), plan->migrations.end(),
                   [](const Migration& a, const Migration& b) {
                     return a.planned_issue < b.planned_issue;
                   });
}

TierPlan PlacementPlanner::plan(const StepProfile& prof) const {
  TierPlan p;
  p.policy = cfg_.policy;
  p.prefetch_depth = cfg_.prefetch_depth;
  p.home.assign(prof.tensors.size(), Tier::kHbm);
  const std::uint64_t peak = prof.peak_live_bytes();
  p.hbm_feasible = peak <= cfg_.hbm_bytes;
  p.planned_hbm_peak = peak;

  if (cfg_.policy == Policy::kAllHbm) return p;

  // Which tensors leave HBM?
  std::vector<std::uint32_t> evicted;
  if (cfg_.policy == Policy::kNaiveSwap) {
    // Write-through everything that is not a weight; no cost model.
    for (const auto& rec : prof.tensors) {
      if (rec.cls == TensorClass::kActivation) evicted.push_back(rec.id);
    }
  } else if (peak > cfg_.hbm_bytes) {
    const std::uint64_t need = peak - cfg_.hbm_bytes;
    const sim::Time fwd_win =
        static_cast<double>(cfg_.prefetch_depth) * prof.fwd_layer_time();
    const sim::Time bwd_win =
        static_cast<double>(cfg_.prefetch_depth) * prof.bwd_layer_time();
    struct Cand {
      std::uint32_t id;
      std::uint64_t bytes;
      double score;  ///< Lower = evict first.
    };
    std::vector<Cand> cands;
    for (const auto& rec : prof.tensors) {
      if (rec.bytes == 0 || rec.consumes.empty()) continue;
      const sim::Time window =
          rec.cls == TensorClass::kWeight ? std::min(fwd_win, bwd_win)
                                          : bwd_win;
      const sim::Time stall = estimated_stall(rec, Tier::kCxlDram, window);
      double score;
      if (cfg_.policy == Policy::kMinStall) {
        // Greedy min-stall: pay the least added stall per byte freed.
        score = stall / static_cast<double>(rec.bytes);
      } else {
        // Knapsack (10Cache-style): HBM residency is valued at the stall
        // it avoids and weighted by the byte-seconds it occupies; low
        // value density leaves first.
        const double byte_seconds = static_cast<double>(rec.bytes) *
                                    std::max(rec.dead_span(), 1e-9);
        score = stall / byte_seconds;
      }
      cands.push_back({rec.id, rec.bytes, score});
    }
    std::stable_sort(cands.begin(), cands.end(),
                     [](const Cand& a, const Cand& b) {
                       return a.score < b.score;
                     });
    std::uint64_t freed = 0;
    for (const auto& c : cands) {
      if (freed >= need) break;
      evicted.push_back(c.id);
      freed += c.bytes;
    }
  }

  // Destination tiers: the giant cache is the fast escape hatch, so spend
  // it on the tensors with the tightest idle gaps (the ones a CXL round
  // trip would most likely stall on).
  std::stable_sort(evicted.begin(), evicted.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return prof.tensors[a].dead_span() <
                            prof.tensors[b].dead_span();
                   });
  std::uint64_t gc_used = 0;
  for (const std::uint32_t id : evicted) {
    const std::uint64_t bytes = prof.tensors[id].bytes;
    if (cfg_.policy != Policy::kNaiveSwap &&
        gc_used + bytes <= cfg_.giant_cache_bytes) {
      p.home[id] = Tier::kGiantCache;
      gc_used += bytes;
    } else {
      p.home[id] = Tier::kCxlDram;
    }
    p.planned_offload_bytes += bytes;
  }
  p.planned_hbm_peak = peak > p.planned_offload_bytes
                           ? peak - p.planned_offload_bytes
                           : 0;
  emit_migrations(prof, &p);
  return p;
}

}  // namespace teco::tier
