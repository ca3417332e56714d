// KvCacheManager — session-granular KV residency across HBM and CXL DRAM.
//
// Each admitted session owns a KV-cache that grows by kv_bytes_per_token on
// every generated token. The manager enforces the hbm_kv_bytes budget:
// whenever fresh allocation (prefill commit, decode append, page-in) would
// exceed it, tier::order_victims picks HBM-resident sessions to evict under
// the configured tier::Policy, and the evicted/refetched lines move as
// cxl::Packet streams over the SAME cxl::Link the coherence traffic rides —
// paging contends for wire bandwidth with everything else, and every
// asynchronous landing is a callback on the shared sim::EventQueue.
//
// Write-through (ServeConfig::kv_writethrough) applies the paper's update
// protocol to the KV working set: appended lines stream to the CXL home as
// kFlushData the moment they are produced, so the CXL copy is always
// current and evictions are free clean-copy drops. With it off, evictions
// pay a full up-link transfer (invalidation-style domain).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "cxl/link.hpp"
#include "obs/metrics.hpp"
#include "serve/serve.hpp"
#include "sim/event_queue.hpp"

namespace teco::serve {

class KvCacheManager {
 public:
  /// Aggregate movement accounting, mirrored into serve.kv.* counters.
  struct Stats {
    std::uint64_t pagein_bytes = 0;
    std::uint64_t evict_bytes = 0;  ///< Wire evictions only.
    std::uint64_t clean_drops = 0;
    std::uint64_t demand_fetches = 0;
    std::uint64_t prefetches = 0;
    std::uint64_t writethrough_bytes = 0;
    std::uint64_t overcommits = 0;  ///< Budget exceeded, nothing evictable.
    std::uint64_t hbm_peak = 0;
  };

  /// The queue, link and registry must outlive the manager; the link must
  /// already have its metrics registry attached (the manager only adds the
  /// serve.kv.* namespace on top of the link's cxl.*/coherence.* wiring).
  KvCacheManager(const ServeConfig& cfg, sim::EventQueue& q, cxl::Link& link,
                 obs::MetricsRegistry& reg);

  /// Register a newly admitted session (no KV yet).
  void add_session(std::uint64_t id);

  /// Account `bytes` of freshly produced KV in HBM at `t` (prefill commit
  /// or decode append). Capacity must have been ensured beforehand. Under
  /// write-through the new lines stream up-link immediately.
  void append(std::uint64_t id, std::uint64_t bytes, sim::Time t);

  /// Make `id`'s KV HBM-resident. Returns the time it is usable: `t` when
  /// already resident, the landing time of the in-flight page-in when one
  /// was issued earlier (a prefetch partially or fully hides the fetch), or
  /// the landing time of a freshly issued demand fetch.
  sim::Time ensure_resident(std::uint64_t id, sim::Time t, bool demand);

  /// Issue a page-in ahead of need (no-op when resident or in flight).
  void prefetch(std::uint64_t id, sim::Time t);

  /// Evict policy-ordered victims until `extra` more bytes fit the budget.
  /// Returns the time the capacity is actually available: under kNaiveSwap
  /// evictions are synchronous (the strawman blocks on the link), so the
  /// caller stalls until the last victim drains; other policies free the
  /// HBM the instant the buffer is handed to the link. When nothing is
  /// evictable (all pinned/in-flight) the budget is overcommitted and the
  /// run continues — the overcommits counter records it.
  sim::Time ensure_capacity(std::uint64_t extra, sim::Time t);

  /// Pin/unpin a session against eviction (current-batch membership).
  void set_pinned(std::uint64_t id, bool pinned);
  /// Recency bump for victim selection.
  void touch(std::uint64_t id, sim::Time t);
  /// Scheduler's estimate of when the session next runs (victim ordering).
  void set_next_use_hint(std::uint64_t id, sim::Time gap);

  /// Drop every copy and forget the session (request completed).
  void release(std::uint64_t id);

  bool resident(std::uint64_t id) const;
  std::uint64_t session_bytes(std::uint64_t id) const;
  std::uint64_t hbm_used() const { return hbm_used_; }
  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    std::uint64_t bytes = 0;
    bool in_hbm = false;
    bool cxl_clean = false;  ///< CXL copy is current (free eviction).
    bool pinned = false;
    std::uint64_t inflight_tag = 0;  ///< Nonzero: page-in on the wire.
    sim::Time ready = 0.0;           ///< Page-in landing time.
    sim::Time last_used = 0.0;
    sim::Time next_use_gap = 0.0;
  };

  /// Evict one victim at `t`; returns when the HBM bytes are reusable.
  sim::Time evict(std::uint64_t id, Entry& e, sim::Time t);
  void charge_hbm(std::uint64_t bytes);

  const ServeConfig& cfg_;
  sim::EventQueue& q_;
  cxl::Link& link_;

  std::map<std::uint64_t, Entry> entries_;
  std::uint64_t hbm_used_ = 0;
  std::uint64_t next_tag_ = 0;
  Stats stats_;

  // serve.kv.* instruments, resolved once at construction.
  obs::Counter& c_pagein_bytes_;
  obs::Counter& c_evict_bytes_;
  obs::Counter& c_clean_drops_;
  obs::Counter& c_demand_;
  obs::Counter& c_prefetch_;
  obs::Counter& c_writethrough_bytes_;
  obs::Counter& c_overcommit_;
  obs::Gauge& g_hbm_used_;
  obs::Gauge& g_hbm_peak_;
};

}  // namespace teco::serve
