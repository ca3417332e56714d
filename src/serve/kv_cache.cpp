#include "serve/kv_cache.hpp"

#include <algorithm>

#include "mem/address.hpp"
#include "obs/causal.hpp"

namespace teco::serve {

namespace {

/// 64-B cache lines a KV blob occupies on the wire.
std::uint64_t lines_for(std::uint64_t bytes) {
  return (bytes + mem::kLineBytes - 1) / mem::kLineBytes;
}

/// Synthetic line address for a session's KV region; only used so the
/// protocol observer and message counters see distinct per-session streams.
mem::Addr kv_addr(std::uint64_t id) { return (id + 1) << 28; }

}  // namespace

KvCacheManager::KvCacheManager(const ServeConfig& cfg, sim::EventQueue& q,
                               cxl::Link& link, obs::MetricsRegistry& reg)
    : cfg_(cfg),
      q_(q),
      link_(link),
      c_pagein_bytes_(reg.counter("serve.kv.pagein_bytes")),
      c_evict_bytes_(reg.counter("serve.kv.evict_bytes")),
      c_clean_drops_(reg.counter("serve.kv.clean_drops")),
      c_demand_(reg.counter("serve.kv.demand_fetches")),
      c_prefetch_(reg.counter("serve.kv.prefetches")),
      c_writethrough_bytes_(reg.counter("serve.kv.writethrough_bytes")),
      c_overcommit_(reg.counter("serve.kv.overcommits")),
      g_hbm_used_(reg.gauge("serve.kv.hbm_used_bytes")),
      g_hbm_peak_(reg.gauge("serve.kv.hbm_peak_bytes")) {}

void KvCacheManager::add_session(std::uint64_t id) { entries_[id] = Entry{}; }

void KvCacheManager::charge_hbm(std::uint64_t bytes) {
  hbm_used_ += bytes;
  if (hbm_used_ > stats_.hbm_peak) {
    stats_.hbm_peak = hbm_used_;
    g_hbm_peak_.set(static_cast<double>(hbm_used_));
  }
  g_hbm_used_.set(static_cast<double>(hbm_used_));
}

void KvCacheManager::append(std::uint64_t id, std::uint64_t bytes,
                            sim::Time t) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  Entry& e = it->second;
  e.bytes += bytes;
  e.in_hbm = true;  // Fresh KV is produced in HBM by the running kernel.
  e.last_used = t;
  charge_hbm(bytes);
  if (cfg_.kv_writethrough) {
    // Update-push: the new lines stream to the CXL home as they are
    // produced, keeping the far copy current (evictions become drops).
    link_.send_stream(
        cxl::Direction::kDeviceToCpu, t,
        cxl::data_packet(cxl::MessageType::kFlushData, kv_addr(id),
                         mem::kLineBytes),
        lines_for(bytes));
    stats_.writethrough_bytes += bytes;
    c_writethrough_bytes_.add(static_cast<double>(bytes));
    // A clean copy stays clean; a first append establishes one.
    e.cxl_clean = true;
  } else {
    e.cxl_clean = false;
  }
}

sim::Time KvCacheManager::evict(std::uint64_t id, Entry& e, sim::Time t) {
  e.in_hbm = false;
  hbm_used_ -= e.bytes;
  g_hbm_used_.set(static_cast<double>(hbm_used_));
  if (e.cxl_clean) {
    // The CXL home already holds every line (write-through): dropping the
    // HBM copy costs nothing on the wire.
    ++stats_.clean_drops;
    c_clean_drops_.add();
    return t;
  }
  const cxl::Delivery d = link_.send_stream(
      cxl::Direction::kDeviceToCpu, t,
      cxl::data_packet(cxl::MessageType::kFlushData, kv_addr(id),
                       mem::kLineBytes),
      lines_for(e.bytes));
  e.cxl_clean = true;
  stats_.evict_bytes += e.bytes;
  c_evict_bytes_.add(static_cast<double>(e.bytes));
  return d.delivered;
}

sim::Time KvCacheManager::ensure_capacity(std::uint64_t extra, sim::Time t) {
  sim::Time avail = t;
  if (hbm_used_ + extra <= cfg_.hbm_kv_bytes) return avail;
  if (cfg_.policy == tier::Policy::kAllHbm) {
    // Reference policy: unbounded HBM, never evict.
    ++stats_.overcommits;
    c_overcommit_.add();
    return avail;
  }
  std::vector<tier::VictimCandidate> cands;
  for (const auto& [id, e] : entries_) {
    if (!e.in_hbm || e.pinned || e.inflight_tag != 0 || e.bytes == 0) {
      continue;
    }
    cands.push_back(tier::VictimCandidate{id, e.bytes, t - e.last_used,
                                          e.next_use_gap});
  }
  tier::order_victims(cfg_.policy, cands);
  for (const auto& c : cands) {
    if (hbm_used_ + extra <= cfg_.hbm_kv_bytes) break;
    const sim::Time done = evict(c.id, entries_.at(c.id), t);
    if (cfg_.policy == tier::Policy::kNaiveSwap) {
      // The strawman swaps synchronously: the producer blocks until the
      // eviction drains off the link.
      avail = std::max(avail, done);
    }
  }
  if (hbm_used_ + extra > cfg_.hbm_kv_bytes) {
    ++stats_.overcommits;
    c_overcommit_.add();
  }
  return avail;
}

sim::Time KvCacheManager::ensure_resident(std::uint64_t id, sim::Time t,
                                          bool demand) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return t;
  Entry& e = it->second;
  e.last_used = t;
  if (e.in_hbm) return t;
  if (e.inflight_tag != 0) return std::max(t, e.ready);
  if (e.bytes == 0) {
    e.in_hbm = true;
    return t;
  }
  // Prefetch is opportunistic: it only ever consumes true headroom. If it
  // could evict, the lookahead would ping-pong with the eviction policy —
  // demand growth evicts the farthest-next-use sessions, the prefetch
  // horizon covers exactly those sessions and refetches them, and the
  // wasted wire time delays the demand fetches it was meant to hide.
  if (!demand && hbm_used_ + e.bytes > cfg_.hbm_kv_bytes) return t;
  // Demand page-in: free budget first (victim evictions may themselves
  // occupy the up-link while the fetch rides the down-link — full duplex),
  // then stream the KV lines down and flip residency when the tail lands.
  const sim::Time issue = demand ? ensure_capacity(e.bytes, t) : t;
  charge_hbm(e.bytes);  // Reserve: the landing buffer is committed now.
  const cxl::Delivery d = link_.send_stream(
      cxl::Direction::kCpuToDevice, issue,
      cxl::data_packet(cxl::MessageType::kData, kv_addr(id), mem::kLineBytes),
      lines_for(e.bytes));
  const std::uint64_t tag = ++next_tag_;
  e.inflight_tag = tag;
  e.ready = d.delivered;
  stats_.pagein_bytes += e.bytes;
  c_pagein_bytes_.add(static_cast<double>(e.bytes));
  if (demand) {
    ++stats_.demand_fetches;
    c_demand_.add();
  } else {
    ++stats_.prefetches;
    c_prefetch_.add();
  }
  // The residency flip is the page-in landing off the down link — tag it
  // so a causal sink on the queue records why it ran.
  sim::TagScope cat_scope(q_,
                          obs::causal::tag(obs::causal::Category::kCxlDown));
  q_.schedule_at(d.delivered, [this, id, tag] {
    auto fit = entries_.find(id);
    if (fit == entries_.end() || fit->second.inflight_tag != tag) {
      return;  // Session released (or superseded) while on the wire.
    }
    fit->second.inflight_tag = 0;
    fit->second.in_hbm = true;
  });
  return d.delivered;
}

void KvCacheManager::prefetch(std::uint64_t id, sim::Time t) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  const Entry& e = it->second;
  if (e.in_hbm || e.inflight_tag != 0 || e.bytes == 0) return;
  ensure_resident(id, t, /*demand=*/false);
}

void KvCacheManager::set_pinned(std::uint64_t id, bool pinned) {
  auto it = entries_.find(id);
  if (it != entries_.end()) it->second.pinned = pinned;
}

void KvCacheManager::touch(std::uint64_t id, sim::Time t) {
  auto it = entries_.find(id);
  if (it != entries_.end()) it->second.last_used = t;
}

void KvCacheManager::set_next_use_hint(std::uint64_t id, sim::Time gap) {
  auto it = entries_.find(id);
  if (it != entries_.end()) it->second.next_use_gap = gap;
}

void KvCacheManager::release(std::uint64_t id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return;
  // In-flight page-ins keep their HBM reservation until release; both the
  // resident and the reserved case charge hbm_used_, so one refund covers
  // them. The pending flip callback no-ops once the entry is gone.
  if (it->second.in_hbm || it->second.inflight_tag != 0) {
    hbm_used_ -= it->second.bytes;
    g_hbm_used_.set(static_cast<double>(hbm_used_));
  }
  entries_.erase(it);
}

bool KvCacheManager::resident(std::uint64_t id) const {
  auto it = entries_.find(id);
  return it != entries_.end() && it->second.in_hbm;
}

std::uint64_t KvCacheManager::session_bytes(std::uint64_t id) const {
  auto it = entries_.find(id);
  return it == entries_.end() ? 0 : it->second.bytes;
}

}  // namespace teco::serve
