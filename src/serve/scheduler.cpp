#include "serve/scheduler.hpp"

#include <algorithm>

namespace teco::serve {

namespace {
constexpr double kSecToUs = 1e6;
}  // namespace

ServeScheduler::ServeScheduler(const ServeConfig& cfg,
                               obs::MetricsRegistry* reg)
    : cfg_(cfg),
      kvpt_(kv_bytes_per_token(cfg_.model)),
      reg_(reg != nullptr ? reg : &local_reg_),
      kv_(cfg_, q_, link_, *reg_),
      arrivals_(cfg_),
      // TTFT up to 60 s at 10 ms resolution, inter-token up to 2 s at
      // 0.5 ms: wide enough that overload sweeps keep honest p999s.
      ttft_hist_(reg_->histogram("serve.ttft_us", 0.0, 60e6, 6000)),
      tpot_hist_(reg_->histogram("serve.tpot_us", 0.0, 2e6, 4000)),
      c_arrivals_(reg_->counter("serve.arrivals")),
      c_admitted_(reg_->counter("serve.admitted")),
      c_rejected_(reg_->counter("serve.rejected")),
      c_completed_(reg_->counter("serve.completed")),
      c_slo_(reg_->counter("serve.slo_attained")),
      c_tokens_(reg_->counter("serve.tokens")),
      c_prefill_iters_(reg_->counter("serve.iterations.prefill")),
      c_decode_iters_(reg_->counter("serve.iterations.decode")),
      c_prefill_tokens_(reg_->counter("serve.prefill_tokens")),
      c_stall_us_(reg_->counter("serve.kv.stall_us")) {
  link_.set_metrics(reg_);
}

ServeScheduler::~ServeScheduler() {
  // Fold the link's deferred cxl.* deltas into the registry, then detach
  // its flusher so an external registry may outlive this scheduler.
  (void)reg_->value("cxl.down.bytes");
  link_.set_metrics(nullptr);
}

bool ServeScheduler::attains_slo(const ServeConfig& cfg, sim::Time ttft,
                                 sim::Time mean_tpot) {
  return ttft <= cfg.slo_ttft && mean_tpot <= cfg.effective_slo_tpot();
}

void ServeScheduler::causal_note(obs::causal::Category cat, sim::Time from,
                                 sim::Time to) {
  if (causal_ == nullptr || to <= from) return;
  causal_last_ = causal_->add(cat, to, causal_last_, from);
}

void ServeScheduler::drain_arrivals() {
  while (pending_.has_value() && pending_->arrival <= q_.now()) {
    const Request r = *pending_;
    c_arrivals_.add();
    if (sessions_.size() >= cfg_.max_sessions) {
      ++report_.rejected;
      c_rejected_.add();
    } else {
      ++report_.admitted;
      c_admitted_.add();
      sessions_.emplace(r.id, Session{r, 0.0, 0.0, 0.0, 0});
      waiting_.push_back(r.id);
      kv_.add_session(r.id);
    }
    pending_ = arrivals_.next();
  }
}

void ServeScheduler::prefill_iteration() {
  const sim::Time t = q_.now();
  std::vector<std::uint64_t> group;
  std::uint64_t tokens = 0;
  std::uint64_t kv_need = 0;
  while (!waiting_.empty()) {
    const std::uint64_t id = waiting_.front();
    const std::uint32_t prompt = sessions_.at(id).req.prompt_tokens;
    if (!group.empty() && tokens + prompt > cfg_.max_prefill_tokens) break;
    group.push_back(id);
    tokens += prompt;
    kv_need += static_cast<std::uint64_t>(prompt) * kvpt_;
    waiting_.pop_front();
  }
  const sim::Time avail = kv_.ensure_capacity(kv_need, t);
  if (avail > t) {
    report_.kv_stall += avail - t;
    c_stall_us_.add((avail - t) * kSecToUs);
    causal_note(obs::causal::Category::kEvictStall, t, avail);
  }
  const sim::Time end = avail + cfg_.cost.prefill_time(cfg_.model, tokens);
  causal_note(obs::causal::Category::kCompute, avail, end);
  for (const std::uint64_t id : group) {
    Session& s = sessions_.at(id);
    s.prefill_end = end;
    s.last_token = end;
    s.generated = 1;  // Prefill emits the request's first token.
    s.ttft = end - s.req.arrival;
    ttft_hist_.observe(s.ttft * kSecToUs);
    if (causal_ != nullptr) {
      ttft_records_.push_back({id, s.req.arrival, end, causal_last_});
    }
    ++report_.tokens_generated;
    c_tokens_.add();
    kv_.append(id, static_cast<std::uint64_t>(s.req.prompt_tokens) * kvpt_,
               end);
    if (s.generated >= s.req.decode_tokens) {
      complete(id, end);
    } else {
      running_.push_back(id);
    }
  }
  c_prefill_iters_.add();
  c_prefill_tokens_.add(static_cast<double>(tokens));
  if (end > report_.makespan) report_.makespan = end;
  q_.run_until(end);
}

void ServeScheduler::decode_iteration() {
  const sim::Time t = q_.now();
  const std::size_t width = std::min(cfg_.max_batch, running_.size());
  std::vector<std::uint64_t> batch(running_.begin(),
                                   running_.begin() +
                                       static_cast<std::ptrdiff_t>(width));
  for (const std::uint64_t id : batch) kv_.set_pinned(id, true);
  // Residency barrier: every batch member's KV must be back in HBM before
  // the kernel launches. Prefetched sessions land (partially) hidden;
  // under kNaiveSwap everything is a fully exposed demand fetch.
  sim::Time ready = t;
  for (const std::uint64_t id : batch) {
    ready = std::max(ready, kv_.ensure_resident(id, t, /*demand=*/true));
  }
  const sim::Time avail =
      kv_.ensure_capacity(static_cast<std::uint64_t>(width) * kvpt_, t);
  const sim::Time start = std::max(ready, avail);
  if (start > t) {
    report_.kv_stall += start - t;
    c_stall_us_.add((start - t) * kSecToUs);
    causal_note(ready >= avail ? obs::causal::Category::kDemandFetch
                               : obs::causal::Category::kEvictStall,
                t, start);
  }
  // Lookahead paging, issued BEFORE this iteration's compute so the wire
  // works while the kernel runs: the sessions at positions [width,
  // width + horizon) are the next rotations' batches. The current batch is
  // still pinned, so prefetch evictions can only take colder sessions; a
  // prefetch that would overcommit the budget is skipped entirely (see
  // KvCacheManager::ensure_resident).
  if (cfg_.policy != tier::Policy::kNaiveSwap &&
      cfg_.policy != tier::Policy::kAllHbm && cfg_.prefetch_depth > 0) {
    const std::size_t horizon = std::min(
        running_.size() - width, cfg_.max_batch * cfg_.prefetch_depth);
    for (std::size_t i = 0; i < horizon; ++i) {
      kv_.prefetch(running_[width + i], start);
    }
  }
  std::uint64_t batch_kv = 0;
  for (const std::uint64_t id : batch) {
    batch_kv += kv_.session_bytes(id) + kvpt_;
  }
  const sim::Time end = start + cfg_.cost.decode_time(cfg_.model, batch_kv);
  causal_note(obs::causal::Category::kCompute, start, end);
  for (const std::uint64_t id : batch) {
    Session& s = sessions_.at(id);
    kv_.append(id, kvpt_, end);
    ++s.generated;
    ++report_.tokens_generated;
    c_tokens_.add();
    tpot_hist_.observe((end - s.last_token) * kSecToUs);
    s.last_token = end;
  }
  for (const std::uint64_t id : batch) kv_.set_pinned(id, false);
  // Rotate: finished sessions leave, the rest requeue at the back, so
  // batch membership cycles through all active sessions.
  running_.erase(running_.begin(),
                 running_.begin() + static_cast<std::ptrdiff_t>(width));
  for (const std::uint64_t id : batch) {
    if (sessions_.at(id).generated >= sessions_.at(id).req.decode_tokens) {
      complete(id, end);
    } else {
      running_.push_back(id);
    }
  }
  // Victim-ordering hints for the next iteration's evictions: a session's
  // next turn is its queue position in whole rotations.
  const sim::Time iter_est = end - start;
  std::size_t pos = 0;
  for (const std::uint64_t id : running_) {
    kv_.set_next_use_hint(
        id, static_cast<double>(pos / cfg_.max_batch) * iter_est);
    ++pos;
  }
  c_decode_iters_.add();
  if (end > report_.makespan) report_.makespan = end;
  q_.run_until(end);
}

void ServeScheduler::complete(std::uint64_t id, sim::Time t) {
  Session& s = sessions_.at(id);
  const sim::Time mean_tpot =
      s.generated > 1
          ? (t - s.prefill_end) / static_cast<double>(s.generated - 1)
          : 0.0;
  ++report_.completed;
  c_completed_.add();
  if (attains_slo(cfg_, s.ttft, mean_tpot)) {
    ++report_.slo_attained;
    c_slo_.add();
  }
  kv_.release(id);
  sessions_.erase(id);
}

void ServeScheduler::finalize() {
  report_.offered = arrivals_.emitted();
  report_.ttft = LatencyQuantiles{ttft_hist_.quantile(0.5) / kSecToUs,
                                  ttft_hist_.quantile(0.99) / kSecToUs,
                                  ttft_hist_.quantile(0.999) / kSecToUs};
  report_.tpot = LatencyQuantiles{tpot_hist_.quantile(0.5) / kSecToUs,
                                  tpot_hist_.quantile(0.99) / kSecToUs,
                                  tpot_hist_.quantile(0.999) / kSecToUs};
  const KvCacheManager::Stats& ks = kv_.stats();
  report_.kv_pagein_bytes = ks.pagein_bytes;
  report_.kv_evict_bytes = ks.evict_bytes;
  report_.kv_clean_drops = ks.clean_drops;
  report_.kv_demand_fetches = ks.demand_fetches;
  report_.kv_prefetches = ks.prefetches;
  report_.hbm_peak_bytes = ks.hbm_peak;
}

ServeReport ServeScheduler::run() {
  pending_ = arrivals_.next();
  for (;;) {
    drain_arrivals();
    if (waiting_.empty() && running_.empty()) {
      if (!pending_.has_value()) break;
      causal_note(obs::causal::Category::kIdle, q_.now(), pending_->arrival);
      q_.run_until(pending_->arrival);  // Idle until the next arrival.
      continue;
    }
    if (!waiting_.empty() && running_.size() < cfg_.max_batch) {
      prefill_iteration();
    } else {
      decode_iteration();
    }
  }
  finalize();
  return report_;
}

}  // namespace teco::serve
