#include "serve/arrival.hpp"

#include <algorithm>
#include <cmath>

namespace teco::serve {

std::string_view to_string(ArrivalKind k) {
  switch (k) {
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kBursty: return "bursty";
    case ArrivalKind::kTrace: return "trace";
  }
  __builtin_unreachable();
}

std::uint64_t kv_bytes_per_token(const dl::ModelConfig& m) {
  // K and V vectors, every layer, FP16.
  return 2ull * m.n_layers * m.hidden_size * 2ull;
}

ArrivalProcess::ArrivalProcess(const ServeConfig& cfg)
    : cfg_(cfg),
      gap_rng_(cfg.seed * 2 + 1),
      len_rng_(cfg.seed * 2 + 2) {}

std::uint32_t ArrivalProcess::sample_tokens(std::uint32_t median) {
  const double raw =
      len_rng_.next_lognormal(static_cast<double>(median), cfg_.token_sigma);
  const double hi = 8.0 * static_cast<double>(median);
  return static_cast<std::uint32_t>(std::clamp(raw, 16.0, hi));
}

sim::Time ArrivalProcess::next_gap() {
  if (cfg_.arrival == ArrivalKind::kPoisson) {
    return gap_rng_.next_interarrival(cfg_.rate_rps);
  }
  // MMPP: the burst state runs at burst_factor * rate for windows of mean
  // length mean_burst_len covering burst_fraction of time; the calm rate is
  // scaled so the time-averaged rate is still rate_rps:
  //   f * burst_factor * r_calm_scale ... solve
  //   rate = f * (burst_factor * calm) + (1 - f) * calm
  const double f = std::clamp(cfg_.burst_fraction, 0.0, 1.0);
  const double calm_rate =
      cfg_.rate_rps / (f * cfg_.burst_factor + (1.0 - f));
  const double burst_rate = cfg_.burst_factor * calm_rate;
  sim::Time gap = 0.0;
  for (;;) {
    if (dwell_left_ <= 0.0) {
      // Enter the next dwell window. Mean dwell lengths preserve the
      // burst_fraction duty cycle.
      in_burst_ = !in_burst_;
      const sim::Time mean_dwell =
          in_burst_ ? cfg_.mean_burst_len
                    : cfg_.mean_burst_len * (1.0 - f) / std::max(f, 1e-9);
      dwell_left_ = gap_rng_.next_exponential(mean_dwell);
    }
    const double rate = in_burst_ ? burst_rate : calm_rate;
    const sim::Time draw = gap_rng_.next_interarrival(rate);
    if (draw <= dwell_left_) {
      dwell_left_ -= draw;
      return gap + draw;
    }
    // No arrival inside the remaining dwell; spend it and redraw in the
    // next state (memorylessness makes the truncation exact).
    gap += dwell_left_;
    dwell_left_ = 0.0;
  }
}

std::optional<Request> ArrivalProcess::next() {
  shard_.assert_held();
  if (cfg_.arrival == ArrivalKind::kTrace) {
    if (emitted_ >= cfg_.trace.size()) return std::nullopt;
    const TraceRequest& t = cfg_.trace[emitted_];
    return Request{emitted_++, t.arrival, t.prompt_tokens, t.decode_tokens};
  }
  if (emitted_ >= cfg_.n_requests) return std::nullopt;
  now_ += next_gap();
  return Request{emitted_++, now_,
                 sample_tokens(cfg_.median_prompt_tokens),
                 sample_tokens(cfg_.median_decode_tokens)};
}

}  // namespace teco::serve
