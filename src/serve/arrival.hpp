// ArrivalProcess — seeded open-loop request generation.
//
// Three shapes behind one pull interface: Poisson (exponential
// interarrivals at the offered rate), bursty (a two-state Markov-modulated
// Poisson process whose long-run rate still equals the configured offered
// load, so SLO-vs-load sweeps stay comparable across shapes), and
// trace-driven replay of explicit tuples. All randomness flows through
// sim::Rng streams derived from ServeConfig::seed — two processes built
// from the same config emit bit-identical request sequences, which is what
// the serving determinism test and the teco_lint wallclock rule demand.
#pragma once

#include <cstdint>
#include <optional>

#include "serve/serve.hpp"
#include "sim/rng.hpp"

namespace teco::serve {

class ArrivalProcess {
 public:
  explicit ArrivalProcess(const ServeConfig& cfg);

  /// The next request, or nullopt once n_requests (or the trace) is
  /// exhausted. Arrival times are nondecreasing.
  std::optional<Request> next();

  /// Requests emitted so far.
  std::uint64_t emitted() const { return emitted_; }

 private:
  sim::Time next_gap();
  std::uint32_t sample_tokens(std::uint32_t median);

  const ServeConfig& cfg_;
  /// Decorrelated streams: interarrival draws never perturb length draws,
  /// so changing the offered rate does not reshuffle request geometry.
  sim::Rng gap_rng_;
  sim::Rng len_rng_;
  sim::Time now_ = 0.0;
  std::uint64_t emitted_ = 0;
  // Bursty (MMPP) state: time left in the current dwell window.
  bool in_burst_ = false;
  sim::Time dwell_left_ = 0.0;
};

}  // namespace teco::serve
