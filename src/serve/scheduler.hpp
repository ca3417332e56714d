// ServeScheduler — continuous batching with prefill/decode asymmetry.
//
// The executor alternates two iteration shapes over one simulated device:
//
//   prefill  — compute-bound: FCFS waiting sessions are packed into a batch
//              capped by max_prefill_tokens; the iteration emits each
//              session's first token (TTFT = arrival -> iteration end) and
//              commits its prompt KV into HBM.
//   decode   — memory-bound: the first max_batch running sessions each
//              generate one token; iteration time scales with the weight
//              sweep plus the batch's resident KV bytes. Afterwards the
//              batch rotates to the back of the running queue, so when
//              active sessions exceed the batch width, membership cycles —
//              which is precisely what creates hot/cold KV paging pressure.
//
// Prefill takes priority while the decode batch has room (standard
// continuous batching: fill the batch, then stream tokens). Admission is
// capacity-based: arrivals beyond max_sessions concurrent sessions are
// rejected and count against SLO attainment.
//
// All asynchronous effects — KV page-in landings, link deliveries — are
// events on the scheduler's sim::EventQueue, and all KV movement rides the
// scheduler's cxl::Link (metrics attached), so serve.* and cxl.*/coherence.*
// counters describe one shared wire. Every random draw comes from the
// seeded ArrivalProcess: two runs from the same ServeConfig are
// bit-identical, registry snapshots included.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "cxl/link.hpp"
#include "obs/causal.hpp"
#include "obs/metrics.hpp"
#include "serve/arrival.hpp"
#include "serve/kv_cache.hpp"
#include "serve/serve.hpp"
#include "sim/event_queue.hpp"

namespace teco::serve {

class ServeScheduler {
 public:
  /// `reg` may be null, in which case the scheduler uses a private
  /// registry; pass one to share a namespace with other components or to
  /// snapshot serve.* alongside cxl.*. An external registry must outlive
  /// the scheduler.
  explicit ServeScheduler(const ServeConfig& cfg,
                          obs::MetricsRegistry* reg = nullptr);
  ~ServeScheduler();
  ServeScheduler(const ServeScheduler&) = delete;
  ServeScheduler& operator=(const ServeScheduler&) = delete;

  /// Run the whole arrival process to completion and return the report.
  ServeReport run();

  /// The SLO predicate (admission implied by having latencies at all): a
  /// request attains its SLO when TTFT met slo_ttft and the mean
  /// inter-token latency met the (possibly derived) per-token budget.
  /// Exposed for the accounting-math unit test.
  static bool attains_slo(const ServeConfig& cfg, sim::Time ttft,
                          sim::Time mean_tpot);

  obs::MetricsRegistry& registry() { return *reg_; }
  sim::EventQueue& queue() { return q_; }
  cxl::Link& link() { return link_; }
  const KvCacheManager& kv() const { return kv_; }
  const ServeReport& report() const { return report_; }

  /// Wire the causal DAG (must outlive the scheduler; nullptr = off): the
  /// graph becomes the queue's provenance sink, KV landings are tagged,
  /// and every iteration appends stall/compute/idle nodes to an explicit
  /// chain. Each prefill also records the request's TTFT terminal so
  /// request latency can be attributed end-to-end.
  void set_causal(obs::causal::CausalGraph* g) {
    causal_ = g;
    q_.set_causal_sink(g);
  }

  /// One record per prefilled request (causal wiring only): the TTFT
  /// window [arrival, first token] and the chain node it ended on —
  /// obs::causal::critical_path over it attributes the wait to earlier
  /// iterations' compute, KV stalls, and idle gaps.
  struct TtftRecord {
    std::uint64_t id = 0;
    sim::Time arrival = 0.0;
    sim::Time first_token = 0.0;
    std::uint32_t terminal = sim::kNoCausalNode;
  };
  const std::vector<TtftRecord>& ttft_records() const { return ttft_records_; }

 private:
  struct Session {
    Request req;
    sim::Time prefill_end = 0.0;
    sim::Time last_token = 0.0;
    sim::Time ttft = 0.0;
    std::uint32_t generated = 0;
  };

  void drain_arrivals();
  void prefill_iteration();
  void decode_iteration();
  void complete(std::uint64_t id, sim::Time t);
  void finalize();
  /// Append a [from, to] node to the iteration chain (no-op unwired).
  void causal_note(obs::causal::Category cat, sim::Time from, sim::Time to);

  ServeConfig cfg_;
  std::uint64_t kvpt_;  ///< kv_bytes_per_token(cfg_.model).
  obs::MetricsRegistry local_reg_;
  obs::MetricsRegistry* reg_;

  sim::EventQueue q_;
  cxl::Link link_;
  KvCacheManager kv_;
  ArrivalProcess arrivals_;

  std::map<std::uint64_t, Session> sessions_;
  std::deque<std::uint64_t> waiting_;
  std::deque<std::uint64_t> running_;
  std::optional<Request> pending_;
  ServeReport report_;
  obs::causal::CausalGraph* causal_ = nullptr;
  std::uint32_t causal_last_ = sim::kNoCausalNode;
  std::vector<TtftRecord> ttft_records_;

  obs::Hist& ttft_hist_;
  obs::Hist& tpot_hist_;
  obs::Counter& c_arrivals_;
  obs::Counter& c_admitted_;
  obs::Counter& c_rejected_;
  obs::Counter& c_completed_;
  obs::Counter& c_slo_;
  obs::Counter& c_tokens_;
  obs::Counter& c_prefill_iters_;
  obs::Counter& c_decode_iters_;
  obs::Counter& c_prefill_tokens_;
  obs::Counter& c_stall_us_;
};

}  // namespace teco::serve
