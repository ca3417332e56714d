// teco::serve — arrival processes, admission control, prefill/decode
// scheduling, KV paging over the shared CXL link, SLO accounting, and
// seeded bit-identical replay.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/arrival.hpp"
#include "serve/kv_cache.hpp"
#include "serve/scheduler.hpp"
#include "serve/serve.hpp"
#include "tier/placement_planner.hpp"

namespace {

// TECO_OBS=OFF compiles metric recording to no-ops; tests asserting on
// recorded values skip (whole-test) or drop just those assertions.
#ifdef TECO_OBS_DISABLED
#define TECO_SKIP_WITHOUT_OBS() \
  GTEST_SKIP() << "telemetry recording compiled out (TECO_OBS=OFF)"
#else
#define TECO_SKIP_WITHOUT_OBS() (void)0
#endif


using namespace teco;

constexpr std::uint64_t kMiB = 1ull << 20;

TEST(ServeArrival, PoissonIsSeededAndRateFaithful) {
  serve::ServeConfig cfg;
  cfg.arrival = serve::ArrivalKind::kPoisson;
  cfg.rate_rps = 64.0;
  cfg.n_requests = 4000;
  cfg.seed = 9;

  serve::ArrivalProcess a(cfg);
  serve::ArrivalProcess b(cfg);
  sim::Time last = 0.0;
  sim::Time final_arrival = 0.0;
  for (;;) {
    const auto ra = a.next();
    const auto rb = b.next();
    ASSERT_EQ(ra.has_value(), rb.has_value());
    if (!ra.has_value()) break;
    // Bit-identical replay, monotone arrival times, sane geometry.
    EXPECT_EQ(ra->arrival, rb->arrival);
    EXPECT_EQ(ra->prompt_tokens, rb->prompt_tokens);
    EXPECT_EQ(ra->decode_tokens, rb->decode_tokens);
    EXPECT_GE(ra->arrival, last);
    EXPECT_GE(ra->prompt_tokens, 16u);
    last = ra->arrival;
    final_arrival = ra->arrival;
  }
  // 4000 arrivals at 64 rps span ~62.5 s; allow generous stochastic slack.
  EXPECT_NEAR(final_arrival, 4000.0 / 64.0, 10.0);
}

TEST(ServeArrival, BurstyPreservesLongRunRate) {
  serve::ServeConfig cfg;
  cfg.arrival = serve::ArrivalKind::kBursty;
  cfg.rate_rps = 64.0;
  cfg.n_requests = 20000;
  cfg.seed = 5;
  serve::ArrivalProcess a(cfg);
  sim::Time final_arrival = 0.0;
  std::size_t n = 0;
  while (const auto r = a.next()) {
    final_arrival = r->arrival;
    ++n;
  }
  ASSERT_EQ(n, cfg.n_requests);
  // The MMPP's calm/burst rates are scaled so the time-averaged offered
  // load still equals rate_rps (within stochastic noise at n = 2e4).
  EXPECT_NEAR(static_cast<double>(n) / final_arrival, 64.0, 6.0);
}

/// Trace helper: n requests at the given arrival times.
serve::ServeConfig trace_config(std::vector<serve::TraceRequest> reqs) {
  serve::ServeConfig cfg;
  cfg.arrival = serve::ArrivalKind::kTrace;
  cfg.trace = std::move(reqs);
  return cfg;
}

TEST(ServeScheduler, AdmissionRejectsBeyondCapacity) {
  // Three simultaneous arrivals into two session slots: the third must be
  // refused and counted against SLO attainment.
  serve::ServeConfig cfg = trace_config({{0.0, 64, 8},
                                         {0.0, 64, 8},
                                         {0.0, 64, 8}});
  cfg.max_sessions = 2;
  serve::ServeScheduler sched(cfg);
  const serve::ServeReport rep = sched.run();

  EXPECT_EQ(rep.offered, 3u);
  EXPECT_EQ(rep.admitted, 2u);
  EXPECT_EQ(rep.rejected, 1u);
  EXPECT_EQ(rep.completed, 2u);
  EXPECT_LE(rep.slo_attained, 2u);
  // Rejections count against the attainment denominator.
  EXPECT_LE(rep.slo_attainment(), 2.0 / 3.0);
#ifndef TECO_OBS_DISABLED
  EXPECT_EQ(sched.registry().value("serve.rejected"), 1.0);
  EXPECT_EQ(sched.registry().value("serve.admitted"), 2.0);
#endif
}

TEST(ServeScheduler, PrefillPrecedesDecodeAndSetsTtft) {
  serve::ServeConfig cfg = trace_config({{0.0, 32, 4}});
  serve::ServeScheduler sched(cfg);
  const serve::ServeReport rep = sched.run();

  EXPECT_EQ(rep.completed, 1u);
  // Prefill emits the first token; three decode iterations finish the rest.
  EXPECT_EQ(rep.tokens_generated, 4u);
#ifndef TECO_OBS_DISABLED
  EXPECT_EQ(sched.registry().value("serve.iterations.prefill"), 1.0);
  EXPECT_EQ(sched.registry().value("serve.iterations.decode"), 3.0);
#endif
  // No queueing, no paging: TTFT is the prefill iteration (up to the
  // histogram's 10 ms bin resolution).
  EXPECT_NEAR(rep.ttft.p50, cfg.cost.prefill_time(cfg.model, 32), 0.011);
  // Makespan = prefill + 3 decode iterations, all back to back.
  EXPECT_GT(rep.makespan, cfg.cost.prefill_time(cfg.model, 32));
  EXPECT_EQ(rep.slo_attained, 1u);
}

TEST(ServeScheduler, KvPagingMeetsDecodeDeadlines) {
  // 12 sessions x ~9.4 MiB of prompt KV (~120 MiB working set) against a
  // 64 MiB HBM budget and a 4-wide decode batch: rotation forces
  // continuous paging, but one batch (~38 MiB) still leaves prefetch
  // headroom. Every decode deadline is met — the batch blocks until its
  // KV is resident — and the lookahead policy hides (most of) the latency
  // the strawman exposes.
  std::vector<serve::TraceRequest> reqs(12, {0.0, 256, 32});
  auto run = [&](tier::Policy policy) {
    serve::ServeConfig cfg = trace_config(reqs);
    cfg.policy = policy;
    cfg.max_batch = 4;
    cfg.hbm_kv_bytes = 96 * kMiB;
    cfg.prefetch_depth = 2;
    serve::ServeScheduler sched(cfg);
    return sched.run();
  };
  const serve::ServeReport naive = run(tier::Policy::kNaiveSwap);
  const serve::ServeReport smart = run(tier::Policy::kMinStall);

  // Both complete every request (paging delays, never deadlocks).
  EXPECT_EQ(naive.completed, 12u);
  EXPECT_EQ(smart.completed, 12u);
  // KV really paged: bytes moved down the link, evictions happened.
  EXPECT_GT(naive.kv_pagein_bytes, 0u);
  EXPECT_GT(smart.kv_pagein_bytes, 0u);
  EXPECT_GT(naive.kv_demand_fetches, 0u);
  // Write-through evictions are clean-copy drops (no wire eviction).
  EXPECT_GT(naive.kv_clean_drops + smart.kv_clean_drops, 0u);
  EXPECT_EQ(naive.kv_evict_bytes, 0u);
  // The lookahead policy actually prefetches, and its exposed stall never
  // exceeds the demand-fetch strawman's.
  EXPECT_GT(smart.kv_prefetches, 0u);
  EXPECT_LE(smart.kv_stall, naive.kv_stall);
  EXPECT_GT(naive.kv_stall, 0.0);
  // The HBM budget was honored up to transient overcommit of one batch.
  EXPECT_GT(naive.hbm_peak_bytes, 0u);
}

TEST(ServeScheduler, KvTrafficSharesLinkWithCoherenceCounters) {
  TECO_SKIP_WITHOUT_OBS();
  // The acceptance check: one run populates BOTH the serve.* namespace and
  // the link's cxl.*/coherence.* namespaces, because KV paging and the
  // write-through stream ride the same cxl::Link.
  std::vector<serve::TraceRequest> reqs(8, {0.0, 256, 16});
  serve::ServeConfig cfg = trace_config(reqs);
  cfg.max_batch = 2;
  cfg.hbm_kv_bytes = 24 * kMiB;
  serve::ServeScheduler sched(cfg);
  sched.run();
  obs::MetricsRegistry& reg = sched.registry();
  EXPECT_GT(reg.value("serve.tokens"), 0.0);
  EXPECT_GT(reg.value("serve.kv.pagein_bytes"), 0.0);
  EXPECT_GT(reg.value("cxl.down.bytes"), 0.0);  // Page-ins.
  EXPECT_GT(reg.value("cxl.up.bytes"), 0.0);    // Write-through pushes.
  EXPECT_GT(reg.value("coherence.s2m.flushdata"), 0.0);
  EXPECT_GT(reg.value("coherence.m2s.msgs"), 0.0);
}

TEST(ServeScheduler, WritethroughOffPaysWireEvictions) {
  std::vector<serve::TraceRequest> reqs(8, {0.0, 256, 16});
  serve::ServeConfig cfg = trace_config(reqs);
  cfg.max_batch = 2;
  cfg.hbm_kv_bytes = 24 * kMiB;
  cfg.kv_writethrough = false;
  serve::ServeScheduler sched(cfg);
  const serve::ServeReport rep = sched.run();
  // Invalidation-style domain: evictions are full transfers, not drops.
  EXPECT_GT(rep.kv_evict_bytes, 0u);
}

TEST(ServeScheduler, SloAccountingMath) {
  serve::ServeConfig cfg;
  cfg.slo_ttft = sim::ms(250);
  cfg.slo_tpot = 0.0;  // Derive: 25 ms per token.
  EXPECT_DOUBLE_EQ(cfg.effective_slo_tpot(), sim::ms(25));

  EXPECT_TRUE(serve::ServeScheduler::attains_slo(cfg, sim::ms(250),
                                                 sim::ms(25)));
  EXPECT_FALSE(serve::ServeScheduler::attains_slo(cfg, sim::ms(251),
                                                  sim::ms(1)));
  EXPECT_FALSE(serve::ServeScheduler::attains_slo(cfg, sim::ms(1),
                                                  sim::ms(26)));
  cfg.slo_tpot = sim::ms(50);
  EXPECT_DOUBLE_EQ(cfg.effective_slo_tpot(), sim::ms(50));
  EXPECT_TRUE(serve::ServeScheduler::attains_slo(cfg, sim::ms(100),
                                                 sim::ms(40)));

  // Report-level arithmetic.
  serve::ServeReport rep;
  rep.offered = 10;
  rep.slo_attained = 7;
  EXPECT_DOUBLE_EQ(rep.slo_attainment(), 0.7);
  rep.completed = 8;
  rep.makespan = 4.0;
  EXPECT_DOUBLE_EQ(rep.goodput_rps(), 2.0);
}

TEST(ServeScheduler, SeededRunReplaysBitIdentically) {
  // The full acceptance property: two schedulers built from one config —
  // bursty arrivals, tight HBM, paging, the lot — produce identical
  // reports AND identical obs registry snapshots, sample for sample.
  serve::ServeConfig cfg;
  cfg.arrival = serve::ArrivalKind::kBursty;
  cfg.rate_rps = 200.0;
  cfg.n_requests = 60;
  cfg.seed = 31;
  cfg.max_batch = 4;
  cfg.max_sessions = 24;
  cfg.hbm_kv_bytes = 48 * kMiB;

  serve::ServeScheduler s1(cfg);
  serve::ServeScheduler s2(cfg);
  const serve::ServeReport r1 = s1.run();
  const serve::ServeReport r2 = s2.run();

  EXPECT_EQ(r1.offered, r2.offered);
  EXPECT_EQ(r1.admitted, r2.admitted);
  EXPECT_EQ(r1.rejected, r2.rejected);
  EXPECT_EQ(r1.completed, r2.completed);
  EXPECT_EQ(r1.slo_attained, r2.slo_attained);
  EXPECT_EQ(r1.tokens_generated, r2.tokens_generated);
  EXPECT_EQ(r1.makespan, r2.makespan);  // Bitwise: same double.
  EXPECT_EQ(r1.ttft.p50, r2.ttft.p50);
  EXPECT_EQ(r1.ttft.p999, r2.ttft.p999);
  EXPECT_EQ(r1.tpot.p99, r2.tpot.p99);
  EXPECT_EQ(r1.kv_pagein_bytes, r2.kv_pagein_bytes);
  EXPECT_EQ(r1.kv_stall, r2.kv_stall);

  const auto snap1 = s1.registry().samples();
  const auto snap2 = s2.registry().samples();
  ASSERT_EQ(snap1.size(), snap2.size());
  for (std::size_t i = 0; i < snap1.size(); ++i) {
    EXPECT_EQ(snap1[i].name, snap2[i].name);
    EXPECT_EQ(snap1[i].value, snap2[i].value) << snap1[i].name;
  }
  // And the snapshot actually contains both namespaces plus p999 samples.
  bool saw_p999 = false;
  for (const auto& s : snap1) saw_p999 |= s.name == "serve.ttft_us.p999";
  EXPECT_TRUE(saw_p999);
}

TEST(ServeVictimOrder, PoliciesRankCandidatesDistinctly) {
  using tier::VictimCandidate;
  // c0: small+hot, c1: large+cold, c2: needed furthest in the future.
  std::vector<VictimCandidate> base = {
      {0, 1 * kMiB, 0.1, 0.1},
      {1, 64 * kMiB, 5.0, 0.2},
      {2, 2 * kMiB, 1.0, 9.0},
  };
  auto v = base;
  tier::order_victims(tier::Policy::kNaiveSwap, v);
  EXPECT_EQ(v[0].id, 0u);  // Id order, no intelligence.

  v = base;
  tier::order_victims(tier::Policy::kMinStall, v);
  EXPECT_EQ(v[0].id, 2u);  // Belady: furthest next use first.

  v = base;
  tier::order_victims(tier::Policy::kKnapsack, v);
  EXPECT_EQ(v[0].id, 1u);  // Byte-seconds: cold-and-large first.
}

}  // namespace
