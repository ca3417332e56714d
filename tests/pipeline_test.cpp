// Pipeline-simulation tests + config-file and link-reliability tests.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/config.hpp"
#include "cxl/reliability.hpp"
#include "dl/model_zoo.hpp"
#include "offload/pipeline_sim.hpp"

namespace teco::offload {
namespace {

const Calibration& cal() { return default_calibration(); }

TEST(Pipeline, EmptyRun) {
  const auto r = simulate_pipeline(RuntimeKind::kTecoCxl,
                                   dl::bert_large_cased(), 4, 0, cal());
  EXPECT_TRUE(r.step_durations.empty());
  EXPECT_DOUBLE_EQ(r.total, 0.0);
}

TEST(Pipeline, SteadyStateMatchesSingleStepModel) {
  // The explicit multi-step pipeline must converge to the steady-state
  // single-step estimate for every non-DPU runtime.
  for (const auto kind :
       {RuntimeKind::kZeroOffload, RuntimeKind::kTecoCxl,
        RuntimeKind::kTecoReduction}) {
    const auto pipe = simulate_pipeline(kind, dl::bert_large_cased(), 4, 8,
                                        cal());
    const auto step =
        simulate_step(kind, dl::bert_large_cased(), 4, cal()).total();
    EXPECT_NEAR(pipe.steady_step, step, 0.03 * step)
        << to_string(kind);
  }
}

TEST(Pipeline, FirstStepEqualsSingleStepModel) {
  // Both run the same grad_phase()/param_phase() calls: with no history,
  // the first pipelined step IS the single-step timeline.
  for (const auto kind :
       {RuntimeKind::kZeroOffload, RuntimeKind::kTecoCxl,
        RuntimeKind::kTecoReduction}) {
    const auto pipe = simulate_pipeline(kind, dl::bert_large_cased(), 4, 3,
                                        cal());
    const auto step =
        simulate_step(kind, dl::bert_large_cased(), 4, cal()).total();
    EXPECT_NEAR(pipe.first_step, step, 1e-12 * step) << to_string(kind);
  }
}

TEST(Pipeline, DurationsSumToTotalWithinTail) {
  const auto r = simulate_pipeline(RuntimeKind::kZeroOffload,
                                   dl::gpt2(), 4, 6, cal());
  const double sum = std::accumulate(r.step_durations.begin(),
                                     r.step_durations.end(), 0.0);
  EXPECT_NEAR(sum, r.total, 1e-9);
}

TEST(Pipeline, DpuOverlapsTransferAcrossSteps) {
  const auto dpu = simulate_pipeline(RuntimeKind::kZeroOffloadDpu,
                                     dl::bert_large_cased(), 4, 10, cal());
  const auto base = simulate_pipeline(RuntimeKind::kZeroOffload,
                                      dl::bert_large_cased(), 4, 10, cal());
  EXPECT_LT(dpu.steady_step, base.steady_step);
  // And the DPU pipeline's steady step stays near the single-step DPU
  // estimate (the overlap rule is the same).
  const auto est = simulate_step(RuntimeKind::kZeroOffloadDpu,
                                 dl::bert_large_cased(), 4, cal()).total();
  EXPECT_NEAR(dpu.steady_step, est, 0.06 * est);
}

TEST(Pipeline, InvalidationFallsBackToComposition) {
  const auto r = simulate_pipeline(RuntimeKind::kCxlInvalidation,
                                   dl::gpt2(), 4, 5, cal());
  const auto per = simulate_step(RuntimeKind::kCxlInvalidation, dl::gpt2(),
                                 4, cal()).total();
  EXPECT_NEAR(r.total, 5 * per, 1e-9);
}

TEST(Pipeline, TecoStepsAreIndependentOfHistory) {
  // With fences closing every producer window, no TECO step should be
  // slowed by its predecessor: all durations equal after the first.
  const auto r = simulate_pipeline(RuntimeKind::kTecoReduction,
                                   dl::t5_large(), 4, 6, cal());
  for (std::size_t i = 2; i < r.step_durations.size(); ++i) {
    EXPECT_NEAR(r.step_durations[i], r.step_durations[1],
                1e-3 * r.step_durations[1]);
  }
}

}  // namespace
}  // namespace teco::offload

namespace teco::core {
namespace {

TEST(ConfigFile, ParsesFullExample) {
  const auto parsed = parse_config(R"(# teco.cfg
protocol        = update
dba             = on
act_aft_steps   = 500
dirty_bytes     = 2
giant_cache_mib = 2048   # Table III sizing for T5-large
trace           = off
)");
  ASSERT_TRUE(parsed.ok()) << parsed.errors.front();
  EXPECT_EQ(parsed.session.protocol, coherence::Protocol::kUpdate);
  EXPECT_TRUE(parsed.session.dba_enabled);
  EXPECT_EQ(parsed.session.act_aft_steps, 500u);
  EXPECT_EQ(parsed.session.dirty_bytes, 2);
  EXPECT_EQ(parsed.session.giant_cache_capacity, 2048ull << 20);
  EXPECT_FALSE(parsed.session.enable_trace);
  EXPECT_TRUE(parsed.unknown_keys.empty());
}

TEST(ConfigFile, ReportsErrorsWithLineNumbers) {
  const auto parsed = parse_config("protocol = sideways\nnot a pair\n"
                                   "dirty_bytes = 9\n");
  EXPECT_FALSE(parsed.ok());
  ASSERT_EQ(parsed.errors.size(), 3u);
  EXPECT_NE(parsed.errors[0].find("line 1"), std::string::npos);
  EXPECT_NE(parsed.errors[1].find("line 2"), std::string::npos);
  EXPECT_NE(parsed.errors[2].find("line 3"), std::string::npos);
}

TEST(ConfigFile, CollectsUnknownKeys) {
  const auto parsed = parse_config("learning_rate = 0.001\ndba = on\n");
  EXPECT_TRUE(parsed.ok());  // Unknown keys are not errors.
  ASSERT_EQ(parsed.unknown_keys.size(), 1u);
  EXPECT_EQ(parsed.unknown_keys[0], "learning_rate");
}

TEST(ConfigFile, RoundTripsThroughText) {
  SessionConfig cfg;
  cfg.protocol = coherence::Protocol::kInvalidation;
  cfg.dba_enabled = false;
  cfg.act_aft_steps = 123;
  cfg.dirty_bytes = 3;
  cfg.giant_cache_capacity = 512ull << 20;
  cfg.enable_trace = true;
  const auto parsed = parse_config(to_config_text(cfg));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.session.protocol, cfg.protocol);
  EXPECT_EQ(parsed.session.act_aft_steps, cfg.act_aft_steps);
  EXPECT_EQ(parsed.session.dirty_bytes, cfg.dirty_bytes);
  EXPECT_EQ(parsed.session.giant_cache_capacity, cfg.giant_cache_capacity);
  EXPECT_EQ(parsed.session.enable_trace, cfg.enable_trace);
}

TEST(ConfigFile, MissingFileIsAnError) {
  const auto parsed = load_config_file("/nonexistent/teco.cfg");
  EXPECT_FALSE(parsed.ok());
}

}  // namespace
}  // namespace teco::core

namespace teco::cxl {
namespace {

TEST(Reliability, NegligibleAtSpecBer) {
  const RetryModel m;  // BER 1e-12.
  EXPECT_LT(m.flit_error_probability(), 1e-8);
  EXPECT_NEAR(m.throughput_derate(), 1.0, 1e-8);
  EXPECT_LT(m.expected_retry_latency(), 1e-12);
}

TEST(Reliability, DegradesGracefullyAtHighBer) {
  RetryModel bad;
  bad.bit_error_rate = 1e-6;  // 6 orders worse than spec.
  const double p = bad.flit_error_probability();
  EXPECT_GT(p, 1e-4);
  EXPECT_LT(p, 1e-2);
  EXPECT_LT(bad.throughput_derate(), 1.0);
  EXPECT_GT(bad.throughput_derate(), 0.99);  // Still <1 % goodput loss.
  EXPECT_GT(bad.expected_retry_latency(), 0.0);
}

TEST(Reliability, MonotoneInBer) {
  RetryModel a, b;
  a.bit_error_rate = 1e-10;
  b.bit_error_rate = 1e-7;
  EXPECT_LT(a.flit_error_probability(), b.flit_error_probability());
  EXPECT_GT(a.throughput_derate(), b.throughput_derate());
}

}  // namespace
}  // namespace teco::cxl
