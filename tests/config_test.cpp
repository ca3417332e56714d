// Error-path coverage for the AI-model configuration parser, including the
// fault-tolerance keys (ft_mode / ft_checkpoint_interval / ft_seed).
#include "core/config.hpp"

#include <gtest/gtest.h>

#include "check/protocol_checker.hpp"

namespace teco {
namespace {

TEST(ConfigParser, ParsesAllKnownKeys) {
  const auto parsed = core::parse_config(R"(
    # full configuration
    protocol        = invalidation
    dba             = off
    act_aft_steps   = 42
    dirty_bytes     = 3
    giant_cache_mib = 256
    trace           = on
    check           = count
    ft_mode         = incremental
    ft_checkpoint_interval = 25
    ft_seed         = 99
    obs_jsonl_path  = /tmp/steps.jsonl
    obs_trace_path  = /tmp/trace.json
    obs_step_log    = on
  )");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.unknown_keys.empty());
  EXPECT_EQ(parsed.session.protocol, coherence::Protocol::kInvalidation);
  EXPECT_FALSE(parsed.session.dba_enabled);
  EXPECT_EQ(parsed.session.act_aft_steps, 42u);
  EXPECT_EQ(parsed.session.dirty_bytes, 3u);
  EXPECT_EQ(parsed.session.giant_cache_capacity, 256ull << 20);
  EXPECT_TRUE(parsed.session.enable_trace);
  EXPECT_EQ(parsed.session.check, check::CheckLevel::kCount);
  EXPECT_EQ(parsed.session.ft_mode, core::FtMode::kIncremental);
  EXPECT_EQ(parsed.session.ft_checkpoint_interval, 25u);
  EXPECT_EQ(parsed.session.ft_seed, 99u);
  EXPECT_EQ(parsed.session.obs_jsonl_path, "/tmp/steps.jsonl");
  EXPECT_EQ(parsed.session.obs_trace_path, "/tmp/trace.json");
  EXPECT_TRUE(parsed.session.obs_step_log);
}

TEST(ConfigParser, ObsStepLogRejectsNonBool) {
  EXPECT_FALSE(core::parse_config("obs_step_log = verbose").ok());
  EXPECT_TRUE(core::parse_config("obs_step_log = off").ok());
}

TEST(ConfigParser, UnknownKeysAreCollectedNotFatal) {
  const auto parsed = core::parse_config("frobnicate = 7\ndba = on\n");
  EXPECT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.unknown_keys.size(), 1u);
  EXPECT_EQ(parsed.unknown_keys[0], "frobnicate");
  EXPECT_TRUE(parsed.session.dba_enabled);
}

TEST(ConfigParser, MissingEqualsIsAnError) {
  const auto parsed = core::parse_config("protocol update\n");
  ASSERT_EQ(parsed.errors.size(), 1u);
  EXPECT_NE(parsed.errors[0].find("key = value"), std::string::npos);
}

TEST(ConfigParser, MalformedValuesReportLineNumbers) {
  const auto parsed = core::parse_config(
      "protocol = sideways\n"
      "dba = maybe\n"
      "act_aft_steps = minus-one\n"
      "giant_cache_mib = 0\n"
      "trace = sometimes\n"
      "check = pedantic\n");
  EXPECT_EQ(parsed.errors.size(), 6u);
  EXPECT_NE(parsed.errors[0].find("line 1"), std::string::npos);
  EXPECT_NE(parsed.errors[5].find("line 6"), std::string::npos);
}

TEST(ConfigParser, DirtyBytesOutOfRange) {
  EXPECT_FALSE(core::parse_config("dirty_bytes = 5").ok());
  EXPECT_FALSE(core::parse_config("dirty_bytes = -1").ok());
  EXPECT_FALSE(core::parse_config("dirty_bytes = two").ok());
  EXPECT_TRUE(core::parse_config("dirty_bytes = 4").ok());
  EXPECT_TRUE(core::parse_config("dirty_bytes = 0").ok());
}

TEST(ConfigParser, ActAftStepsRejectsNonIntegers) {
  EXPECT_FALSE(core::parse_config("act_aft_steps = 1.5").ok());
  EXPECT_FALSE(core::parse_config("act_aft_steps = 10x").ok());
  EXPECT_TRUE(core::parse_config("act_aft_steps = 0").ok());
}

TEST(ConfigParser, FtModeRejectsUnknownValues) {
  const auto parsed = core::parse_config("ft_mode = always");
  ASSERT_EQ(parsed.errors.size(), 1u);
  EXPECT_NE(parsed.errors[0].find("ft_mode"), std::string::npos);
  EXPECT_EQ(parsed.session.ft_mode, core::FtMode::kOff);
}

TEST(ConfigParser, FtCheckpointIntervalMustBePositive) {
  EXPECT_FALSE(core::parse_config("ft_checkpoint_interval = 0").ok());
  EXPECT_FALSE(core::parse_config("ft_checkpoint_interval = ten").ok());
  EXPECT_FALSE(core::parse_config("ft_checkpoint_interval = -5").ok());
  const auto ok = core::parse_config("ft_checkpoint_interval = 1");
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.session.ft_checkpoint_interval, 1u);
}

TEST(ConfigParser, FtSeedRejectsNegativeAndJunk) {
  EXPECT_FALSE(core::parse_config("ft_seed = -1").ok());
  EXPECT_FALSE(core::parse_config("ft_seed = 0xbeef").ok());
  const auto ok = core::parse_config("ft_seed = 0");
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.session.ft_seed, 0u);
}

TEST(ConfigParser, CheckHbImpliesStrictAndRoundTrips) {
  const auto parsed = core::parse_config("check = hb");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.session.check, check::CheckLevel::kStrict);
  EXPECT_TRUE(parsed.session.check_hb);
  // The serializer writes the hb spelling back, not plain "strict".
  const std::string text = core::to_config_text(parsed.session);
  EXPECT_NE(text.find("check = hb"), std::string::npos);
  const auto again = core::parse_config(text);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.session.check_hb);
  EXPECT_EQ(again.session.check, check::CheckLevel::kStrict);
}

TEST(ConfigParser, CheckLastValueWins) {
  // A later check line fully replaces an earlier one — including turning
  // the hb recorder back off.
  const auto downgraded = core::parse_config("check = hb\ncheck = count\n");
  ASSERT_TRUE(downgraded.ok());
  EXPECT_FALSE(downgraded.session.check_hb);
  EXPECT_EQ(downgraded.session.check, check::CheckLevel::kCount);
  const auto upgraded = core::parse_config("check = off\ncheck = hb\n");
  ASSERT_TRUE(upgraded.ok());
  EXPECT_TRUE(upgraded.session.check_hb);
  EXPECT_EQ(upgraded.session.check, check::CheckLevel::kStrict);
}

TEST(ConfigParser, RoundTripsThroughSerializer) {
  core::SessionConfig cfg;
  cfg.protocol = coherence::Protocol::kInvalidation;
  cfg.dba_enabled = false;
  cfg.act_aft_steps = 7;
  cfg.dirty_bytes = 1;
  cfg.check = check::CheckLevel::kOff;
  cfg.ft_mode = core::FtMode::kFull;
  cfg.ft_checkpoint_interval = 12;
  cfg.ft_seed = 31337;
  cfg.obs_jsonl_path = "/tmp/s.jsonl";
  cfg.obs_step_log = true;
  const auto parsed = core::parse_config(core::to_config_text(cfg));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.unknown_keys.empty());
  EXPECT_EQ(parsed.session.ft_mode, core::FtMode::kFull);
  EXPECT_EQ(parsed.session.ft_checkpoint_interval, 12u);
  EXPECT_EQ(parsed.session.ft_seed, 31337u);
  EXPECT_EQ(parsed.session.dirty_bytes, 1u);
  EXPECT_EQ(parsed.session.obs_jsonl_path, "/tmp/s.jsonl");
  EXPECT_TRUE(parsed.session.obs_step_log);
  // Empty path keys are omitted from the serialized text entirely.
  EXPECT_EQ(core::to_config_text(core::SessionConfig{})
                .find("obs_trace_path"),
            std::string::npos);
}

TEST(ConfigParser, CausalKeysParseAndRoundTrip) {
  const auto parsed = core::parse_config(
      "obs_causal           = on\n"
      "obs_causal_max_nodes = 4096\n"
      "obs_trace_max_spans  = 128\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.unknown_keys.empty());
  EXPECT_TRUE(parsed.session.obs_causal);
  EXPECT_EQ(parsed.session.obs_causal_max_nodes, 4096u);
  EXPECT_EQ(parsed.session.obs_trace_max_spans, 128u);

  const auto again = core::parse_config(core::to_config_text(parsed.session));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.session.obs_causal);
  EXPECT_EQ(again.session.obs_causal_max_nodes, 4096u);
  EXPECT_EQ(again.session.obs_trace_max_spans, 128u);

  EXPECT_FALSE(core::parse_config("obs_causal = maybe").ok());
  EXPECT_FALSE(core::parse_config("obs_causal_max_nodes = 0").ok());
  EXPECT_FALSE(core::parse_config("obs_causal_max_nodes = -4").ok());
}

TEST(ConfigParser, ShippedExampleParsesClean) {
  const auto parsed = core::load_config_file(TECO_EXAMPLE_CFG);
  EXPECT_TRUE(parsed.errors.empty())
      << (parsed.errors.empty() ? "" : parsed.errors.front());
  EXPECT_TRUE(parsed.unknown_keys.empty())
      << (parsed.unknown_keys.empty() ? "" : parsed.unknown_keys.front());
}

TEST(ConfigParser, MissingFileIsReported) {
  const auto parsed = core::load_config_file("/nonexistent/teco.cfg");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.errors[0].find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace teco
