// Unit + property tests for dirty-byte aggregation.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "dba/aggregator.hpp"
#include "dba/dba_register.hpp"
#include "dba/disaggregator.hpp"
#include "sim/rng.hpp"

namespace teco::dba {
namespace {

using Line = mem::BackingStore::Line;

Line random_line(sim::Rng& rng) {
  Line l;
  for (auto& b : l) b = static_cast<std::uint8_t>(rng.next_below(256));
  return l;
}

TEST(DbaRegister, PaperExampleEncoding) {
  // Section V-B: active with dirty_bytes = 2 encodes as 1010b.
  EXPECT_EQ(DbaRegister(true, 2).encode(), 0b1010u);
  EXPECT_EQ(DbaRegister(false, 2).encode(), 0b0010u);
  EXPECT_EQ(DbaRegister(true, 4).encode(), 0b1100u);
}

TEST(DbaRegister, DecodeRoundTrip) {
  for (std::uint8_t bits = 0; bits < 16; ++bits) {
    const auto dirty = static_cast<std::uint8_t>(bits & 0b0111u);
    if (dirty > 4) continue;  // 5..7 are reserved encodings.
    const auto r = DbaRegister::decode(bits);
    EXPECT_EQ(r.encode(), bits);
    EXPECT_EQ(r.active(), (bits & 0b1000u) != 0);
    EXPECT_EQ(r.dirty_bytes(), dirty);
  }
}

TEST(DbaRegister, RejectsBadLength) {
  EXPECT_THROW(DbaRegister(true, 5), std::invalid_argument);
}

TEST(DbaRegister, TrimsOnlyWhenActiveAndPartial) {
  EXPECT_TRUE(DbaRegister(true, 2).trims());
  EXPECT_FALSE(DbaRegister(false, 2).trims());
  EXPECT_FALSE(DbaRegister(true, 4).trims());  // Whole word: bypass.
  EXPECT_TRUE(DbaRegister(true, 0).trims());   // Degenerate: sends nothing.
}

TEST(Aggregator, PayloadSizes) {
  EXPECT_EQ(payload_bytes(0), 0u);
  EXPECT_EQ(payload_bytes(1), 16u);
  EXPECT_EQ(payload_bytes(2), 32u);
  EXPECT_EQ(payload_bytes(3), 48u);
  EXPECT_EQ(payload_bytes(4), 64u);
  EXPECT_EQ(Aggregator(DbaRegister(true, 2)).packed_bytes(), 32u);
  EXPECT_EQ(Aggregator(DbaRegister(false, 2)).packed_bytes(), 64u);
}

TEST(Aggregator, TakesLeastSignificantBytes) {
  Line line{};
  // Word 0 = 0xAABBCCDD little-endian: bytes DD CC BB AA.
  line[0] = 0xDD;
  line[1] = 0xCC;
  line[2] = 0xBB;
  line[3] = 0xAA;
  Aggregator agg(DbaRegister(true, 2));
  const auto payload = agg.pack(line);
  ASSERT_EQ(payload.size(), 32u);
  // Least significant two bytes of word 0 (0xCCDD) in memory order.
  EXPECT_EQ(payload[0], 0xDD);
  EXPECT_EQ(payload[1], 0xCC);
}

TEST(Aggregator, BypassReturnsFullLine) {
  sim::Rng rng(1);
  const Line line = random_line(rng);
  Aggregator agg(DbaRegister(false, 2));
  const auto payload = agg.pack(line);
  ASSERT_EQ(payload.size(), 64u);
  EXPECT_EQ(std::memcmp(payload.data(), line.data(), 64), 0);
}

TEST(Disaggregator, RejectsWrongPayloadSize) {
  Disaggregator dis(DbaRegister(true, 2));
  const Line old{};
  std::vector<std::uint8_t> wrong(16);
  EXPECT_THROW((void)dis.merge(old, wrong), std::invalid_argument);
  Disaggregator bypass(DbaRegister(false, 2));
  EXPECT_THROW((void)bypass.merge(old, wrong), std::invalid_argument);
}

TEST(Disaggregator, MergeKeepsHighBytes) {
  Line old{};
  Line fresh{};
  for (std::size_t i = 0; i < 64; ++i) {
    old[i] = 0x11;
    fresh[i] = 0x99;
  }
  Aggregator agg(DbaRegister(true, 2));
  Disaggregator dis(DbaRegister(true, 2));
  const auto merged = dis.merge(old, agg.pack(fresh));
  for (std::size_t w = 0; w < 16; ++w) {
    EXPECT_EQ(merged[w * 4 + 0], 0x99);  // Low bytes from the new data.
    EXPECT_EQ(merged[w * 4 + 1], 0x99);
    EXPECT_EQ(merged[w * 4 + 2], 0x11);  // High bytes stay stale.
    EXPECT_EQ(merged[w * 4 + 3], 0x11);
  }
  EXPECT_EQ(dis.extra_reads(), 1u);
}

class DbaRoundTrip : public ::testing::TestWithParam<std::uint8_t> {};

TEST_P(DbaRoundTrip, MergeMatchesSpliceSpec) {
  const std::uint8_t n = GetParam();
  sim::Rng rng(100 + n);
  Aggregator agg(DbaRegister(true, n));
  Disaggregator dis(DbaRegister(true, n));
  for (int iter = 0; iter < 200; ++iter) {
    const Line old = random_line(rng);
    const Line fresh = random_line(rng);
    const auto merged = dis.merge(old, agg.pack(fresh));
    for (std::size_t w = 0; w < mem::kWordsPerLine; ++w) {
      float of, ff, mf;
      std::memcpy(&of, old.data() + w * 4, 4);
      std::memcpy(&ff, fresh.data() + w * 4, 4);
      std::memcpy(&mf, merged.data() + w * 4, 4);
      // Bitwise compare (floats may be NaN with random bits).
      std::uint32_t mi, si;
      std::memcpy(&mi, &mf, 4);
      const float spliced = splice_f32(of, ff, n);
      std::memcpy(&si, &spliced, 4);
      ASSERT_EQ(mi, si) << "word " << w << " n=" << int{n};
    }
  }
}

TEST_P(DbaRoundTrip, PackAndMergeMatchTheByteSpec) {
  // The word-wise copies against the Section V byte loops: payload byte
  // w*N+b is line byte w*4+b, and the merge is the closed-form oracle.
  const std::uint8_t n = GetParam();
  const DbaRegister reg(true, n);
  sim::Rng rng(200 + n);
  Aggregator agg(reg);
  Disaggregator dis(reg);
  for (int iter = 0; iter < 50; ++iter) {
    const Line old = random_line(rng);
    const Line fresh = random_line(rng);
    const Payload payload = agg.pack(fresh);
    std::vector<std::uint8_t> want;
    for (std::size_t w = 0; w < mem::kWordsPerLine; ++w) {
      for (std::uint8_t b = 0; b < (reg.trims() ? n : 4); ++b) {
        want.push_back(fresh[w * 4 + b]);
      }
    }
    const std::span<const std::uint8_t> view = payload;
    ASSERT_EQ(std::vector<std::uint8_t>(view.begin(), view.end()), want);
    ASSERT_EQ(dis.merge(old, payload), expected_merge(reg, old, fresh));
  }
}

INSTANTIATE_TEST_SUITE_P(AllDirtyLengths, DbaRoundTrip,
                         ::testing::Values<std::uint8_t>(0, 1, 2, 3, 4));

TEST(DbaRoundTrip, FullDirtyIsIdentity) {
  sim::Rng rng(7);
  Aggregator agg(DbaRegister(true, 4));
  Disaggregator dis(DbaRegister(true, 4));
  const Line old = random_line(rng);
  const Line fresh = random_line(rng);
  EXPECT_EQ(dis.merge(old, agg.pack(fresh)), fresh);
}

TEST(SpliceF32, EndpointBehavior) {
  EXPECT_FLOAT_EQ(splice_f32(1.5f, 2.5f, 4), 2.5f);
  EXPECT_FLOAT_EQ(splice_f32(1.5f, 2.5f, 0), 1.5f);
  EXPECT_THROW(splice_f32(1.0f, 2.0f, 5), std::invalid_argument);
}

TEST(SpliceF32, MatchesBitMask) {
  sim::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto a_bits = static_cast<std::uint32_t>(rng.next_u64());
    const auto b_bits = static_cast<std::uint32_t>(rng.next_u64());
    float a, b;
    std::memcpy(&a, &a_bits, 4);
    std::memcpy(&b, &b_bits, 4);
    for (std::uint8_t n = 0; n <= 4; ++n) {
      const std::uint32_t mask =
          n == 4 ? 0xFFFFFFFFu : (1u << (8 * n)) - 1u;
      const std::uint32_t expect = (a_bits & ~mask) | (b_bits & mask);
      const float s = splice_f32(a, b, n);
      std::uint32_t got;
      std::memcpy(&got, &s, 4);
      ASSERT_EQ(got, expect);
    }
  }
}

TEST(SpliceF32, SmallUpdatePreservedExactly) {
  // A parameter whose change only touches the low mantissa bytes transfers
  // losslessly under DBA(2) — the Fig. 2 Case-1/2 population.
  const float old_val = 1.0f;
  std::uint32_t bits;
  std::memcpy(&bits, &old_val, 4);
  bits += 37;  // Low-byte mantissa nudge.
  float new_val;
  std::memcpy(&new_val, &bits, 4);
  EXPECT_EQ(splice_f32(old_val, new_val, 2), new_val);
}

TEST(HardwareConstants, MatchSectionVIIID) {
  EXPECT_NEAR(kAggregatorLatency, 1.28e-9, 1e-15);
  EXPECT_NEAR(kDisaggregatorLatency, 1.126e-9, 1e-15);
  EXPECT_NEAR(kModeledDbaLatency, 1e-9, 1e-15);
  EXPECT_DOUBLE_EQ(kAggregatorPowerW, 0.0127);
  EXPECT_DOUBLE_EQ(kDisaggregatorPowerW, 0.017);
}

}  // namespace
}  // namespace teco::dba
