// Unit tests for the memory substrate: addresses, caches, DRAM, stores.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/address.hpp"
#include "mem/backing_store.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "sim/rng.hpp"

namespace teco::mem {
namespace {

TEST(Address, LineHelpers) {
  EXPECT_EQ(line_base(0), 0u);
  EXPECT_EQ(line_base(63), 0u);
  EXPECT_EQ(line_base(64), 64u);
  EXPECT_EQ(line_index(128), 2u);
  EXPECT_TRUE(line_aligned(192));
  EXPECT_FALSE(line_aligned(193));
}

TEST(Address, RegionContainsAndOverlaps) {
  const Region r{1024, 256};
  EXPECT_TRUE(r.contains(1024));
  EXPECT_TRUE(r.contains(1279));
  EXPECT_FALSE(r.contains(1280));
  EXPECT_TRUE(r.contains_line(1216));
  EXPECT_FALSE(r.contains_line(1280));
  EXPECT_EQ(r.lines(), 4u);
  EXPECT_TRUE(r.overlaps(Region{1200, 64}));
  EXPECT_FALSE(r.overlaps(Region{1280, 64}));
  EXPECT_FALSE(r.overlaps(Region{0, 1024}));
}

TEST(Cache, PresetsMatchTableII) {
  EXPECT_EQ(l1_config().size_bytes, 8u * 1024);
  EXPECT_EQ(l1_config().ways, 8u);
  EXPECT_EQ(l2_config().size_bytes, 64u * 1024);
  EXPECT_EQ(l2_config().ways, 16u);
  EXPECT_EQ(llc_config().size_bytes, 16u * 1024 * 1024);
  EXPECT_EQ(llc_config().ways, 64u);
  EXPECT_EQ(llc_config().sets(),
            16u * 1024 * 1024 / (64 * 64));
}

TEST(Cache, RejectsBadConfig) {
  EXPECT_THROW(Cache(CacheConfig{0, 8, 64}), std::invalid_argument);
  EXPECT_THROW(Cache(CacheConfig{1000, 8, 64}), std::invalid_argument);
}

TEST(Cache, HitMissAndLru) {
  Cache c(CacheConfig{4 * 64, 2, 64});  // 2 sets x 2 ways.
  EXPECT_EQ(c.lookup(0), nullptr);      // Miss.
  c.insert(0, 1, false);
  EXPECT_NE(c.lookup(0), nullptr);  // Hit.
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().misses, 1u);

  // Same set: lines 0 and 2*64 map to set 0 with 2 sets.
  c.insert(2 * 64, 1, false);
  c.lookup(0);  // Touch 0 so line 128 becomes LRU.
  c.insert(4 * 64, 1, false);  // Evicts 128.
  EXPECT_TRUE(c.contains(0));
  EXPECT_FALSE(c.contains(2 * 64));
  EXPECT_TRUE(c.contains(4 * 64));
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(Cache, WritebackOnDirtyEviction) {
  Cache c(CacheConfig{2 * 64, 1, 64});  // Direct-mapped, 2 sets.
  std::vector<Addr> wb;
  c.set_writeback_fn([&](Addr a, std::uint8_t) { wb.push_back(a); });
  c.insert(0, 3, /*dirty=*/true);
  c.insert(2 * 64, 3, false);  // Same set, evicts dirty line 0.
  ASSERT_EQ(wb.size(), 1u);
  EXPECT_EQ(wb[0], 0u);
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionDoesNotWriteBack) {
  Cache c(CacheConfig{2 * 64, 1, 64});
  int wb = 0;
  c.set_writeback_fn([&](Addr, std::uint8_t) { ++wb; });
  c.insert(0, 1, false);
  c.insert(2 * 64, 1, false);
  EXPECT_EQ(wb, 0);
}

TEST(Cache, FlushDirtyKeepsLinesResident) {
  Cache c(llc_config());
  int wb = 0;
  c.set_writeback_fn([&](Addr, std::uint8_t) { ++wb; });
  c.insert(0, 1, true);
  c.insert(64, 1, true);
  c.insert(128, 1, false);
  EXPECT_EQ(c.flush_dirty(), 2u);
  EXPECT_EQ(wb, 2);
  EXPECT_EQ(c.resident_lines(), 3u);
  EXPECT_EQ(c.flush_dirty(), 0u);  // Now clean.
}

TEST(Cache, InvalidateOptionalWriteback) {
  Cache c(llc_config());
  int wb = 0;
  c.set_writeback_fn([&](Addr, std::uint8_t) { ++wb; });
  c.insert(0, 1, true);
  EXPECT_TRUE(c.invalidate(0, /*writeback_on_invalidate=*/false));
  EXPECT_EQ(wb, 0);
  EXPECT_FALSE(c.contains(0));
  EXPECT_FALSE(c.invalidate(0));
  c.insert(64, 1, true);
  EXPECT_TRUE(c.invalidate(64, true));
  EXPECT_EQ(wb, 1);
}

TEST(Cache, InsertReusesInvalidatedSlotBeforeEvicting) {
  // Regression: invalidate() leaves a valid=false husk in the set. A full
  // set with a husk has free capacity — insert() must reuse it instead of
  // evicting a live line, and must not report a phantom on_cache_drop for
  // the husk (whose stale state byte would corrupt an attached checker's
  // mirror of CPU residency). Found by the teco::mc model checker.
  struct DropCounter final : check::Observer {
    int drops = 0;
    void on_cache_drop(Addr, std::uint8_t, bool) override { ++drops; }
  };
  Cache c(CacheConfig{2 * 64, 2, 64});  // One set, two ways.
  DropCounter obs;
  c.set_observer(&obs);
  c.insert(0, 1, false);
  c.insert(64, 1, false);
  EXPECT_TRUE(c.invalidate(0));  // Husk occupies a slot; one real drop.
  EXPECT_EQ(obs.drops, 1);
  c.insert(128, 1, false);  // Must land in the husk's slot.
  EXPECT_EQ(obs.drops, 1);  // No phantom drop for the husk.
  EXPECT_EQ(c.stats().evictions, 0u);
  EXPECT_TRUE(c.contains(64));  // The live line survived.
  EXPECT_TRUE(c.contains(128));
  EXPECT_EQ(c.resident_lines(), 2u);
}

TEST(Cache, InsertUpdatesExistingLine) {
  Cache c(llc_config());
  c.insert(0, 1, false);
  auto& meta = c.insert(0, 2, true);
  EXPECT_EQ(meta.state, 2);
  EXPECT_TRUE(meta.dirty);
  EXPECT_EQ(c.resident_lines(), 1u);
}

TEST(Dram, SequentialHitsRows) {
  Dram d;
  // 32 sequential lines land in the same row per bank stride pattern.
  for (Addr a = 0; a < 32 * 64; a += 64) d.access(a, true);
  EXPECT_GT(d.stats().row_hits, d.stats().row_misses);
}

TEST(Dram, ShuffledMissesRows) {
  const DramConfig cfg;
  Dram seq(cfg), shuf(cfg);
  std::vector<std::pair<Addr, bool>> strace, xtrace;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    strace.emplace_back(i * 64, true);
    // Large stride: every access opens a fresh row.
    xtrace.emplace_back((i * 7919) % 4096 * 64 * 1024, true);
  }
  const auto seq_cycles = seq.replay(strace);
  const auto shuf_cycles = shuf.replay(xtrace);
  EXPECT_LT(seq_cycles, shuf_cycles);
}

TEST(Dram, ReadModifyWriteAmplification) {
  // Section VIII-D: the Disaggregator adds a read per line update. The
  // paper measures 2.48x (sequential) and 1.9x (shuffled) DRAM-cycle
  // increases; the ordering (sequential amplifies MORE, because row hits
  // made the baseline cheap) must reproduce.
  const DramConfig cfg;
  auto run = [&](bool add_read, bool shuffled) {
    Dram d(cfg);
    for (std::uint64_t i = 0; i < 8192; ++i) {
      const Addr a = shuffled ? ((i * 7919) % 8192) * 64 * 997 : i * 64;
      if (add_read) d.access(a, false);
      d.access(a, true);
    }
    return d.stats().cycles;
  };
  const double seq_ratio =
      static_cast<double>(run(true, false)) / run(false, false);
  const double shuf_ratio =
      static_cast<double>(run(true, true)) / run(false, true);
  EXPECT_GT(seq_ratio, shuf_ratio);
  EXPECT_GT(seq_ratio, 1.5);
  EXPECT_LT(seq_ratio, 3.5);
  EXPECT_GT(shuf_ratio, 1.2);
  EXPECT_LT(shuf_ratio, 2.5);
}

TEST(Dram, ResetClearsState) {
  Dram d;
  d.access(0, true);
  d.reset();
  EXPECT_EQ(d.stats().cycles, 0u);
  EXPECT_EQ(d.stats().writes, 0u);
}

TEST(BackingStore, LineRoundTrip) {
  BackingStore s;
  BackingStore::Line line{};
  for (std::size_t i = 0; i < kLineBytes; ++i) {
    line[i] = static_cast<std::uint8_t>(i);
  }
  s.write_line(128, line);
  EXPECT_EQ(s.read_line(128), line);
  EXPECT_EQ(s.read_line(128 + 32), line);  // Same line.
  EXPECT_EQ(s.read_line(256), BackingStore::Line{});
}

TEST(BackingStore, ByteAccessStraddlesLines) {
  BackingStore s;
  std::vector<std::uint8_t> data(100);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i + 1);
  }
  s.write(60, data);  // Straddles two lines.
  std::vector<std::uint8_t> out(100);
  s.read(60, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(s.resident_lines(), 3u);
}

TEST(BackingStore, LineChunkedCopiesMatchAByteModel) {
  // Random ranges at every offset and length, against a flat byte array:
  // the line-at-a-time copies must behave exactly like byte-wise access.
  BackingStore s;
  std::vector<std::uint8_t> model(8 * kLineBytes, 0);
  sim::Rng rng(11);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t addr = rng.next_below(model.size());
    const std::size_t len = rng.next_below(model.size() - addr + 1);
    if (rng.next_bool(0.5)) {
      std::vector<std::uint8_t> bytes(len);
      for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
      s.write(addr, bytes);
      std::copy(bytes.begin(), bytes.end(), model.begin() + addr);
    } else {
      std::vector<std::uint8_t> out(len, 0xEE);
      s.read(addr, out);
      ASSERT_TRUE(std::equal(out.begin(), out.end(), model.begin() + addr))
          << "read of " << len << " bytes at " << addr;
    }
  }
}

TEST(BackingStore, ReadsDoNotAllocateLines) {
  BackingStore s;
  std::vector<std::uint8_t> out(3 * kLineBytes, 0xEE);
  s.read(10, out);
  EXPECT_EQ(out, std::vector<std::uint8_t>(out.size(), 0));
  EXPECT_EQ(s.resident_lines(), 0u);
  EXPECT_FALSE(s.contains_line(0));
  s.write_f32(70, 1.0f);
  EXPECT_TRUE(s.contains_line(64));
  EXPECT_FALSE(s.contains_line(0));
  EXPECT_EQ(s.resident_lines(), 1u);
}

TEST(BackingStore, F32ArraysStraddleLines) {
  BackingStore s;
  std::vector<float> values(40);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 0.5f * static_cast<float>(i) - 3.0f;
  }
  s.write_f32s(36, values);  // Bytes [36, 196): word- but not line-aligned.
  EXPECT_EQ(s.resident_lines(), 4u);
  std::vector<float> out(values.size());
  s.read_f32s(36, out);
  EXPECT_EQ(out, values);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(s.read_f32(36 + 4 * i), values[i]);
  }
}

TEST(BackingStore, F32RoundTrip) {
  BackingStore s;
  s.write_f32(4, 3.14159f);
  EXPECT_FLOAT_EQ(s.read_f32(4), 3.14159f);
  EXPECT_FLOAT_EQ(s.read_f32(8), 0.0f);
  s.clear();
  EXPECT_FLOAT_EQ(s.read_f32(4), 0.0f);
}

}  // namespace
}  // namespace teco::mem
