// teco::fabric — pooled CXL 3.x fabric: switch arbitration fairness, pool
// admission, in-pool all-reduce numeric correctness against a scalar
// reference, strategy ordering under a contended port, and seeded
// bit-identical replay including the metrics registry snapshot.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "fabric/allreduce.hpp"
#include "fabric/fabric.hpp"
#include "fabric/pool.hpp"
#include "fabric/switch.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"

namespace {

using namespace teco;

fabric::FabricConfig small_cfg(std::uint32_t nodes,
                               fabric::ReduceStrategy strategy) {
  fabric::FabricConfig cfg;
  cfg.nodes = nodes;
  cfg.reduce = strategy;
  cfg.shard_bytes = 256;  // 4 lines, 64 floats.
  cfg.pool_bytes = 1ull << 20;
  return cfg;
}

std::vector<std::vector<float>> seeded_gradients(std::uint32_t nodes,
                                                 std::uint64_t floats,
                                                 std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::vector<float>> g(nodes);
  for (auto& shard : g) {
    shard.resize(floats);
    for (auto& v : shard) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return g;
}

/// The scalar reference: fold node 0..N-1 in order, per float — exactly the
/// order every fabric strategy reduces in, so comparisons are bitwise.
std::vector<float> scalar_reference(const std::vector<std::vector<float>>& g) {
  std::vector<float> out(g.front().size(), 0.0f);
  for (const auto& shard : g) {
    for (std::size_t w = 0; w < out.size(); ++w) out[w] += shard[w];
  }
  return out;
}

TEST(FabricPool, AdmissionRejectsOverCapacity) {
  fabric::PooledMemory pool(256, 0x1000);
  const auto a = pool.try_carve("a", 0, 100);  // rounds up to 2 lines
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->bytes, 128u);
  const auto b = pool.try_carve("b", 1, 128);
  ASSERT_TRUE(b.has_value());
  EXPECT_FALSE(a->overlaps(*b));
  EXPECT_EQ(pool.carved_bytes(), 256u);

  // Full: the next carve (and a zero-byte one) must be rejected, counted.
  EXPECT_FALSE(pool.try_carve("c", 2, 64).has_value());
  EXPECT_FALSE(pool.try_carve("d", 3, 0).has_value());
  EXPECT_EQ(pool.admission_rejects(), 2u);
  EXPECT_EQ(pool.carved_bytes(), 256u);
}

TEST(FabricPool, AllReduceCtorSurfacesAdmissionFailure) {
  auto cfg = small_cfg(4, fabric::ReduceStrategy::kDbaMerge);
  cfg.pool_bytes = 4 * cfg.shard_bytes;  // needs (nodes + 1) * shard_bytes
  EXPECT_THROW(fabric::PoolAllReduce ar(cfg), std::runtime_error);
}

TEST(FabricSwitch, ArbitrationIsFairUnderSaturatingPorts) {
  // Two nodes stream concurrently into a pool port with half the private
  // link's bandwidth: both saturate, the switch must split the port evenly
  // and the queueing must be measurable.
  auto cfg = small_cfg(2, fabric::ReduceStrategy::kDbaMerge);
  cfg.shard_bytes = 64 * 64;  // 64 lines per node
  cfg.port_gbps = 8.0;        // node links run at 16 GB/s raw
  fabric::PoolAllReduce ar(cfg);
  const auto g = seeded_gradients(2, ar.shard_floats(), 11);
  ar.set_node_gradients(0, g[0]);
  ar.set_node_gradients(1, g[1]);

  const auto rep = ar.run_step();
  const auto& s0 = ar.fabric_switch().node_stats(0);
  const auto& s1 = ar.fabric_switch().node_stats(1);
  EXPECT_GT(s0.to_pool_bytes, 0u);
  EXPECT_EQ(s0.to_pool_bytes, s1.to_pool_bytes);
  EXPECT_EQ(s0.to_pool_packets, s1.to_pool_packets);
  EXPECT_GT(ar.fabric_switch().to_pool().queue_time, 0.0);
  EXPECT_GT(rep.port_queue_time, 0.0);
  EXPECT_GT(rep.wall(), 0.0);
}

TEST(Fabric, AllReduceMatchesScalarReference) {
  for (const std::uint32_t nodes : {2u, 4u}) {
    for (const auto strategy : {fabric::ReduceStrategy::kDbaMerge,
                                fabric::ReduceStrategy::kPoolStaging,
                                fabric::ReduceStrategy::kPerLink}) {
      auto cfg = small_cfg(nodes, strategy);
      // dirty_bytes = 4 trims to all 16 dirty bytes... i.e. the full line,
      // so steady-state steps stay exact too.
      cfg.dirty_bytes = 4;
      fabric::PoolAllReduce ar(cfg);
      const auto step0 = seeded_gradients(nodes, ar.shard_floats(), 21);
      for (std::uint32_t n = 0; n < nodes; ++n) {
        ar.set_node_gradients(n, step0[n]);
      }
      ar.run_step();
      const auto want0 = scalar_reference(step0);
      for (std::uint32_t n = 0; n < nodes; ++n) {
        EXPECT_EQ(ar.node_result(n), want0)
            << "step 0, strategy " << fabric::to_string(strategy)
            << ", node " << n << "/" << nodes;
      }

      // A steady-state step with fresh gradients (DBA programmed now).
      const auto step1 = seeded_gradients(nodes, ar.shard_floats(), 22);
      for (std::uint32_t n = 0; n < nodes; ++n) {
        ar.set_node_gradients(n, step1[n]);
      }
      ar.run_step();
      const auto want1 = scalar_reference(step1);
      for (std::uint32_t n = 0; n < nodes; ++n) {
        EXPECT_EQ(ar.node_result(n), want1)
            << "step 1, strategy " << fabric::to_string(strategy)
            << ", node " << n << "/" << nodes;
      }
      // Strict per-node protocol checkers rode along the whole way.
      for (std::uint32_t n = 0; n < nodes; ++n) {
        ASSERT_NE(ar.node(n).checker(), nullptr);
        EXPECT_TRUE(ar.node(n).checker()->violations().empty());
      }
    }
  }
}

TEST(Fabric, DbaMergeBeatsPoolStagingUnderContention) {
  for (const std::uint32_t nodes : {2u, 4u}) {
    sim::Time wall[2] = {0.0, 0.0};
    std::uint64_t port_bytes[2] = {0, 0};
    int i = 0;
    for (const auto strategy : {fabric::ReduceStrategy::kDbaMerge,
                                fabric::ReduceStrategy::kPoolStaging}) {
      auto cfg = small_cfg(nodes, strategy);
      cfg.shard_bytes = 16 * 1024;
      cfg.port_gbps = 8.0;  // contended: N node links share one 8 GB/s port
      fabric::PoolAllReduce ar(cfg);
      const auto g = seeded_gradients(nodes, ar.shard_floats(), 31);
      for (std::uint32_t n = 0; n < nodes; ++n) {
        ar.set_node_gradients(n, g[n]);
      }
      ar.run_step();  // warm-up: full-precision seed step
      const auto rep = ar.run_step();  // steady state
      wall[i] = rep.wall();
      port_bytes[i] = rep.to_pool_bytes + rep.from_pool_bytes;
      ++i;
    }
    EXPECT_LT(wall[0], wall[1]) << nodes << " nodes";
    EXPECT_LT(port_bytes[0], port_bytes[1]) << nodes << " nodes";
  }
}

TEST(Fabric, SeededRunReplaysBitIdentically) {
  auto run = [](std::vector<fabric::AllReduceReport>& reps,
                std::vector<float>& result, std::vector<obs::Sample>& samples) {
    auto cfg = small_cfg(3, fabric::ReduceStrategy::kDbaMerge);
    cfg.port_gbps = 12.0;
    fabric::PoolAllReduce ar(cfg);
    for (std::uint32_t step = 0; step < 3; ++step) {
      const auto g =
          seeded_gradients(cfg.nodes, ar.shard_floats(), 40 + step);
      for (std::uint32_t n = 0; n < cfg.nodes; ++n) {
        ar.set_node_gradients(n, g[n]);
      }
      reps.push_back(ar.run_step());
    }
    result = ar.node_result(1);
    samples = ar.registry().samples();
  };

  std::vector<fabric::AllReduceReport> ra, rb;
  std::vector<float> va, vb;
  std::vector<obs::Sample> sa, sb;
  run(ra, va, sa);
  run(rb, vb, sb);

  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].started, rb[i].started);
    EXPECT_EQ(ra[i].push_done, rb[i].push_done);
    EXPECT_EQ(ra[i].reduce_done, rb[i].reduce_done);
    EXPECT_EQ(ra[i].broadcast_done, rb[i].broadcast_done);
    EXPECT_EQ(ra[i].to_pool_bytes, rb[i].to_pool_bytes);
    EXPECT_EQ(ra[i].from_pool_bytes, rb[i].from_pool_bytes);
    EXPECT_EQ(ra[i].port_queue_time, rb[i].port_queue_time);
  }
  EXPECT_EQ(va, vb);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].name, sb[i].name);
    EXPECT_EQ(sa[i].value, sb[i].value);
  }
}

TEST(Fabric, ReduceUnitCatchesDoubleAppliedMerge) {
  fabric::PooledMemory pool(1024, 0x0);
  const auto c0 = pool.try_carve("c0", 0, 64);
  const auto c1 = pool.try_carve("c1", 1, 64);
  const auto res = pool.try_carve("res", fabric::kSharedOwner, 64);
  ASSERT_TRUE(c0 && c1 && res);
  pool.store().write_f32(c0->base, 1.5f);
  pool.store().write_f32(c1->base, 2.25f);

  fabric::ReduceUnit ru(pool, {*c0, *c1}, *res);
  ru.begin_step();
  sim::Time t = ru.fold(0.0, 0, 0);
  t = ru.fold(t, 1, 0);
  EXPECT_FALSE(ru.check_invariants().has_value());
  EXPECT_EQ(ru.accumulator(0)[0], 3.75f);

  ru.fold(t, 1, 0);  // the double-applied merge mutation
  const auto v = ru.check_invariants();
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("merge applied 2 times"), std::string::npos);
}

TEST(Fabric, ReduceUnitCatchesLostContributionBytes) {
  fabric::PooledMemory pool(1024, 0x0);
  const auto c0 = pool.try_carve("c0", 0, 64);
  const auto c1 = pool.try_carve("c1", 1, 64);
  const auto res = pool.try_carve("res", fabric::kSharedOwner, 64);
  ASSERT_TRUE(c0 && c1 && res);
  pool.store().write_f32(c0->base, 1.5f);
  pool.store().write_f32(c1->base, 2.25f);

  fabric::ReduceUnit ru(pool, {*c0, *c1}, *res);
  ru.begin_step();
  ru.fold(ru.fold(0.0, 0, 0), 1, 0);
  // A dropped cross-port flit after the fold: the staged bytes change out
  // from under the recorded accumulator.
  pool.store().write_f32(c1->base, 0.0f);
  const auto v = ru.check_invariants();
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("diverged"), std::string::npos);
}

}  // namespace
