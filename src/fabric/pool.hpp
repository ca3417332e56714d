// fabric::PooledMemory + fabric::ReduceUnit — the shared pool device.
//
// PooledMemory is a CXL 3.x pooled-memory device: one backing store of
// capacity pool_bytes, handed out as DCD-style (dynamic capacity device)
// carve-outs. Carving is admission-controlled — a request past capacity is
// rejected (counted, observable), never silently satisfied.
//
// ReduceUnit is the pool's near-memory compute: the same
// aggregate-into-the-memory-path idea as the DBA disaggregator, pointed at
// reduction. It folds per-node contribution lines into an FP32 accumulator
// (one modeled DBA latency per folded line) and commits accumulated lines
// into the shared result window, so a gradient all-reduce never ships
// partial sums back over the contended port. check_invariants() is the
// fabric's merge watchdog: every contribution folds at most once per step,
// and the accumulator must bitwise equal a recompute of the pool bytes in
// recorded fold order (FP32 addition is commutative, not associative — the
// recorded order makes the oracle exact for arbitrary fold interleavings).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mem/address.hpp"
#include "mem/backing_store.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace teco::fabric {

/// Owner id for carve-outs shared by every node (the result window).
inline constexpr std::uint32_t kSharedOwner = ~0u;

struct Carveout {
  std::string name;
  std::uint32_t owner = kSharedOwner;
  mem::Region region;
};

class PooledMemory {
 public:
  PooledMemory(std::uint64_t capacity_bytes, mem::Addr base);

  PooledMemory(const PooledMemory&) = delete;
  PooledMemory& operator=(const PooledMemory&) = delete;

  /// Carve `bytes` (rounded up to line granularity) out of pool capacity
  /// for `owner`. Returns the carved region, or nullopt when admission
  /// rejects the request (over capacity or zero-sized).
  std::optional<mem::Region> try_carve(std::string name, std::uint32_t owner,
                                       std::uint64_t bytes);

  std::uint64_t capacity_bytes() const { return capacity_; }
  std::uint64_t carved_bytes() const { return carved_; }
  std::uint64_t admission_rejects() const { return rejects_; }
  const std::vector<Carveout>& carveouts() const { return carveouts_; }

  /// The pool's bytes. Every attached node's home agent uses this store as
  /// its CPU/home side, so protocol pushes land here and demand reads are
  /// served from here.
  mem::BackingStore& store() { return store_; }
  const mem::BackingStore& store() const { return store_; }

  /// Resolve fabric.pool.* handles; nullptr detaches.
  void set_metrics(obs::MetricsRegistry* reg);

 private:
  std::uint64_t capacity_;
  mem::Addr next_;
  std::uint64_t carved_ = 0;
  std::uint64_t rejects_ = 0;
  std::vector<Carveout> carveouts_;
  mem::BackingStore store_;
  obs::Gauge* m_carved_ = nullptr;
  obs::Counter* m_rejects_ = nullptr;
};

class ReduceUnit {
 public:
  /// `contributions[n]` is node n's staged-shard window, `result` the
  /// shared output window; all regions must span the same line count.
  ReduceUnit(PooledMemory& pool, std::vector<mem::Region> contributions,
             mem::Region result);

  ReduceUnit(const ReduceUnit&) = delete;
  ReduceUnit& operator=(const ReduceUnit&) = delete;

  /// Clear the accumulator and fold bookkeeping for a new step.
  void begin_step();

  /// Fold node's staged contribution line into the accumulator (16 FP32
  /// adds near memory). Returns completion time: one modeled DBA latency.
  sim::Time fold(sim::Time now, std::uint32_t node, std::uint64_t line);

  /// Write the accumulated line into the result window.
  sim::Time commit(sim::Time now, std::uint64_t line);

  std::uint64_t lines() const { return lines_; }
  std::uint32_t fold_count(std::uint64_t line, std::uint32_t node) const;
  std::span<const float> accumulator(std::uint64_t line) const;
  std::uint64_t folds() const { return folds_; }
  std::uint64_t commits() const { return commits_; }

  /// The merge watchdog (see file header). Returns a diagnostic on the
  /// first violated line, nullopt when every invariant holds.
  std::optional<std::string> check_invariants() const;

  /// Resolve fabric.reduce.* handles; nullptr detaches.
  void set_metrics(obs::MetricsRegistry* reg);

 private:
  PooledMemory& pool_;
  std::vector<mem::Region> contributions_;
  mem::Region result_;
  std::uint64_t lines_;
  std::vector<float> acc_;
  /// Folds applied this step, [line * nodes + node].
  std::vector<std::uint8_t> counts_;
  /// Node order the folds were applied in, per line (the exact-recompute
  /// oracle's order).
  std::vector<std::vector<std::uint32_t>> fold_order_;
  std::uint64_t folds_ = 0;
  std::uint64_t commits_ = 0;
  obs::Counter* m_folds_ = nullptr;
  obs::Counter* m_commits_ = nullptr;
};

}  // namespace teco::fabric
