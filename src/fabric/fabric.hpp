// teco::fabric — a pooled CXL 3.x fabric: N training nodes attached through
// a switch to one shared memory pool.
//
// The paper offloads tensors over a single point-to-point CXL link; the
// fabric layer scales that shape out. Each node keeps its own cxl::Link and
// coherence::HomeAgent (the pool is the CPU/home side of every node's
// domain), but all node<->pool traffic is multiplexed onto two shared pool
// ports by fabric::CxlSwitch (FIFO arbitration, measurable queueing). On
// top of that sits fabric::PoolAllReduce: data-parallel gradient reduction
// *through the pool*, with the update-push protocol as the transport and
// the DBA aggregator as a bandwidth multiplier for the result broadcast
// (CCCL / CXL-CCL and TrainingCXL in PAPERS.md). docs/FABRIC.md is the
// guide.
#pragma once

#include <cstdint>
#include <string_view>

#include "cxl/phy.hpp"
#include "mem/address.hpp"
#include "mem/cache.hpp"
#include "sim/time.hpp"

namespace teco::fabric {

/// How PoolAllReduce moves and reduces the gradient shards.
enum class ReduceStrategy : std::uint8_t {
  /// In-pool reduce: nodes update-push full-precision shards into per-node
  /// pooled contribution windows, the pool's near-memory ReduceUnit folds
  /// them (the DBA merge path reused as a reduction engine), and the
  /// reduced result broadcasts back DBA-trimmed once steady state is
  /// reached — the DBA becomes a bandwidth multiplier for the collective.
  kDbaMerge,
  /// Naive pool staging: nodes stage full lines into the pool, one reducer
  /// node demand-reads every other shard across the contended port, reduces
  /// locally, pushes the result back up, and full lines broadcast down.
  kPoolStaging,
  /// Analytic per-link baseline: no pool, every node ships its full
  /// gradient set over a private link and the CPU reduces N streams —
  /// exactly the offload::per_link_reduce() arm bench_multi_device reports.
  kPerLink,
};

std::string_view to_string(ReduceStrategy s);

struct FabricConfig {
  std::uint32_t nodes = 2;
  /// Pooled-memory capacity; carve-outs beyond it are admission-rejected.
  std::uint64_t pool_bytes = 8ull * 1024 * 1024;
  /// Raw bandwidth of each shared pool port (one per direction), in GB/s.
  /// The usable rate is port_gbps * node_phy.cxl_efficiency.
  double port_gbps = 16.0;
  ReduceStrategy reduce = ReduceStrategy::kDbaMerge;
  /// Per-node gradient shard (the all-reduce payload), line-aligned.
  std::uint64_t shard_bytes = 64 * 1024;
  /// Each node's private point-to-point link to its switch port.
  cxl::PhyConfig node_phy{};
  /// Fixed port-to-port flit latency through the switch.
  sim::Time hop_latency = sim::ns(250);
  /// DBA trim on the result broadcast (kDbaMerge only; activates after the
  /// seeding step so high bytes have a full-precision base to splice onto).
  bool dba_enabled = true;
  std::uint8_t dirty_bytes = 2;
  /// Attach a strict per-node ProtocolChecker (tests and benches keep this
  /// on; every fabric hop is protocol traffic, so the checker sees it all).
  bool check = true;
  std::uint64_t seed = 1;
  /// Pool-side (home-agent) cache per node; the mc slice driver shrinks it.
  mem::CacheConfig pool_cache = mem::llc_config();
  /// Base address of the pooled range in every node's address space.
  mem::Addr pool_base = 0x20000000;
};

}  // namespace teco::fabric
