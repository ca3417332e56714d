// The accelerator-side giant cache (Section IV-A1).
//
// A user-configured slice of accelerator memory mapped into the CXL coherent
// domain via resizable-BAR-style address registers: two registers (base,
// size) per cached region, set at tensor allocation time. The giant cache is
// sized to hold every offload-managed tensor, so there are no capacity or
// conflict misses — the directory is a flat per-region state array, not a
// set-associative structure.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/observer.hpp"
#include "coherence/mesi.hpp"
#include "mem/address.hpp"

namespace teco::coherence {

struct GiantCacheRegion {
  std::string name;
  mem::Region region;
  bool dba_eligible = false;  ///< Parameters yes, gradients no (Section V).
  std::vector<MesiState> line_states;
  /// Set when the home agent demotes the region to invalidation MESI
  /// (Section IV-A2: applications without a clear producer/consumer fall
  /// back to the stock protocol + snoop filter).
  bool forced_invalidation = false;
};

class GiantCache {
 public:
  /// `capacity_bytes` is the BAR-mapped slice of accelerator memory.
  explicit GiantCache(std::uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  /// Map a tensor region into the coherent domain. Throws if the region is
  /// unaligned, overlaps an existing region, or exceeds capacity.
  GiantCacheRegion& map_region(std::string name, mem::Addr base,
                               std::uint64_t bytes, MesiState initial_state,
                               bool dba_eligible);

  /// Region containing `addr`, or nullptr if the address is not mapped
  /// (i.e. lives in ordinary non-coherent accelerator memory).
  const GiantCacheRegion* find(mem::Addr addr) const;
  GiantCacheRegion* find(mem::Addr addr);

  bool contains_line(mem::Addr addr) const { return find(addr) != nullptr; }

  MesiState state(mem::Addr addr) const;
  void set_state(mem::Addr addr, MesiState s);

  std::uint64_t capacity_bytes() const { return capacity_; }
  std::uint64_t mapped_bytes() const { return mapped_; }
  std::uint64_t mapped_lines() const { return mapped_ / mem::kLineBytes; }
  const std::vector<GiantCacheRegion>& regions() const { return regions_; }

  /// Count of lines currently in `s` across all regions (test helper).
  std::uint64_t count_state(MesiState s) const;

  /// Attach/detach the coherence invariant checker (nullptr to detach).
  void set_observer(check::Observer* obs) { observer_ = obs; }

 private:
  std::uint64_t line_slot(const GiantCacheRegion& r, mem::Addr addr) const {
    return (mem::line_base(addr) - r.region.base) / mem::kLineBytes;
  }

  std::uint64_t capacity_;
  std::uint64_t mapped_ = 0;
  std::vector<GiantCacheRegion> regions_;
  check::Observer* observer_ = nullptr;
};

}  // namespace teco::coherence
