#include "coherence/giant_cache.hpp"

namespace teco::coherence {

GiantCacheRegion& GiantCache::map_region(std::string name, mem::Addr base,
                                         std::uint64_t bytes,
                                         MesiState initial_state,
                                         bool dba_eligible) {
  if (!mem::line_aligned(base) || bytes % mem::kLineBytes != 0) {
    throw std::invalid_argument("giant-cache regions must be line-aligned");
  }
  if (bytes == 0) throw std::invalid_argument("empty giant-cache region");
  if (mapped_ + bytes > capacity_) {
    throw std::length_error("giant cache capacity exceeded: configure a "
                            "larger BAR window before training");
  }
  const mem::Region r{base, bytes};
  for (const auto& existing : regions_) {
    if (existing.region.overlaps(r)) {
      throw std::invalid_argument("giant-cache regions must not overlap");
    }
  }
  mapped_ += bytes;
  regions_.push_back(GiantCacheRegion{
      std::move(name), r, dba_eligible,
      std::vector<MesiState>(r.lines(), initial_state)});
  if (observer_ != nullptr) {
    observer_->on_region_mapped(base, bytes,
                                static_cast<std::uint8_t>(initial_state),
                                dba_eligible);
  }
  return regions_.back();
}

const GiantCacheRegion* GiantCache::find(mem::Addr addr) const {
  for (const auto& r : regions_) {
    if (r.region.contains_line(addr)) return &r;
  }
  return nullptr;
}

GiantCacheRegion* GiantCache::find(mem::Addr addr) {
  for (auto& r : regions_) {
    if (r.region.contains_line(addr)) return &r;
  }
  return nullptr;
}

MesiState GiantCache::state(mem::Addr addr) const {
  const auto* r = find(addr);
  if (r == nullptr) {
    throw std::out_of_range("address not mapped to the giant cache");
  }
  return r->line_states[line_slot(*r, addr)];
}

void GiantCache::set_state(mem::Addr addr, MesiState s) {
  auto* r = find(addr);
  if (r == nullptr) {
    throw std::out_of_range("address not mapped to the giant cache");
  }
  MesiState& slot = r->line_states[line_slot(*r, addr)];
  const MesiState old = slot;
  slot = s;
  if (observer_ != nullptr) {
    observer_->on_state_change(check::Domain::kGiantCache,
                               mem::line_base(addr),
                               static_cast<std::uint8_t>(old),
                               static_cast<std::uint8_t>(s));
  }
}

std::uint64_t GiantCache::count_state(MesiState s) const {
  std::uint64_t n = 0;
  for (const auto& r : regions_) {
    for (const auto st : r.line_states) {
      if (st == s) ++n;
    }
  }
  return n;
}

}  // namespace teco::coherence
