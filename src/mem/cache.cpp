#include "mem/cache.hpp"

#include <cassert>
#include <stdexcept>

namespace teco::mem {

CacheConfig l1_config() { return CacheConfig{8 * 1024, 8, kLineBytes}; }
CacheConfig l2_config() { return CacheConfig{64 * 1024, 16, kLineBytes}; }
CacheConfig llc_config() {
  return CacheConfig{16 * 1024 * 1024, 64, kLineBytes};
}

Cache::Cache(CacheConfig cfg) : cfg_(cfg) {
  if (cfg_.size_bytes == 0 || cfg_.ways == 0 || cfg_.line_bytes == 0) {
    throw std::invalid_argument("cache config fields must be nonzero");
  }
  if (cfg_.size_bytes % (cfg_.line_bytes * cfg_.ways) != 0) {
    throw std::invalid_argument("cache size must be a multiple of way size");
  }
  sets_.resize(cfg_.sets());
  for (auto& s : sets_) s.reserve(cfg_.ways);
}

std::vector<CacheLineMeta>& Cache::set_for(Addr addr) {
  return sets_[(addr / cfg_.line_bytes) % sets_.size()];
}
const std::vector<CacheLineMeta>& Cache::set_for(Addr addr) const {
  return sets_[(addr / cfg_.line_bytes) % sets_.size()];
}

CacheLineMeta* Cache::lookup(Addr addr) {
  const Addr base = line_base(addr);
  for (auto& line : set_for(addr)) {
    if (line.valid && line.base == base) {
      line.last_use = ++tick_;
      ++stats_.hits;
      return &line;
    }
  }
  ++stats_.misses;
  return nullptr;
}

const CacheLineMeta* Cache::peek(Addr addr) const {
  const Addr base = line_base(addr);
  for (const auto& line : set_for(addr)) {
    if (line.valid && line.base == base) return &line;
  }
  return nullptr;
}

CacheLineMeta& Cache::insert(Addr addr, std::uint8_t state, bool dirty) {
  const Addr base = line_base(addr);
  auto& set = set_for(addr);
  for (auto& line : set) {
    if (line.valid && line.base == base) {
      line.state = state;
      line.dirty = line.dirty || dirty;
      line.last_use = ++tick_;
      return line;
    }
  }
  if (set.size() < cfg_.ways) {
    set.push_back(CacheLineMeta{base, true, dirty, state, ++tick_});
    return set.back();
  }
  // Reuse an invalidated slot before evicting anything: a husk left by
  // invalidate() is free capacity, and "evicting" one would report a drop
  // (with its stale state byte) for a line that is not resident at all.
  for (auto& line : set) {
    if (!line.valid) {
      line = CacheLineMeta{base, true, dirty, state, ++tick_};
      return line;
    }
  }
  // Evict the LRU victim (every slot is valid here).
  CacheLineMeta* victim = &set.front();
  for (auto& line : set) {
    if (line.last_use < victim->last_use) victim = &line;
  }
  ++stats_.evictions;
  if (victim->dirty) {
    ++stats_.writebacks;
    if (writeback_) writeback_(victim->base, victim->state);
  }
  if (observer_ != nullptr) {
    observer_->on_cache_drop(victim->base, victim->state, victim->dirty);
  }
  *victim = CacheLineMeta{base, true, dirty, state, ++tick_};
  return *victim;
}

bool Cache::invalidate(Addr addr, bool writeback_on_invalidate) {
  const Addr base = line_base(addr);
  for (auto& line : set_for(addr)) {
    if (line.valid && line.base == base) {
      if (line.dirty && writeback_on_invalidate) {
        ++stats_.writebacks;
        if (writeback_) writeback_(line.base, line.state);
      }
      if (observer_ != nullptr) {
        observer_->on_cache_drop(line.base, line.state, line.dirty);
      }
      line.valid = false;
      line.dirty = false;
      return true;
    }
  }
  return false;
}

std::uint64_t Cache::flush_dirty() {
  std::uint64_t n = 0;
  for (auto& set : sets_) {
    for (auto& line : set) {
      if (line.valid && line.dirty) {
        ++stats_.writebacks;
        if (writeback_) writeback_(line.base, line.state);
        line.dirty = false;
        ++n;
      }
    }
  }
  return n;
}

void Cache::reset() {
  for (auto& set : sets_) set.clear();
  stats_ = CacheStats{};
  tick_ = 0;
}

std::uint64_t Cache::resident_lines() const {
  std::uint64_t n = 0;
  for (const auto& set : sets_) {
    for (const auto& line : set) {
      if (line.valid) ++n;
    }
  }
  return n;
}

void Cache::for_each(
    const std::function<void(const CacheLineMeta&)>& fn) const {
  for (const auto& set : sets_) {
    for (const auto& line : set) {
      if (line.valid) fn(line);
    }
  }
}

}  // namespace teco::mem
