#include "dba/disaggregator.hpp"

#include "dba/aggregator.hpp"

#include <cstring>
#include <stdexcept>

namespace teco::dba {

mem::BackingStore::Line Disaggregator::merge(
    const mem::BackingStore::Line& old_line,
    std::span<const std::uint8_t> payload) const {
  shard_.assert_held();
  ++lines_processed_;
  if (!reg_.trims()) {
    if (payload.size() != mem::kLineBytes) {
      throw std::invalid_argument("bypass payload must be a full line");
    }
    mem::BackingStore::Line out;
    std::memcpy(out.data(), payload.data(), mem::kLineBytes);
    if (observer_ != nullptr) {
      observer_->on_dba_merge(old_line.data(), payload.data(), payload.size(),
                              out.data(), reg_.encode());
    }
    return out;
  }
  const std::uint8_t n = reg_.dirty_bytes();
  if (payload.size() != payload_bytes(n)) {
    throw std::invalid_argument("payload size does not match DBA register");
  }
  ++extra_reads_;  // The stale line must be read from the giant cache.
  mem::BackingStore::Line out = old_line;
  scatter_low_bytes(n, payload.data(), out.data());
  if (observer_ != nullptr) {
    observer_->on_dba_merge(old_line.data(), payload.data(), payload.size(),
                            out.data(), reg_.encode());
  }
  return out;
}

mem::BackingStore::Line expected_merge(DbaRegister reg,
                                       const mem::BackingStore::Line& old_line,
                                       const mem::BackingStore::Line& src) {
  if (!reg.trims()) return src;
  mem::BackingStore::Line out = old_line;
  const std::uint8_t n = reg.dirty_bytes();
  for (std::size_t w = 0; w < mem::kWordsPerLine; ++w) {
    for (std::uint8_t b = 0; b < n; ++b) {
      out[w * 4 + b] = src[w * 4 + b];
    }
  }
  return out;
}

float splice_f32(float old_val, float new_val, std::uint8_t dirty_bytes) {
  if (dirty_bytes > 4) throw std::invalid_argument("dirty_bytes in [0,4]");
  if (dirty_bytes == 4) return new_val;
  if (dirty_bytes == 0) return old_val;
  std::uint32_t o, nv;
  std::memcpy(&o, &old_val, 4);
  std::memcpy(&nv, &new_val, 4);
  const std::uint32_t lo_mask = (1u << (8 * dirty_bytes)) - 1u;
  const std::uint32_t merged = (o & ~lo_mask) | (nv & lo_mask);
  float out;
  std::memcpy(&out, &merged, 4);
  return out;
}

}  // namespace teco::dba
