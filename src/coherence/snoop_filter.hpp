// Snoop filter (coherence directory) for the invalidation protocol.
//
// The paper's point (Section IV-A2): a giant cache would normally need a
// huge snoop filter tracking sharers per line, but TECO's producer/consumer
// discipline makes it unnecessary under the update protocol — the directory
// is only consulted in invalidation mode or when an application has unclear
// sharing. We implement it to (a) serve invalidation mode and (b) let tests
// assert it stays empty during update-protocol training.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "check/observer.hpp"
#include "mem/address.hpp"

namespace teco::coherence {

enum class Sharer : std::uint8_t {
  kCpu = 1u << 0,
  kDevice = 1u << 1,
};

class SnoopFilter {
 public:
  void add_sharer(mem::Addr line, Sharer who) {
    std::uint8_t& mask = entries_[mem::line_index(line)];
    const std::uint8_t before = mask;
    mask |= static_cast<std::uint8_t>(who);
    peak_entries_ = entries_.size() > peak_entries_ ? entries_.size()
                                                    : peak_entries_;
    if (observer_ != nullptr) {
      observer_->on_sharer_change(mem::line_base(line), before, mask);
    }
  }

  void remove_sharer(mem::Addr line, Sharer who) {
    const auto it = entries_.find(mem::line_index(line));
    if (it == entries_.end()) return;
    const std::uint8_t before = it->second;
    it->second &= static_cast<std::uint8_t>(~static_cast<std::uint8_t>(who));
    const std::uint8_t after = it->second;
    if (it->second == 0) entries_.erase(it);
    if (observer_ != nullptr) {
      observer_->on_sharer_change(mem::line_base(line), before, after);
    }
  }

  bool is_sharer(mem::Addr line, Sharer who) const {
    const auto it = entries_.find(mem::line_index(line));
    return it != entries_.end() &&
           (it->second & static_cast<std::uint8_t>(who)) != 0;
  }

  /// Raw sharer bitmask for `line` (0 when untracked). The model checker
  /// folds this into its canonical state vector.
  std::uint8_t sharer_mask(mem::Addr line) const {
    const auto it = entries_.find(mem::line_index(line));
    return it == entries_.end() ? 0 : it->second;
  }

  std::size_t entries() const { return entries_.size(); }
  std::size_t peak_entries() const { return peak_entries_; }

  /// Directory SRAM cost at ~2 B/entry, the figure the paper's "saves
  /// memory space" claim compares against.
  std::uint64_t approx_bytes() const { return peak_entries_ * 2; }

  void clear() { entries_.clear(); }

  /// Attach/detach the coherence invariant checker (nullptr to detach).
  void set_observer(check::Observer* obs) { observer_ = obs; }

 private:
  std::unordered_map<std::uint64_t, std::uint8_t> entries_;
  std::size_t peak_entries_ = 0;
  check::Observer* observer_ = nullptr;
};

}  // namespace teco::coherence
