// Accelerator-side Disaggregator (Section V-C).
//
// Reconstructs an updated cache line by merging the aggregated dirty bytes
// with the stale copy resident in the giant cache: per 4-byte word,
//   new = (old & ~lo_mask(N)) | (payload_word & lo_mask(N)).
// The paper implements this as reset-shift-OR in the device CXL module; the
// merge costs one extra giant-cache DRAM read per line (studied in VIII-D).
#pragma once

#include <cstdint>
#include <span>

#include "check/observer.hpp"
#include "dba/dba_register.hpp"
#include "mem/backing_store.hpp"

namespace teco::dba {

class Disaggregator {
 public:
  explicit Disaggregator(DbaRegister reg = {}) : reg_(reg) {}

  /// Device-side register mirror, set by the kDbaConfig message.
  void set_register(DbaRegister reg) { reg_ = reg; }
  DbaRegister reg() const { return reg_; }

  /// Merge a payload (16*N bytes if trimming, else a full 64-byte line)
  /// into `old_line`, returning the reconstructed line.
  mem::BackingStore::Line merge(const mem::BackingStore::Line& old_line,
                                std::span<const std::uint8_t> payload) const;

  std::uint64_t lines_processed() const { return lines_processed_; }
  /// Extra giant-cache reads performed for merges (VIII-D amplification).
  std::uint64_t extra_reads() const { return extra_reads_; }

  /// Attach/detach the coherence invariant checker (nullptr to detach).
  void set_observer(check::Observer* obs) { observer_ = obs; }

 private:
  DbaRegister reg_;
  check::Observer* observer_ = nullptr;
  mutable std::uint64_t lines_processed_ = 0;
  mutable std::uint64_t extra_reads_ = 0;
};

/// Bit-exact FP32 splice used by the numeric training path: keep the high
/// (4-N) bytes of `old_val` and take the low N bytes of `new_val` — exactly
/// what a DBA-transferred parameter looks like on the accelerator.
float splice_f32(float old_val, float new_val, std::uint8_t dirty_bytes);

/// Closed-form pack+merge: the line the device must hold after a push of
/// `src` over `old_line` under `reg` (bypass copy when not trimming, else
/// per-word low-byte splice). This is the independent oracle the model
/// checker compares the real Aggregator->link->Disaggregator pipeline
/// against, so keep it a separate expression of Section V, not a call into
/// the units it is checking.
mem::BackingStore::Line expected_merge(DbaRegister reg,
                                       const mem::BackingStore::Line& old_line,
                                       const mem::BackingStore::Line& src);

}  // namespace teco::dba
