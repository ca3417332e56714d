// CPU-side Aggregator (Section V-B).
//
// For each FP32 word of a 64-byte cache line, take the least significant
// `dirty_bytes` bytes and concatenate them into a payload of
// 16 * dirty_bytes bytes. FP32 values are little-endian in memory, so the
// "least significant two bytes" of the paper are byte offsets 0..N-1 of each
// word. Processing latency per line is ~1.28 ns scaled (Section VIII-D);
// the end-to-end model charges the conservative 1 ns per the paper.
#pragma once

#include <cstddef>
#include <cstdint>

#include "check/observer.hpp"
#include "core/annotations.hpp"
#include "dba/dba_register.hpp"
#include "mem/backing_store.hpp"
#include "sim/time.hpp"

namespace teco::dba {

/// Payload size produced for one 64-byte line at a given dirty-byte length.
constexpr std::uint32_t payload_bytes(std::uint8_t dirty_bytes) {
  return static_cast<std::uint32_t>(mem::kWordsPerLine) * dirty_bytes;
}

/// ASIC-scaled processing latencies from the Vivado synthesis (VIII-D).
inline constexpr sim::Time kAggregatorLatency = sim::ns(1.28);
inline constexpr sim::Time kDisaggregatorLatency = sim::ns(1.126);
/// The end-to-end performance model charges this per line (paper's choice).
inline constexpr sim::Time kModeledDbaLatency = sim::ns(1.0);
/// Synthesized, FPGA->ASIC-scaled power (W).
inline constexpr double kAggregatorPowerW = 0.0127;
inline constexpr double kDisaggregatorPowerW = 0.017;

/// One packed line, held inline: a payload is never longer than the full
/// line the bypass path forwards, so packing never touches the heap. It is a
/// contiguous range, so it converts to std::span<const std::uint8_t>.
struct Payload {
  mem::BackingStore::Line bytes{};
  std::size_t len = 0;

  const std::uint8_t* data() const { return bytes.data(); }
  std::size_t size() const { return len; }
  const std::uint8_t* begin() const { return bytes.data(); }
  const std::uint8_t* end() const { return bytes.data() + len; }
  std::uint8_t operator[](std::size_t i) const { return bytes[i]; }
};

/// Copy the low `n` (0..3) bytes of each of a line's 16 FP32 words between
/// the line layout (word stride 4) and the packed layout (word stride n).
/// Each word moves as one fixed-width copy, not a byte loop.
void gather_low_bytes(std::uint8_t n, const std::uint8_t* line,
                      std::uint8_t* payload);
void scatter_low_bytes(std::uint8_t n, const std::uint8_t* payload,
                       std::uint8_t* line);

class Aggregator {
 public:
  explicit Aggregator(DbaRegister reg = {}) : reg_(reg) {}

  void set_register(DbaRegister reg) {
    shard_.assert_held();
    reg_ = reg;
  }
  DbaRegister reg() const {
    shard_.assert_held();
    return reg_;
  }

  /// Pack one 64-byte line. If DBA is inactive (or dirty_bytes == 4) the
  /// full line is returned unchanged (the "bypass" path).
  Payload pack(const mem::BackingStore::Line& line) const;

  /// Wire payload size for one line under the current register.
  std::uint32_t packed_bytes() const {
    shard_.assert_held();
    return reg_.trims() ? payload_bytes(reg_.dirty_bytes())
                        : static_cast<std::uint32_t>(mem::kLineBytes);
  }

  std::uint64_t lines_processed() const {
    shard_.assert_held();
    return lines_processed_;
  }

  /// Attach/detach the coherence invariant checker (nullptr to detach).
  void set_observer(check::Observer* obs) { observer_ = obs; }

 private:
  // The CPU-side DBA register bank is home-agent-shard state (the kDbaConfig
  // mirror keeps the device side in sync through the protocol, not through
  // shared memory).
  core::ShardCapability shard_;
  DbaRegister reg_ TECO_SHARD_AFFINE(shard_);
  check::Observer* observer_ = nullptr;
  mutable std::uint64_t lines_processed_ TECO_SHARD_AFFINE(shard_) = 0;
};

}  // namespace teco::dba
