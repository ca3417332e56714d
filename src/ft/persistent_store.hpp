// Simulated persistent CXL memory device (the checkpoint target).
//
// TrainingCXL ("Failure Tolerant Training with Persistent Memory
// Disaggregation over CXL") attaches persistent memory behind a CXL.mem
// port and checkpoints training state into it. This store models the
// durability contract of such a device: writes land in a volatile device
// write buffer first (staged) and only become crash-safe after an explicit
// commit — the ADR-style drain a checkpoint fence issues. A device crash
// between commits discards the staged bytes and leaves the last committed
// image intact.
//
// Timing is carried by PmemTiming, whose constants come from
// offload::Calibration (pmem_* fields) so benches and the recovery model
// account checkpoint traffic consistently.
#pragma once

#include <cstdint>
#include <span>

#include "mem/address.hpp"
#include "mem/backing_store.hpp"
#include "offload/calibration.hpp"
#include "sim/time.hpp"

namespace teco::ft {

/// Bandwidth/latency constants of the persistent device.
struct PmemTiming {
  double write_bw = 8e9;
  double read_bw = 20e9;
  sim::Time access_latency = sim::ns(400);
  sim::Time flush_latency = sim::us(2.0);

  static PmemTiming from_calibration(const offload::Calibration& cal) {
    return PmemTiming{cal.pmem_write_bw, cal.pmem_read_bw,
                      cal.pmem_access_latency, cal.pmem_flush_latency};
  }

  /// Media time for a sequential write pass (no durability fence).
  sim::Time write_time(std::uint64_t bytes) const {
    return access_latency + static_cast<double>(bytes) / write_bw;
  }
  sim::Time read_time(std::uint64_t bytes) const {
    return access_latency + static_cast<double>(bytes) / read_bw;
  }
};

struct PersistentStoreStats {
  std::uint64_t commits = 0;
  std::uint64_t committed_bytes = 0;
  std::uint64_t crashes = 0;
  std::uint64_t lost_staged_lines = 0;  ///< Staged lines discarded by crashes.
};

class PersistentStore {
 public:
  using Line = mem::BackingStore::Line;

  explicit PersistentStore(PmemTiming timing = {}) : timing_(timing) {}

  /// Stage an arbitrary byte range; partially covered lines read-modify-
  /// write against the current (staged-over-durable) contents.
  void stage_bytes(mem::Addr addr, std::span<const std::uint8_t> bytes);

  /// Durability fence: drain the write buffer into persistent media.
  /// Returns the completion time (media write of the staged bytes plus the
  /// flush latency, starting at `now`).
  sim::Time commit(sim::Time now);

  /// Device crash: the write buffer is lost, committed media survives.
  void crash();

  /// Read committed (durable) contents; staged bytes are invisible until
  /// commit, exactly like a crash-consistent reader.
  void read(mem::Addr addr, std::span<std::uint8_t> out) const {
    durable_.read(addr, out);
  }
  Line read_line(mem::Addr addr) const { return durable_.read_line(addr); }

  std::uint64_t staged_lines() const { return staged_.resident_lines(); }
  std::uint64_t durable_lines() const { return durable_.resident_lines(); }
  const PmemTiming& timing() const { return timing_; }
  const PersistentStoreStats& stats() const { return stats_; }

 private:
  PmemTiming timing_;
  mem::BackingStore staged_;
  mem::BackingStore durable_;
  PersistentStoreStats stats_;
};

}  // namespace teco::ft
