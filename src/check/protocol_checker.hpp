// ProtocolChecker: a race/coherence detector for the simulated CXL domain.
//
// TECO's correctness argument rests on one delicate change to CXL.cache
// MESI — the M->S FlushData push of Fig. 4/5 — plus a lossy DBA merge path.
// The checker attaches to a HomeAgent as a check::Observer and enforces,
// per cache line of the coherent domain:
//
//  (a) SWMR — at most one M/E holder across the CPU LLC and the giant
//      cache, and the snoop filter consistent with the actual holders
//      (empty under the update protocol, Section IV-A2).
//  (b) Transition legality — every observed state change satisfies
//      legal_transition(effective_protocol, from, to). The one contextual
//      exception is stock MESI's snoop-read downgrade: M->S is accepted
//      under kInvalidation only inside a demand-read operation (the data
//      crosses as a kData writeback); an M->S *push* outside a read is the
//      update-protocol extension and fires under kInvalidation.
//  (c) Data values — when backing stores carry real bytes, a reader
//      observes the last writer's bytes. On DBA-trimmed regions the check
//      is merge conservation instead of bitwise equality: per FP32 word,
//      new_dev = (old_dev & hi_mask) | (src & lo_mask).
//  (d) Fence completeness — a CXLFENCE() result covers every in-flight
//      flit (drain >= the delivery time of everything injected), and flits
//      are conserved: the packets the checker saw injected are exactly the
//      packets the channel accounted (delivered + dropped-and-reported;
//      the closed-form link never drops silently).
//
// Violations carry the line's recent transition history (a small ring
// buffer) and either throw ProtocolViolation (CheckLevel::kStrict, the
// test default) or only count in CheckerStats (kCount, the release/bench
// posture). kOff disables attachment entirely.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/observer.hpp"
#include "coherence/home_agent.hpp"
#include "coherence/mesi.hpp"
#include "mem/backing_store.hpp"

namespace teco::check {

enum class CheckLevel : std::uint8_t {
  kOff,     ///< No checker attached; zero overhead.
  kCount,   ///< Violations increment CheckerStats; execution continues.
  kStrict,  ///< Violations throw ProtocolViolation.
};

std::string_view to_string(CheckLevel level);

/// What a violation is about, for counting and filtering.
enum class ViolationKind : std::uint8_t {
  kSwmr,
  kIllegalTransition,
  kSnoopFilter,
  kDataValue,
  kDbaMerge,
  kFence,
  kFlitConservation,
};

std::string_view to_string(ViolationKind kind);

struct CheckerStats {
  std::uint64_t transitions_checked = 0;
  std::uint64_t ops_checked = 0;
  std::uint64_t lines_tracked = 0;
  std::uint64_t swmr_violations = 0;
  std::uint64_t illegal_transitions = 0;
  std::uint64_t snoop_violations = 0;
  std::uint64_t data_value_violations = 0;
  std::uint64_t dba_merge_violations = 0;
  std::uint64_t fence_violations = 0;
  std::uint64_t flit_conservation_violations = 0;

  std::uint64_t total_violations() const {
    return swmr_violations + illegal_transitions + snoop_violations +
           data_value_violations + dba_merge_violations + fence_violations +
           flit_conservation_violations;
  }
};

class ProtocolViolation : public std::runtime_error {
 public:
  ProtocolViolation(ViolationKind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  ViolationKind kind() const { return kind_; }

 private:
  ViolationKind kind_;
};

class ProtocolChecker final : public Observer {
 public:
  struct Options {
    CheckLevel level = CheckLevel::kStrict;
    /// Backing stores, when the domain carries real bytes. Without them the
    /// data-value invariant (c) is skipped; (a), (b) and (d) still apply.
    mem::BackingStore* cpu_mem = nullptr;
    mem::BackingStore* device_mem = nullptr;
  };

  /// Attaches to `agent` (and through it to the giant cache, CPU cache,
  /// snoop filter, link and DBA units) and snapshots current domain state.
  ProtocolChecker(coherence::HomeAgent& agent, Options opts);
  ~ProtocolChecker() override;

  ProtocolChecker(const ProtocolChecker&) = delete;
  ProtocolChecker& operator=(const ProtocolChecker&) = delete;

  const CheckerStats& stats() const { return stats_; }
  CheckLevel level() const { return opts_.level; }

  /// Violation messages recorded so far (bounded; useful under kCount).
  const std::vector<std::string>& violations() const { return violations_; }

  /// Formatted recent-transition history for `line` (for diagnostics).
  std::string line_history(mem::Addr line) const;

  /// Packets the flit-conservation invariant has observed injected in
  /// direction `dir` (0 = CPU->device / m2s, 1 = device->CPU / s2m) since
  /// attach. The obs registry's coherence.{m2s,s2m}.msgs counters are
  /// recorded at the same link choke point and must agree exactly.
  std::uint64_t packets_injected(std::uint8_t dir) const {
    return injected_[dir];
  }

  /// Sweep every tracked line for SWMR + snoop-filter consistency at a
  /// quiescent point (e.g. after a fence). Ops do this incrementally for
  /// the lines they touch; this is the whole-domain variant.
  void verify_quiescent();

  // --- Observer interface --------------------------------------------------
  void on_op_begin(sim::Time now, Op op, mem::Addr line) override;
  void on_op_end(sim::Time now, Op op, mem::Addr line) override;
  void on_region_mapped(mem::Addr base, std::uint64_t bytes,
                        std::uint8_t initial_state, bool dba_eligible) override;
  void on_state_change(Domain dom, mem::Addr line, std::uint8_t from,
                       std::uint8_t to) override;
  void on_cache_drop(mem::Addr line, std::uint8_t state, bool dirty) override;
  void on_sharer_change(mem::Addr line, std::uint8_t before,
                        std::uint8_t after) override;
  void on_packet(sim::Time now, std::uint8_t dir, std::uint8_t msg_type,
                 mem::Addr addr, std::uint64_t count,
                 sim::Time delivered) override;
  void on_fence(std::uint8_t dir, sim::Time now, sim::Time drain) override;
  void on_dba_pack(const std::uint8_t* src, const std::uint8_t* payload,
                   std::size_t payload_len, std::uint8_t reg_bits) override;
  void on_dba_merge(const std::uint8_t* old_line, const std::uint8_t* payload,
                    std::size_t payload_len, const std::uint8_t* merged,
                    std::uint8_t reg_bits) override;

 private:
  struct RegionInfo {
    mem::Addr base = 0;
    std::uint64_t bytes = 0;
    bool dba_eligible = false;
    std::uint8_t initial_state = 0;
  };

  struct TransitionRecord {
    sim::Time t = 0.0;
    Domain dom = Domain::kCpuCache;
    Op op = Op::kNone;
    std::uint8_t from = 0;
    std::uint8_t to = 0;
  };

  static constexpr std::size_t kHistoryDepth = 8;

  struct LineInfo {
    std::uint8_t cpu = 0;  ///< MesiState byte; kInvalid when absent.
    std::uint8_t dev = 0;
    std::uint8_t sharers = 0;
    bool has_expected_dev = false;
    /// Device-visible bytes after the last protocol push/fetch; only
    /// maintained for lines whose consumer copy may move only via the
    /// protocol (DBA-eligible parameter regions, demand-fetched lines).
    std::array<std::uint8_t, mem::kLineBytes> expected_dev{};
    std::array<TransitionRecord, kHistoryDepth> history{};
    std::uint8_t history_len = 0;
    std::uint8_t history_head = 0;
    std::uint64_t touched_in_op = 0;  ///< op_seq_ of the last touch.
  };

  const RegionInfo* region_of(mem::Addr line) const;
  LineInfo& line_info(mem::Addr line);
  void record(LineInfo& li, Domain dom, std::uint8_t from, std::uint8_t to);
  void touch(mem::Addr line, LineInfo& li);

  void check_transition(Domain dom, mem::Addr line, std::uint8_t from,
                        std::uint8_t to);
  void check_swmr(mem::Addr line, const LineInfo& li);
  void check_snoop(mem::Addr line, const LineInfo& li);
  void check_data_after_op(Op op, mem::Addr line);

  void report(ViolationKind kind, const std::string& message);
  std::uint64_t& counter_for(ViolationKind kind);

  coherence::HomeAgent& agent_;
  Options opts_;
  CheckerStats stats_;
  std::vector<RegionInfo> regions_;
  std::unordered_map<std::uint64_t, LineInfo> lines_;  ///< By line index.
  std::vector<std::string> violations_;

  // Current op scope (single-level: home-agent ops never nest).
  bool in_op_ = false;
  Op op_ = Op::kNone;
  sim::Time op_now_ = 0.0;
  mem::Addr op_line_ = 0;
  bool op_sent_data_ = false;  ///< A packet crossed the link this op.
  std::vector<mem::Addr> touched_;  ///< Lines changed during the op.
  std::uint64_t op_seq_ = 0;        ///< Numbers operations for touch().

  // Link accounting for invariant (d).
  std::array<std::uint64_t, 2> injected_{};       ///< Packets per direction.
  std::array<sim::Time, 2> last_delivery_{};      ///< Max delivery seen.
  std::array<std::uint64_t, 2> baseline_packets_{};  ///< Channel count at attach.
  sim::Time last_time_ = 0.0;
};

}  // namespace teco::check
