// A deterministic discrete-event engine.
//
// This is the substrate under the CXL link model and the offload timeline
// simulator: components schedule callbacks at absolute simulated times and
// the engine runs them in (time, insertion-order) order.
//
// Same-timestamp ordering is a contract, not an accident. Every Entry
// carries a sequence number drawn from a monotone counter at schedule_at()
// time, and the heap comparator orders by (when, seq) — so events at equal
// times run strictly FIFO in schedule order, including events scheduled
// *during* another event at the same timestamp (they get later sequence
// numbers, so they run after everything already queued at that instant).
// Two runs that issue the same schedule calls therefore execute callbacks
// in bit-identical order. The model checker (teco::mc) pins state-space
// counts as goldens and cxl::EventChannel interleaves per-packet delivery
// callbacks with fence drains at equal timestamps; both depend on this
// tie-break being deterministic. tests/sim_test.cpp locks the contract.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/time.hpp"

namespace teco::sim {

/// Node id in a causal sink's id space. kNoCausalNode marks "no parent"
/// (an event scheduled outside any callback) and "not tracked" (no sink
/// attached, or the sink hit its node bound).
inline constexpr std::uint32_t kNoCausalNode = 0xffffffffu;

#ifndef TECO_OBS_DISABLED
/// Provenance consumer for the causal event DAG (implemented by
/// obs::causal::CausalGraph). Declared here, in the sim layer, because the
/// queue records provenance but must not depend on obs. One call per
/// schedule_at(): `parent` is the node of the event whose callback is
/// executing, `tag` the active category tag (obs::causal::Category as
/// uint8), `scheduled` = now(), `when` the (clamped) fire time. Returns
/// the node id assigned to the new event, or kNoCausalNode to drop it.
class CausalSink {
 public:
  virtual ~CausalSink() = default;
  virtual std::uint32_t on_schedule(std::uint32_t parent, std::uint8_t tag,
                                    Time scheduled, Time when) = 0;
};
#endif

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Current simulated time. Starts at 0 and only moves forward.
  Time now() const { return now_; }

  /// Number of events not yet executed.
  std::size_t pending() const { return heap_.size(); }

  bool empty() const { return heap_.empty(); }

  /// Schedule `cb` at absolute time `when`. Scheduling in the past (before
  /// `now()`) is a logic error and is clamped to `now()` after recording it
  /// in `clamped_past_schedules()` so tests can assert it never happens.
  void schedule_at(Time when, Callback cb);

  /// Schedule `cb` at `now() + delay`.
  void schedule_after(Time delay, Callback cb) {
    schedule_at(now_ + delay, std::move(cb));
  }

  /// Run the earliest event. Returns false if the queue is empty.
  bool step();

  /// Run events until the queue is empty or `limit` events have run.
  /// Returns the number of events executed.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Run events with time <= `until` (inclusive). Events an executed event
  /// schedules inside the window are run too. Advances now() to `until`
  /// even if nothing was pending. Returns the number executed.
  std::size_t run_until(Time until);

  std::uint64_t executed() const { return executed_; }
  std::uint64_t clamped_past_schedules() const { return clamped_; }

#ifndef TECO_OBS_DISABLED
  /// Attach / detach the provenance consumer. Null (the default) keeps
  /// schedule_at on its bare path: one pointer test per schedule.
  void set_causal_sink(CausalSink* sink) { causal_ = sink; }
  CausalSink* causal_sink() const { return causal_; }

  /// Node id of the event whose callback is currently executing
  /// (kNoCausalNode between events). Components use this to splice
  /// closed-form sub-chains onto the event-driven DAG.
  std::uint32_t current_node() const { return cur_node_; }

  /// Active category tag, captured into every node scheduled while set.
  /// Prefer TagScope over calling this directly.
  void set_current_tag(std::uint8_t tag) { cur_tag_ = tag; }
  std::uint8_t current_tag() const { return cur_tag_; }
#else
  // TECO_OBS=OFF: provenance compiles out. The inline no-ops keep call
  // sites ifdef-free; Entry carries no node field and schedule_at pays
  // nothing.
  void set_causal_sink(void*) {}
  std::uint32_t current_node() const { return kNoCausalNode; }
  void set_current_tag(std::uint8_t) {}
  std::uint8_t current_tag() const { return 0; }
#endif

 private:
  struct Entry {
    Time when;
    std::uint64_t seq;
    Callback cb;
#ifndef TECO_OBS_DISABLED
    std::uint32_t node;
#endif
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t clamped_ = 0;
#ifndef TECO_OBS_DISABLED
  CausalSink* causal_ = nullptr;
  std::uint32_t cur_node_ = kNoCausalNode;
  std::uint8_t cur_tag_ = 0;
#endif
};

/// RAII category tag: every event scheduled inside the scope is recorded
/// with `tag` (an obs::causal::Category). Nests; restores the previous tag
/// on exit. A no-op under TECO_OBS=OFF and when no sink is attached.
class TagScope {
 public:
  TagScope(EventQueue& q, std::uint8_t tag)
      : q_(q), prev_(q.current_tag()) {
    q_.set_current_tag(tag);
  }
  TagScope(const TagScope&) = delete;
  TagScope& operator=(const TagScope&) = delete;
  ~TagScope() { q_.set_current_tag(prev_); }

 private:
  EventQueue& q_;
  std::uint8_t prev_;
};

}  // namespace teco::sim
