// teco::obs::causal — causal event-graph tracing + critical-path
// attribution.
//
// Flat counters say *how much* traffic flowed; spans say *when* something
// ran; neither says *why* an event ran when it did. This module records a
// bounded causal DAG of the run: sim::EventQueue threads a provenance
// token through schedule_at()/schedule_after() (see sim::CausalSink), so
// every event node knows its parent — the event whose callback scheduled
// it — plus a category tag set by the scheduling component via
// sim::TagScope. Closed-form components (core::Session's step model, the
// offload timeline phases) splice onto the same DAG with CausalGraph::add,
// chaining an explicit parent through every simulated-time advancement.
//
// On top of the DAG, critical_path() extracts the longest weighted path
// ending at a terminal node over an interval [begin, end] — a training
// step, a serve request's TTFT window, one fabric all-reduce — by walking
// the parent chain backwards and attributing each hop's in-flight window
// [scheduled, when] to the hop's category. The segments *partition* the
// interval (gaps become kIdle), so the category sums reconcile with the
// measured interval exactly — the same conservation spirit as the
// checker's flit-conservation equality, and it is enforced as a hard
// check: critical_path() aborts if the partition does not reconcile.
//
// The DAG is bounded (max_nodes, default 1<<20); past the bound new nodes
// are dropped (counted in dropped()) and the path walk simply ends at the
// truncation frontier, filling the remainder with kIdle.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace teco::obs::causal {

/// Why an event (or closed-form interval) occupied the timeline. The
/// uint8 values ride through sim::TagScope / sim::CausalSink.
enum class Category : std::uint8_t {
  kUnknown = 0,      ///< untagged event-queue activity
  kCompute = 1,      ///< GPU/CPU compute slot (forward, backward, Adam)
  kCxlUp = 2,        ///< device→CPU (S2M) link occupancy wait
  kCxlDown = 3,      ///< CPU→device (M2S) link occupancy wait
  kSwitchQueue = 4,  ///< fabric switch port queueing
  kFenceDrain = 5,   ///< stalled at CXLFENCE while queued traffic drains
  kEvictStall = 6,   ///< blocked behind a capacity eviction
  kDemandFetch = 7,  ///< blocked on a demand fetch / prefetch landing
  kPoolReduce = 8,   ///< in-pool DBA reduce fold/commit
  kIdle = 9,         ///< interval gap not on any causal chain
};
inline constexpr std::size_t kNumCategories = 10;

/// Human name ("fence_drain") — used by why_slow() and tests.
const char* to_string(Category cat);

/// Metric suffix ("fence_drain_us") under the `obs.critpath.` prefix.
const char* metric_suffix(Category cat);

inline std::uint8_t tag(Category cat) { return static_cast<std::uint8_t>(cat); }

/// One node of the causal DAG. `scheduled` is when the parent issued it
/// (== parent's `when` for event-queue children), `when` is when it fired;
/// [scheduled, when] is the in-flight window attributed to `cat`.
struct Node {
  std::uint32_t parent = sim::kNoCausalNode;
  Category cat = Category::kUnknown;
  sim::Time scheduled = 0.0;
  sim::Time when = 0.0;
};

/// Bounded causal DAG. Implements sim::CausalSink so an EventQueue records
/// provenance into it automatically; closed-form components append with
/// add(). Node ids are indices into a flat vector — allocation is one
/// push_back, lookups are O(1), and the bound caps memory for long runs.
#ifndef TECO_OBS_DISABLED
class CausalGraph final : public sim::CausalSink {
#else
// TECO_OBS=OFF compiles sim::CausalSink (and the queue's provenance
// plumbing) out; the graph itself stays available for closed-form add()
// chains so call sites build unchanged.
class CausalGraph final {
#endif
 public:
  static constexpr std::size_t kDefaultMaxNodes = std::size_t{1} << 20;

  explicit CausalGraph(std::size_t max_nodes = kDefaultMaxNodes)
      : max_nodes_(max_nodes) {}

  // sim::CausalSink (a plain method under TECO_OBS=OFF, where the
  // interface itself does not exist).
  std::uint32_t on_schedule(std::uint32_t parent, std::uint8_t tag,
                            sim::Time scheduled, sim::Time when)
#ifndef TECO_OBS_DISABLED
      override
#endif
  {
    return push(Node{parent, static_cast<Category>(tag), scheduled, when});
  }

  /// Append a closed-form node covering [from, when] explicitly.
  std::uint32_t add(Category cat, sim::Time when, std::uint32_t parent,
                    sim::Time from) {
    return push(Node{parent, cat, from, when});
  }

  /// Append a closed-form node: an interval ending at `when`, starting at
  /// the parent's `when` (or collapsing to an instant for roots).
  std::uint32_t add(Category cat, sim::Time when,
                    std::uint32_t parent = sim::kNoCausalNode) {
    return add(cat, when, parent,
               parent < nodes_.size() ? nodes_[parent].when : when);
  }

  const Node& node(std::uint32_t id) const { return nodes_[id]; }
  std::size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }
  /// Nodes rejected because the bound was hit.
  std::uint64_t dropped() const { return dropped_; }
  std::size_t max_nodes() const { return max_nodes_; }

  void clear() {
    nodes_.clear();
    dropped_ = 0;
  }

 private:
  std::uint32_t push(const Node& n) {
    if (nodes_.size() >= max_nodes_) {
      ++dropped_;
      return sim::kNoCausalNode;
    }
    nodes_.push_back(n);
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }

  std::size_t max_nodes_;
  std::vector<Node> nodes_;
  std::uint64_t dropped_ = 0;
};

/// One hop of the extracted critical path. `node` is sim::kNoCausalNode
/// for gap-fill segments.
struct PathSegment {
  std::uint32_t node = sim::kNoCausalNode;
  Category cat = Category::kIdle;
  sim::Time begin = 0.0;
  sim::Time end = 0.0;
};

/// Critical-path attribution for one interval. `segments` is ascending and
/// partitions [begin, end] exactly; `by_category` sums segment durations
/// (seconds) per category. conserved() re-verifies the partition — it is
/// also checked (hard, abort-on-violation) inside critical_path() itself.
struct Attribution {
  sim::Time begin = 0.0;
  sim::Time end = 0.0;
  std::vector<PathSegment> segments;
  std::array<sim::Time, kNumCategories> by_category{};

  sim::Time total() const { return end - begin; }
  sim::Time of(Category cat) const {
    return by_category[static_cast<std::size_t>(cat)];
  }
  /// True iff the segments are adjacent, in-bounds, and their category
  /// sums reconcile with (end - begin) within `tol` seconds.
  bool conserved(sim::Time tol = 1e-12) const;
  /// Human `why-slow` report: category shares sorted by share, hop count.
  std::string why_slow(const std::string& title) const;
};

/// Extract the critical path ending at `terminal` over [begin, end]: walk
/// the parent chain backwards, attribute each hop's in-flight window to
/// its category, fill gaps (including a truncated or absent chain) with
/// `fill`. Aborts if the resulting segments fail the conservation check.
Attribution critical_path(const CausalGraph& g, sim::Time begin,
                          sim::Time end, std::uint32_t terminal,
                          Category fill = Category::kIdle);

}  // namespace teco::obs::causal
