#include "sim/event_queue.hpp"

#include <utility>

namespace teco::sim {

void EventQueue::schedule_at(Time when, Callback cb) {
  if (when < now_) {
    ++clamped_;
    when = now_;
  }
#ifndef TECO_OBS_DISABLED
  std::uint32_t node = kNoCausalNode;
  if (causal_ != nullptr) {
    node = causal_->on_schedule(cur_node_, cur_tag_, now_, when);
  }
  heap_.push(Entry{when, next_seq_++, std::move(cb), node});
#else
  heap_.push(Entry{when, next_seq_++, std::move(cb)});
#endif
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  // priority_queue::top() is const; move out via const_cast, which is safe
  // because the entry is popped before the callback can touch the heap.
  Entry e = std::move(const_cast<Entry&>(heap_.top()));
  heap_.pop();
  now_ = e.when;
  ++executed_;
#ifndef TECO_OBS_DISABLED
  cur_node_ = e.node;
  e.cb();
  cur_node_ = kNoCausalNode;
#else
  e.cb();
#endif
  return true;
}

std::size_t EventQueue::run(std::size_t limit) {
  std::size_t n = 0;
  while (n < limit && step()) ++n;
  return n;
}

std::size_t EventQueue::run_until(Time until) {
  std::size_t n = 0;
  while (!heap_.empty() && heap_.top().when <= until) {
    step();
    ++n;
  }
  if (now_ < until) now_ = until;
  return n;
}

}  // namespace teco::sim
