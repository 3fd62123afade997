// Test-only reference event kernel: the simplest correct implementation
// of EventQueue's contract, used as the differential oracle for the
// calendar queue. Every pending event sits in one flat vector and each
// dispatch linearly scans it for the earliest (time, schedule-order)
// pair, so there is no bucket geometry, batching or lazy deletion to get
// wrong. O(n) per step -- fine for test-sized populations only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"

namespace raidsim {

class ReferenceQueue {
 public:
  using Callback = std::function<void()>;

  SimTime now() const { return now_; }

  /// Schedule `cb` at `when` (clamped to now()). Ids start at 1, so zero
  /// stays a "no event" sentinel as it is for EventQueue.
  EventId schedule_at(SimTime when, Callback cb) {
    if (when < now_) when = now_;
    const std::uint64_t seq = seq_++;
    events_.push_back(Event{when, seq, std::move(cb)});
    return seq + 1;
  }

  EventId schedule_in(SimTime delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// True if `id` was pending; executed, cancelled or unknown ids are a
  /// no-op.
  bool cancel(EventId id) {
    for (std::size_t i = 0; i < events_.size(); ++i) {
      if (events_[i].seq + 1 == id) {
        remove(i);
        return true;
      }
    }
    return false;
  }

  bool step() {
    if (events_.empty()) return false;
    execute(earliest());
    return true;
  }

  /// Run until empty or `limit` events ran (0 = unbounded).
  std::uint64_t run(std::uint64_t limit = 0) {
    std::uint64_t count = 0;
    while ((limit == 0 || count < limit) && step()) ++count;
    return count;
  }

  /// Run every event at or before `until`, then advance now() to it.
  std::uint64_t run_until(SimTime until) {
    std::uint64_t count = 0;
    while (!events_.empty()) {
      const std::size_t i = earliest();
      if (events_[i].time > until) break;
      execute(i);
      ++count;
    }
    if (now_ < until) now_ = until;
    return count;
  }

  bool empty() const { return events_.empty(); }
  std::size_t pending() const { return events_.size(); }
  std::uint64_t executed() const { return executed_; }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    Callback cb;
  };

  /// Index of the earliest pending event. Pre: !events_.empty().
  std::size_t earliest() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < events_.size(); ++i) {
      const Event& e = events_[i];
      const Event& b = events_[best];
      if (e.time < b.time || (e.time == b.time && e.seq < b.seq)) best = i;
    }
    return best;
  }

  /// Order lives in (time, seq), not in vector position, so removal can
  /// swap with the back.
  Event remove(std::size_t i) {
    Event e = std::move(events_[i]);
    if (i + 1 != events_.size()) events_[i] = std::move(events_.back());
    events_.pop_back();
    return e;
  }

  void execute(std::size_t i) {
    Event e = remove(i);  // out of the vector before the callback grows it
    now_ = e.time;
    ++executed_;
    e.cb();
  }

  SimTime now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Event> events_;
};

}  // namespace raidsim
