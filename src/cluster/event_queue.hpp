// Deterministic discrete-event engine. Events fire in ascending (time, seq)
// order: equal timestamps fire in scheduling order (sequence-number
// tie-break), so simulated experiments are bit-reproducible regardless of
// host scheduling.
//
// The pending set is a binary heap of (time, seq, callback) entries. The step
// pipeline schedules one event per staged buffer, about 1.4 per step, so the
// engine is kept plain rather than fast (DESIGN.md §3.6).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace xl::cluster {

using SimTime = double;  ///< simulated seconds.

/// Engine counters (perfbench reports `fired` as cluster.des_fired).
struct EventQueueStats {
  std::uint64_t scheduled = 0;  ///< events accepted.
  std::uint64_t fired = 0;      ///< events executed.
};

class EventQueue {
 public:
  /// Schedule `fn` at absolute simulated time `t` (must be >= now()).
  void schedule_at(SimTime t, std::function<void()> fn) {
    XL_REQUIRE(t >= now_, "cannot schedule in the past");
    heap_.push_back(Event{t, seq_++, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), later);
    ++stats_.scheduled;
  }

  /// Schedule `fn` `delay` seconds from now.
  void schedule_in(SimTime delay, std::function<void()> fn) {
    XL_REQUIRE(delay >= 0.0, "negative delay");
    schedule_at(now_ + delay, std::move(fn));
  }

  SimTime now() const noexcept { return now_; }
  bool empty() const noexcept { return heap_.empty(); }
  std::size_t pending() const noexcept { return heap_.size(); }
  const EventQueueStats& stats() const noexcept { return stats_; }

  /// Pop and run the earliest event; returns false when the queue is empty.
  /// The event leaves the queue before it runs, so one that throws is
  /// consumed all the same, and it may schedule further events.
  bool run_one() {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), later);
    Event ev = std::move(heap_.back());
    heap_.pop_back();
    now_ = ev.time;
    ++stats_.fired;
    ev.fn();
    return true;
  }

  /// Drain the queue (events may schedule further events).
  void run_until_empty() {
    while (run_one()) {
    }
  }

  /// Run events with time <= t_end, then advance the clock to t_end (the
  /// clock advances even when no event fired — an empty queue still observes
  /// the passage of simulated time — and never moves backwards).
  void run_until(SimTime t_end) {
    while (!heap_.empty() && heap_.front().time <= t_end) run_one();
    if (t_end > now_) now_ = t_end;
  }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    std::function<void()> fn;
  };

  /// Heap order: the earliest (time, seq) sits at the front.
  static bool later(const Event& a, const Event& b) noexcept {
    return a.time != b.time ? a.time > b.time : a.seq > b.seq;
  }

  std::vector<Event> heap_;
  SimTime now_ = 0.0;
  std::uint64_t seq_ = 0;
  EventQueueStats stats_;
};

}  // namespace xl::cluster
