// The seed binary-heap event queue, preserved as a reference oracle.
//
// This is the pre-calendar-queue sim::EventQueue implementation:
// a std::priority_queue of (time, id) over a std::unordered_map of
// callbacks, with FIFO ties guaranteed by the monotonically increasing
// id.  It is kept for two purposes only:
//
//   * differential testing — the calendar queue's firing order must match
//     this oracle op-for-op (tests/sim/test_event_queue.cpp), and the
//     golden-determinism battery re-runs whole platform workloads on it
//     via EventQueue::set_default_engine() to prove metric fingerprints
//     are bit-identical before/after the scheduler swap;
//   * the bench_core_throughput baseline — the ≥3× events/sec acceptance
//     bar is measured against this implementation.
//
// Known (intentional) wart, inherited from the seed: cancel() erases the
// callback eagerly but leaves a tombstone in the heap until the cursor
// passes it, so a churn workload that schedules and cancels far-future
// events grows the heap monotonically.  The calendar queue unlinks on
// cancel; the regression test pinning that fix measures this oracle's
// growth as the "before" curve.  Do not use in production code.
#pragma once

#include <cassert>
#include <cstdint>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/inline_callback.hpp"
#include "sim/time.hpp"

namespace rattrap::sim {

class ReferenceHeapQueue {
 public:
  using Callback = InlineCallback;

  std::uint64_t schedule(SimTime when, Callback cb) {
    const std::uint64_t id = next_id_++;
    heap_.push(Entry{when, id});
    callbacks_.emplace(id, std::move(cb));
    ++live_;
    return id;
  }

  bool cancel(std::uint64_t id) {
    auto it = callbacks_.find(id);
    if (it == callbacks_.end()) return false;
    callbacks_.erase(it);
    --live_;
    return true;
  }

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }

  [[nodiscard]] SimTime next_time() {
    skip_dead();
    return heap_.empty() ? kTimeInfinity : heap_.top().time;
  }

  struct Fired {
    SimTime time;
    std::uint64_t id;
    Callback callback;
  };

  Fired pop() {
    skip_dead();
    assert(!heap_.empty() && "pop() on empty event queue");
    const Entry top = heap_.top();
    heap_.pop();
    auto it = callbacks_.find(top.id);
    assert(it != callbacks_.end());
    Fired fired{top.time, top.id, std::move(it->second)};
    callbacks_.erase(it);
    --live_;
    return fired;
  }

  void clear() {
    heap_ = {};
    callbacks_.clear();
    live_ = 0;
  }

  /// Heap entries including tombstones — what the churn regression test
  /// charts as the seed implementation's monotonic growth.
  [[nodiscard]] std::size_t heap_entries() const { return heap_.size(); }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t id;
    bool operator>(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return id > other.id;
    }
  };

  void skip_dead() {
    while (!heap_.empty() && !callbacks_.contains(heap_.top().id)) {
      heap_.pop();
    }
  }

  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::unordered_map<std::uint64_t, Callback> callbacks_;
  std::uint64_t next_id_ = 1;
  std::size_t live_ = 0;
};

}  // namespace rattrap::sim
