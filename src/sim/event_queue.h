// Discrete-event simulation kernel.
//
// Single-threaded, deterministic: events at equal timestamps fire in
// insertion order.  Time is simulated nanoseconds (double) so components in
// different clock domains (PPIM arrays, geometry cores, router pipelines)
// compose without a global clock.
//
// Storage is allocation-free in steady state.  Callables live inline in a
// pooled arena of InlineFn slots recycled through a free list; the heap
// orders trivially-copyable 24-byte {time, seq, slot} entries on a 4-ary
// min-heap (half the depth of a binary heap, and sifts move POD entries,
// never closures).  step() *moves* the callable out of its slot — the
// closure copy of the old priority_queue::top() is structurally impossible.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.h"
#include "obs/flightrecorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/inline_fn.h"

namespace anton::sim {

using SimTime = double;  // nanoseconds

// Optional telemetry sinks for an EventQueue.  All pointers may be null
// individually; the queue holds no sinks by default and pays only a null
// check per event when untelemetered.
struct QueueTelemetry {
  obs::Counter* executed = nullptr;    // events executed
  obs::Histo* depth = nullptr;         // heap size sampled at each step()
  obs::Histo* horizon_ns = nullptr;    // schedule distance t - now per event
  obs::TraceWriter* trace = nullptr;   // "queue.pending" counter track
  int trace_pid = obs::kPidQueue;
  uint32_t trace_stride = 16;          // sample every Nth step to bound size
};

class EventQueue {
 public:
  using Callback = InlineFn<kEventInlineBytes>;

  // Schedules fn at absolute time t (>= now).  The callable is stored
  // inline in a pooled arena slot; captures larger than kEventInlineBytes
  // fail to compile.
  template <class F>
  void schedule_at(SimTime t, F&& fn) {
    ANTON_HOT_NOALLOC();
    ANTON_CHECK_MSG(t >= now_ - 1e-9, "event scheduled in the past: t="
                                          << t << " now=" << now_);
    if (telemetry_.horizon_ns != nullptr)
      telemetry_.horizon_ns->add(std::max(0.0, t - now_));
    uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<uint32_t>(arena_.size());
      arena_.emplace_back();  // anton-lint: allow(hot-alloc) amortized warmup
    }
    arena_[slot].emplace(std::forward<F>(fn));
    heap_.push_back(  // anton-lint: allow(hot-alloc) amortized warmup
        Entry{t, seq_++, slot});
    sift_up(heap_.size() - 1);
  }

  template <class F>
  void schedule_after(SimTime delay, F&& fn) {
    ANTON_HOT_NOALLOC();
    ANTON_CHECK(delay >= 0);
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  SimTime now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  size_t pending() const { return heap_.size(); }
  uint64_t executed() const { return executed_; }

  // Runs events until the queue drains; returns the final time.
  SimTime run() {
    ANTON_HOT_NOALLOC();
    while (!heap_.empty()) step();
    return now_;
  }

  // Executes the single earliest event.
  void step() {
    ANTON_HOT_NOALLOC();
    ANTON_CHECK(!heap_.empty());
    const Entry top = heap_.front();
    pop_root();
    // Time monotonicity: schedule_at admits t >= now - 1e-9, so the popped
    // event may trail the clock by at most that slack; anything worse means
    // the heap ordering or the clock has been corrupted.
    ANTON_CHECK_INVARIANT(top.time >= now_ - 1e-9,
                          "event queue time ran backwards: event t="
                              << top.time << " now=" << now_);
    now_ = std::max(now_, top.time);
    ++executed_;
    // Flight record on the simulated clock: no wall-time read in this loop.
    obs::flight::record_sim(obs::flight::Kind::kDesEvent, "des.event",
                            top.time, top.seq);
    observe_step();
    // Move the callable out of its slot before invoking: the callback may
    // schedule new events, which can both reuse the freed slot and grow the
    // arena (invalidating references into it).
    Callback cb = std::move(arena_[top.slot]);
    free_.push_back(top.slot);  // anton-lint: allow(hot-alloc) amortized
    cb();
  }

  // Installs (or clears, with {}) telemetry sinks.  Sinks must outlive the
  // queue or be cleared before they are destroyed.
  void set_telemetry(const QueueTelemetry& t) { telemetry_ = t; }
  const QueueTelemetry& telemetry() const { return telemetry_; }

  // Resets the clock for a fresh simulation run.  Arena and heap capacity
  // are retained, so a warmed queue re-runs without allocating.
  void reset() {
    ANTON_CHECK_MSG(heap_.empty(), "reset with pending events");
    check_arena();
    now_ = 0;
    seq_ = 0;
    executed_ = 0;
  }

  // Pool accounting: every arena slot is either on the free list or
  // referenced by exactly one pending heap entry.  A mismatch means a slot
  // leaked (scheduled but never freed) or was double-freed.
  size_t arena_slots() const { return arena_.size(); }
  size_t arena_free() const { return free_.size(); }
  void check_arena() const {
    ANTON_CHECK_MSG(arena_.size() == free_.size() + heap_.size(),
                    "event arena leak: " << arena_.size() << " slots, "
                                         << free_.size() << " free, "
                                         << heap_.size() << " pending");
  }

 private:
  struct Entry {
    SimTime time;
    uint64_t seq;
    uint32_t slot;
  };
  static_assert(std::is_trivially_copyable_v<Entry>);

  static bool before(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;  // FIFO among equal timestamps
  }

  void sift_up(size_t i) {
    ANTON_HOT_NOALLOC();
    const Entry e = heap_[i];
    while (i > 0) {
      const size_t parent = (i - 1) / 4;
      if (!before(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  // Removes the root: the last entry sifts down into the hole.
  void pop_root() {
    ANTON_HOT_NOALLOC();
    const Entry last = heap_.back();
    heap_.pop_back();
    const size_t n = heap_.size();
    if (n == 0) return;
    size_t i = 0;
    for (;;) {
      const size_t first = 4 * i + 1;
      if (first >= n) break;
      size_t best = first;
      const size_t limit = std::min(first + 4, n);
      for (size_t c = first + 1; c < limit; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }

  void observe_step() {
    if (telemetry_.executed != nullptr) telemetry_.executed->add();
    if (telemetry_.depth != nullptr)
      telemetry_.depth->add(double(heap_.size()));
    if (telemetry_.trace != nullptr &&
        executed_ % std::max<uint32_t>(1, telemetry_.trace_stride) == 0) {
      telemetry_.trace->counter("queue.pending", now_ * 1e-3,
                                telemetry_.trace_pid, "events",
                                double(heap_.size()));
    }
  }

  std::vector<Entry> heap_;       // 4-ary min-heap over (time, seq)
  std::vector<Callback> arena_;   // pooled callables, indexed by Entry::slot
  std::vector<uint32_t> free_;    // recycled arena slots (LIFO)
  SimTime now_ = 0;
  uint64_t seq_ = 0;
  uint64_t executed_ = 0;
  QueueTelemetry telemetry_;
};

}  // namespace anton::sim
