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
//
// Ordered streams keep the heap small.  A component whose events come in
// time order by construction — the deliveries over one torus link clear
// the link in the order they reserved it — schedules them on a stream: the
// heap holds only each stream's earliest event, the rest wait in the
// stream's FIFO and enter the heap when their predecessor pops.  Every
// event keeps the sequence number it took when scheduled, so the pop order
// is exactly the one a heap holding every event would produce.
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
  obs::Histo* depth = nullptr;         // pending() sampled at each step()
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
    const uint32_t slot = store(t, std::forward<F>(fn));
    push_entry(t, seq_++, slot, -1);
  }

  // Adds n ordered streams; returns the first one's id.
  int add_streams(int n) {
    ANTON_CHECK(n >= 0);
    const int first = static_cast<int>(stream_tail_.size());
    stream_tail_.resize(stream_tail_.size() + static_cast<size_t>(n), -1);
    return first;
  }

  // Schedules fn at t on `stream`; t must be no earlier than the stream's
  // latest pending event.  Pops exactly where schedule_at(t, fn) would.
  template <class F>
  void schedule_on(int stream, SimTime t, F&& fn) {
    ANTON_HOT_NOALLOC();
    int32_t& tail = stream_tail_[static_cast<size_t>(stream)];
    ANTON_CHECK_MSG(tail < 0 || t >= waiting_[static_cast<size_t>(tail)].time,
                    "stream " << stream << " out of order: t=" << t
                              << " after "
                              << waiting_[static_cast<size_t>(tail)].time);
    const uint32_t slot = store(t, std::forward<F>(fn));
    const uint64_t seq = seq_++;
    waiting_[slot] = {t, seq, -1};
    if (tail < 0) {  // the stream is idle: this event is its head
      tail = static_cast<int32_t>(slot);
      push_entry(t, seq, slot, stream);
      return;
    }
    waiting_[static_cast<size_t>(tail)].next = static_cast<int32_t>(slot);
    tail = static_cast<int32_t>(slot);
    ++waiting_count_;
  }

  template <class F>
  void schedule_after(SimTime delay, F&& fn) {
    ANTON_HOT_NOALLOC();
    ANTON_CHECK(delay >= 0);
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  SimTime now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  // Events scheduled and not yet executed (in the heap or a stream).
  size_t pending() const { return heap_.size() + waiting_count_; }
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
    // Among equal timestamps, sequence numbers rise (FIFO); a stream that
    // released an event late would break it.
    ANTON_CHECK_INVARIANT(top.time != last_time_ || top.seq > last_seq_,
                          "event popped out of (time, seq) order: t="
                              << top.time << " seq=" << top.seq
                              << " after seq=" << last_seq_);
    last_time_ = top.time;
    last_seq_ = top.seq;
    if (top.stream >= 0) advance(top.stream, top.slot);
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
    last_time_ = -1;
  }

  // Pool accounting: every arena slot is either on the free list or holds
  // exactly one pending event.  A mismatch means a slot leaked (scheduled
  // but never freed) or was double-freed.
  size_t arena_slots() const { return arena_.size(); }
  size_t arena_free() const { return free_.size(); }
  void check_arena() const {
    ANTON_CHECK_MSG(arena_.size() == free_.size() + pending(),
                    "event arena leak: " << arena_.size() << " slots, "
                                         << free_.size() << " free, "
                                         << pending() << " pending");
  }

 private:
  struct Entry {
    SimTime time;
    uint64_t seq;
    uint32_t slot;
    int32_t stream;  // -1: not on a stream
  };
  static_assert(std::is_trivially_copyable_v<Entry>);

  // A stream event waiting behind its predecessor, by arena slot.
  struct Waiting {
    SimTime time;
    uint64_t seq;
    int32_t next;  // next waiting slot of the stream, or -1
  };

  // Places fn in a free arena slot (growing the arena and its parallel
  // waiting table during warm-up).
  template <class F>
  uint32_t store(SimTime t, F&& fn) {
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
      waiting_.emplace_back();  // anton-lint: allow(hot-alloc) amortized warmup
    }
    arena_[slot].emplace(std::forward<F>(fn));
    return slot;
  }

  void push_entry(SimTime t, uint64_t seq, uint32_t slot, int stream) {
    ANTON_HOT_NOALLOC();
    heap_.push_back(  // anton-lint: allow(hot-alloc) amortized warmup
        Entry{t, seq, slot, stream});
    sift_up(heap_.size() - 1);
  }

  // The stream's head (`slot`) popped: its next waiting event enters the
  // heap under the time and sequence number it was scheduled with.
  void advance(int stream, uint32_t slot) {
    ANTON_HOT_NOALLOC();
    const int32_t next = waiting_[slot].next;
    if (next < 0) {
      stream_tail_[static_cast<size_t>(stream)] = -1;
      return;
    }
    const Waiting& w = waiting_[static_cast<size_t>(next)];
    --waiting_count_;
    push_entry(w.time, w.seq, static_cast<uint32_t>(next), stream);
  }

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
      telemetry_.depth->add(double(pending()));
    if (telemetry_.trace != nullptr &&
        executed_ % std::max<uint32_t>(1, telemetry_.trace_stride) == 0) {
      telemetry_.trace->counter("queue.pending", now_ * 1e-3,
                                telemetry_.trace_pid, "events",
                                double(pending()));
    }
  }

  std::vector<Entry> heap_;       // 4-ary min-heap over (time, seq)
  std::vector<Callback> arena_;   // pooled callables, indexed by Entry::slot
  std::vector<uint32_t> free_;    // recycled arena slots (LIFO)
  std::vector<Waiting> waiting_;  // per arena slot, for stream events
  std::vector<int32_t> stream_tail_;  // last pending slot per stream, or -1
  size_t waiting_count_ = 0;      // stream events not yet in the heap
  SimTime now_ = 0;
  uint64_t seq_ = 0;
  SimTime last_time_ = -1;  // (time, seq) of the last popped event
  uint64_t last_seq_ = 0;
  uint64_t executed_ = 0;
  QueueTelemetry telemetry_;
};

}  // namespace anton::sim
