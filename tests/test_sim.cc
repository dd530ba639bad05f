#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.h"

namespace anton::sim {
namespace {

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30.0, [&] { order.push_back(3); });
  q.schedule_at(10.0, [&] { order.push_back(1); });
  q.schedule_at(20.0, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 30.0);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  EventQueue q;
  int fired = 0;
  std::function<void(int)> chain = [&](int depth) {
    ++fired;
    if (depth < 5) {
      q.schedule_after(1.0, [&chain, depth] { chain(depth + 1); });
    }
  };
  q.schedule_at(0.0, [&chain] { chain(0); });
  q.run();
  EXPECT_EQ(fired, 6);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime) {
  EventQueue q;
  double t_inner = -1;
  q.schedule_at(10.0, [&] {
    q.schedule_after(2.5, [&] { t_inner = q.now(); });
  });
  q.run();
  EXPECT_DOUBLE_EQ(t_inner, 12.5);
}

TEST(EventQueue, RejectsPastEvents) {
  EventQueue q;
  q.schedule_at(10.0, [&] {
    EXPECT_THROW(q.schedule_at(5.0, [] {}), Error);
  });
  q.run();
}

TEST(EventQueue, CountsExecuted) {
  EventQueue q;
  for (int i = 0; i < 7; ++i) q.schedule_at(i, [] {});
  q.run();
  EXPECT_EQ(q.executed(), 7u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ResetClearsClock) {
  EventQueue q;
  q.schedule_at(100.0, [] {});
  q.run();
  q.reset();
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
  EXPECT_EQ(q.executed(), 0u);
}

TEST(EventQueue, ResetWithPendingThrows) {
  EventQueue q;
  q.schedule_at(1.0, [] {});
  EXPECT_THROW(q.reset(), Error);
  q.run();
}

TEST(EventQueue, StepExecutesExactlyOne) {
  EventQueue q;
  int count = 0;
  q.schedule_at(1.0, [&] { ++count; });
  q.schedule_at(2.0, [&] { ++count; });
  q.step();
  EXPECT_EQ(count, 1);
  EXPECT_DOUBLE_EQ(q.now(), 1.0);
  q.run();
  EXPECT_EQ(count, 2);
}

TEST(EventQueue, CallablesAreNeverCopied) {
  // The old priority_queue kernel copied the top event (and its closure)
  // out of the heap on every step; the pooled arena moves callables and
  // sifts POD entries, so a scheduled callable must never be copied.
  struct Probe {
    int* copies;
    int* runs;
    Probe(int* c, int* r) : copies(c), runs(r) {}
    Probe(const Probe& o) : copies(o.copies), runs(o.runs) { ++*copies; }
    Probe(Probe&& o) noexcept = default;
    void operator()() const { ++*runs; }
  };
  EventQueue q;
  int copies = 0, runs = 0;
  q.schedule_at(2.0, Probe(&copies, &runs));
  q.schedule_at(1.0, Probe(&copies, &runs));
  q.schedule_at(1.5, Probe(&copies, &runs));
  q.run();
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(copies, 0);
}

TEST(EventQueue, HoldsMoveOnlyCallables) {
  // std::function required copyable callables; the inline representation
  // only needs a nothrow move.
  EventQueue q;
  int got = 0;
  auto payload = std::make_unique<int>(41);
  q.schedule_at(1.0, [&got, p = std::move(payload)] { got = *p + 1; });
  q.run();
  EXPECT_EQ(got, 42);
}

TEST(EventQueue, FifoAmongEqualTimestampsUnderStress) {
  // Interleaved out-of-order batches exercise the 4-ary sift paths; within
  // each timestamp, insertion order must survive every heap shape.
  EventQueue q;
  std::vector<int> fired;
  std::map<double, std::vector<int>> per_time;
  int id = 0;
  const double times[] = {50, 10, 30, 20, 10, 50, 30, 10, 20, 40};
  for (int rep = 0; rep < 8; ++rep) {
    for (const double t : times) {
      per_time[t].push_back(id);
      q.schedule_at(t, [&fired, id] { fired.push_back(id); });
      ++id;
    }
  }
  q.run();
  std::vector<int> want;
  for (const auto& [t, ids] : per_time) {
    want.insert(want.end(), ids.begin(), ids.end());
  }
  EXPECT_EQ(fired, want);
}

TEST(EventQueue, ArenaSlotsRecycleAcrossBursts) {
  EventQueue q;
  auto burst = [&] {
    for (int i = 0; i < 64; ++i) {
      q.schedule_after(1.0 + 0.1 * i, [] {});
    }
    q.run();
  };
  burst();
  const size_t warm = q.arena_slots();
  EXPECT_LE(warm, 64u);
  for (int r = 0; r < 5; ++r) burst();
  // A warmed pool satisfies identical bursts without growing.
  EXPECT_EQ(q.arena_slots(), warm);
  EXPECT_EQ(q.arena_free(), q.arena_slots());
  q.check_arena();
}

TEST(EventQueue, NestedSchedulingReusesFreedSlot) {
  // step() frees the slot before invoking, so a chain of self-scheduling
  // events runs in exactly one arena slot.
  EventQueue q;
  int fired = 0;
  std::function<void(int)> chain = [&](int depth) {
    ++fired;
    if (depth < 100) {
      q.schedule_after(1.0, [&chain, depth] { chain(depth + 1); });
    }
  };
  q.schedule_at(0.0, [&chain] { chain(0); });
  q.run();
  EXPECT_EQ(fired, 101);
  EXPECT_EQ(q.arena_slots(), 1u);
  q.check_arena();
}

TEST(EventQueue, StreamsPopLikeOneHeap) {
  // The same schedule played twice: once with every event on the heap, once
  // with each stream's events (nondecreasing in time per stream, with ties)
  // on streams.  Every event keeps its sequence number, so both queues fire
  // the events in the same order — including across equal timestamps.
  auto play = [](bool use_streams) {
    EventQueue q;
    const int first = q.add_streams(3);
    std::vector<int> fired;
    double stream_time[3] = {0, 0, 0};
    int id = 0;
    uint32_t h = 12345;
    auto next = [&h] {
      h = h * 1664525u + 1013904223u;
      return h >> 8;
    };
    // Events fired at t schedule a few more at t + small offsets.
    std::function<void(int)> spawn = [&](int depth) {
      for (int k = 0; k < 3; ++k) {
        const int me = id++;
        const uint32_t r = next();
        const int s = static_cast<int>(r % 4) - 1;  // -1: plain event
        auto fn = [&fired, &spawn, me, depth] {
          fired.push_back(me);
          if (depth < 5) spawn(depth + 1);
        };
        if (s < 0) {
          q.schedule_at(q.now() + static_cast<double>(r % 3), fn);
        } else {
          // Streams advance in steps of 0 or 1: plenty of equal times.
          double& st = stream_time[s];
          st = std::max(st, q.now()) + static_cast<double>((r >> 4) % 2);
          if (use_streams) {
            q.schedule_on(first + s, st, fn);
          } else {
            q.schedule_at(st, fn);
          }
        }
      }
    };
    q.schedule_at(0.0, [&spawn] { spawn(0); });
    q.run();
    q.check_arena();
    EXPECT_EQ(q.pending(), 0u);
    return fired;
  };
  const std::vector<int> heap_only = play(false);
  const std::vector<int> streamed = play(true);
  EXPECT_GT(heap_only.size(), 300u);
  EXPECT_EQ(heap_only, streamed);
}

TEST(EventQueue, StreamCountsPendingAndRejectsDisorder) {
  EventQueue q;
  const int s = q.add_streams(1);
  int fired = 0;
  q.schedule_on(s, 2.0, [&fired] { ++fired; });
  q.schedule_on(s, 3.0, [&fired] { ++fired; });
  q.schedule_on(s, 3.0, [&fired] { ++fired; });
  EXPECT_EQ(q.pending(), 3u);  // one in the heap, two waiting
  q.check_arena();
  EXPECT_THROW(q.schedule_on(s, 2.5, [] {}), Error);
  q.run();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(q.pending(), 0u);
  q.check_arena();
}

}  // namespace
}  // namespace anton::sim
