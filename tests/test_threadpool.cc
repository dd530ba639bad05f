// ThreadPool lifecycle and memory-model tests.
//
// These are primarily sanitizer targets: under ANTON_SANITIZE=thread they
// certify that the (fn, ctx, generation) trampoline publication, the atomic
// remaining_ completion count, and the construction/destruction handshake
// are race-free.  They also pin the functional contract: full coverage of
// [0, n), every thread index fired exactly once, and serialized concurrent
// dispatchers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/threadpool.h"
#include "core/sweep.h"

namespace anton {
namespace {

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ForEachThreadFiresEveryIndexOnce) {
  ThreadPool pool(5);
  ASSERT_EQ(pool.size(), 5u);
  std::vector<std::atomic<int>> hits(pool.size());
  pool.for_each_thread([&](unsigned t) { hits[t].fetch_add(1); });
  for (unsigned t = 0; t < pool.size(); ++t) {
    EXPECT_EQ(hits[t].load(), 1) << "thread " << t;
  }
}

// Chunk writes made inside parallel_for must be visible to the caller after
// it returns (the acq_rel decrement / acquire wait pair provides the
// happens-before edge).  TSan verifies the ordering claim.
TEST(ThreadPool, ChunkWritesVisibleAfterReturn) {
  ThreadPool pool(4);
  std::vector<uint64_t> data(4096, 0);
  for (int round = 1; round <= 8; ++round) {
    pool.parallel_for(data.size(), [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) data[i] += static_cast<uint64_t>(round);
    });
    const uint64_t expect =
        static_cast<uint64_t>(round) * (round + 1) / 2 * data.size();
    const uint64_t sum = std::accumulate(data.begin(), data.end(),
                                         uint64_t{0});
    ASSERT_EQ(sum, expect) << "round " << round;
  }
}

// Construction → immediate heavy use → destruction, repeatedly: shakes out
// wakeup races between worker startup, dispatch, and the stop flag.
TEST(ThreadPool, RapidConstructUseDestroy) {
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(3);
    std::atomic<int64_t> sum{0};
    pool.parallel_for(100, [&](size_t b, size_t e) {
      int64_t local = 0;
      for (size_t i = b; i < e; ++i) local += static_cast<int64_t>(i);
      sum.fetch_add(local);
    });
    EXPECT_EQ(sum.load(), 99 * 100 / 2);
  }
}

// Destroying a pool that never dispatched must not hang or race.
TEST(ThreadPool, DestroyWithoutDispatch) {
  for (int round = 0; round < 10; ++round) {
    ThreadPool pool(4);
  }
}

// parallel_for is callable concurrently from several caller threads over the
// pool's whole lifetime: calls serialize on the dispatcher mutex.  Each
// caller's own chunk sums must still come back correct and complete.
TEST(ThreadPool, ConcurrentParallelForFromManyCallers) {
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr int kRounds = 25;
  constexpr size_t kN = 512;
  std::vector<std::thread> callers;
  std::vector<int64_t> results(kCallers, 0);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &results, c] {
      int64_t acc = 0;
      for (int r = 0; r < kRounds; ++r) {
        std::atomic<int64_t> sum{0};
        pool.parallel_for(kN, [&](size_t b, size_t e) {
          int64_t local = 0;
          for (size_t i = b; i < e; ++i) local += static_cast<int64_t>(i);
          sum.fetch_add(local);
        });
        acc += sum.load();
      }
      results[static_cast<size_t>(c)] = acc;
    });
  }
  for (auto& t : callers) t.join();
  const int64_t per_round = static_cast<int64_t>(kN) * (kN - 1) / 2;
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(results[static_cast<size_t>(c)], per_round * kRounds)
        << "caller " << c;
  }
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<int> hits(64, 0);
  pool.parallel_for(hits.size(), [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) hits[i]++;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool(4);
  bool ran = false;
  pool.parallel_for(0, [&](size_t, size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

// A chunk that dispatches on its own pool would wait on itself (on the
// caller, a second lock of the dispatch mutex; on a worker, the caller
// waiting for the worker).  It raises anton::Error instead, on the caller
// (index 0) and on the workers alike, and in a SweepRunner::map eval, which
// hands the error to the sweep's caller.  The ctest TIMEOUT turns a
// deadlock into a failure.
TEST(ThreadPool, NestedDispatchThrows) {
  ThreadPool pool(4);
  EXPECT_FALSE(ThreadPool::in_dispatch());
  std::atomic<int> inside{0};
  std::atomic<int> rejected{0};
  pool.for_each_thread([&](unsigned) {
    if (ThreadPool::in_dispatch()) inside.fetch_add(1);
    try {
      pool.parallel_for(8, [](size_t, size_t) {});
    } catch (const Error&) {
      rejected.fetch_add(1);
    }
  });
  EXPECT_EQ(inside.load(), 4);
  EXPECT_EQ(rejected.load(), 4);
  EXPECT_FALSE(ThreadPool::in_dispatch());

  const core::SweepRunner runner(&pool);
  std::vector<int> out;
  EXPECT_THROW(runner.map(16, out,
                          [&](size_t i) {
                            pool.for_each_thread([](unsigned) {});
                            return static_cast<int>(i);
                          }),
               Error);

  // The pool still works, and another pool may run inside its chunks.
  ThreadPool inner(2);
  std::atomic<int64_t> sum{0};
  pool.for_each_thread([&](unsigned) {
    inner.parallel_for(10, [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) sum.fetch_add(static_cast<int64_t>(i));
    });
  });
  EXPECT_EQ(sum.load(), 4 * 45);
}

}  // namespace
}  // namespace anton
