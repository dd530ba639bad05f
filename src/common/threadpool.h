// Minimal blocking thread pool with a parallel_for helper.
//
// The functional MD engine (the commodity baseline) and the machine model's
// pair pass (core::Workload::build) use this to exploit host cores; the
// machine model's event-driven replay is single-threaded and deterministic.
// Static chunking keeps the force decomposition reproducible for a fixed
// thread count.
//
// Dispatch is allocation-free: work is handed to the workers as a plain
// (function pointer, context pointer) pair — no std::function, no per-call
// task vector — so steady-state force evaluation performs zero heap
// allocation (see DESIGN.md, "Commodity-baseline performance model").
//
// Memory model (audited under TSan; see tests/test_threadpool.cc):
//   - The (fn_, ctx_, generation_) trampoline is published under mu_ and
//     read by workers under mu_, so workers always observe a coherent
//     (generation, fn, ctx) triple.
//   - Completion is counted by the atomic remaining_: workers decrement with
//     acq_rel after running their chunk, which makes every write performed
//     inside the chunk happen-before the dispatcher's acquire load that
//     observes remaining_ == 0.  The final decrementer takes mu_ before
//     notifying so the wakeup cannot be lost.
//   - Concurrent dispatchers are serialized by dispatch_mu_: parallel_for
//     may be called from multiple threads.  A thread running a chunk of a
//     pool (a worker, or the caller as index 0) that dispatches on that same
//     pool again would wait on itself, so that dispatch raises anton::Error
//     instead (see in_dispatch()).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/error.h"

namespace anton {

class ThreadPool {
 public:
  // n_threads == 0 means hardware_concurrency().
  explicit ThreadPool(unsigned n_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size() + 1); }

  // True while the calling thread runs a chunk that some pool dispatched,
  // on a worker or on the caller as index 0 (a parallel_for that runs as
  // one inline chunk is not a dispatch).  Code that could start its own
  // pool checks this to stay serial when a pool already occupies the
  // cores.
  static bool in_dispatch();

  // Runs fn(begin, end) over [0, n) split into contiguous chunks, one per
  // thread (including the calling thread). Blocks until all chunks finish.
  template <class F>
  void parallel_for(size_t n, F&& fn) {
    ANTON_HOT_NOALLOC();
    if (n == 0) return;
    const size_t threads = std::min<size_t>(size(), n);
    if (threads <= 1) {
      fn(size_t{0}, n);
      return;
    }
    const size_t chunk = (n + threads - 1) / threads;
    for_each_thread([&fn, n, chunk](unsigned t) {
      const size_t begin = std::min(n, static_cast<size_t>(t) * chunk);
      const size_t end = std::min(n, begin + chunk);
      if (begin < end) fn(begin, end);
    });
  }

  // Runs fn(thread_index) on every thread (the caller runs index 0); useful
  // for thread-local reduction buffers.
  template <class F>
  void for_each_thread(F&& fn) {
    ANTON_HOT_NOALLOC();
    using Fn = std::remove_reference_t<F>;
    dispatch([](void* ctx, unsigned t) { (*static_cast<Fn*>(ctx))(t); },
             const_cast<void*>(
                 static_cast<const void*>(std::addressof(fn))));
  }

 private:
  // Runs fn(ctx, t) on every thread index t in [0, size()); the calling
  // thread executes t == 0.  Safe to call concurrently from multiple
  // threads (calls serialize).  Raises anton::Error, before dispatching
  // anything, when the calling thread is already running a chunk of this
  // pool.  A chunk must not let an exception escape: catch it inside the
  // chunk and hand it to the caller, as SweepRunner::map does.
  void dispatch(void (*fn)(void*, unsigned), void* ctx);
  void worker_loop(unsigned index);

  std::vector<std::thread> workers_;
  std::mutex dispatch_mu_;  // serializes concurrent dispatchers
  std::mutex mu_;           // guards the trampoline + wakeup/done cvs
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  void (*fn_)(void*, unsigned) = nullptr;
  void* ctx_ = nullptr;
  uint64_t generation_ = 0;
  std::atomic<unsigned> remaining_{0};
  bool stop_ = false;
};

}  // namespace anton
