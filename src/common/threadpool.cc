#include "common/threadpool.h"

namespace anton {

namespace {

// The pools whose chunks this thread is running, innermost first.
struct Running {
  const ThreadPool* pool;
  const Running* outer;
};
thread_local const Running* tl_running = nullptr;

// Marks the calling thread as running a chunk of `pool` for its lifetime.
class RunningChunk {
 public:
  explicit RunningChunk(const ThreadPool* pool) : self_{pool, tl_running} {
    tl_running = &self_;
  }
  ~RunningChunk() { tl_running = self_.outer; }
  RunningChunk(const RunningChunk&) = delete;
  RunningChunk& operator=(const RunningChunk&) = delete;

 private:
  Running self_;
};

}  // namespace

bool ThreadPool::in_dispatch() { return tl_running != nullptr; }

ThreadPool::ThreadPool(unsigned n_threads) {
  if (n_threads == 0) {
    n_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // The calling thread participates in every dispatch as index 0, so spawn
  // one fewer worker; worker i services index i + 1.
  workers_.reserve(n_threads - 1);
  for (unsigned i = 1; i < n_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(unsigned index) {
  uint64_t seen = 0;
  for (;;) {
    void (*fn)(void*, unsigned);
    void* ctx;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      fn = fn_;
      ctx = ctx_;
    }
    {
      const RunningChunk running(this);
      fn(ctx, index);
    }
    // acq_rel: the release half publishes everything this chunk wrote to the
    // dispatcher's acquire load; the acquire half orders this thread against
    // the other workers' decrements.  The final decrementer must take mu_
    // before notifying: the dispatcher only blocks while holding mu_, so the
    // lock ensures it is either not yet waiting (and will re-test the
    // predicate) or parked (and receives the notify) — no lost wakeup.
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::dispatch(void (*fn)(void*, unsigned), void* ctx) {
  for (const Running* r = tl_running; r != nullptr; r = r->outer) {
    ANTON_CHECK_MSG(r->pool != this,
                    "nested dispatch: this thread is running a chunk of the "
                    "same ThreadPool, which would wait on itself");
  }
  if (workers_.empty()) {
    const RunningChunk running(this);
    fn(ctx, 0);
    return;
  }
  std::lock_guard<std::mutex> serialize(dispatch_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = fn;
    ctx_ = ctx;
    remaining_.store(static_cast<unsigned>(workers_.size()),
                     std::memory_order_relaxed);
    ++generation_;
  }
  cv_.notify_all();
  {
    const RunningChunk running(this);
    fn(ctx, 0);
  }
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] {
    return remaining_.load(std::memory_order_acquire) == 0;
  });
}

}  // namespace anton
