// Deterministic parallel sweep harness.
//
// Machine-model studies (the F1–F5 figures, T2/T3 tables, A1/A2 ablations,
// the example campaigns) are embarrassingly parallel: every sweep point
// builds its own workload, task graph, event queue, torus and metrics
// scope, sharing nothing but read-only inputs.  SweepRunner shards points
// across the existing ThreadPool with a dynamic ticket counter (points have
// wildly different costs — a 512-node estimate dwarfs an 8-node one, so
// static chunking would idle most threads) and writes each result into its
// fixed index slot.  On the pool each point runs on one thread
// (Workload::build sees ThreadPool::in_dispatch() and stays serial, so the
// sweep does not oversubscribe the cores), and every point is
// self-contained, so out[i] depends only on i: the merged output is
// bitwise identical to a serial run at any thread count.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/threadpool.h"
#include "core/machine.h"

namespace anton::core {

// One machine-model point of an estimate sweep.
struct EstimatePoint {
  arch::MachineConfig config;
  double dt_fs = 2.5;
  int respa_k = 2;
};

class SweepRunner {
 public:
  // pool == nullptr (or a 1-thread pool) evaluates serially on the caller.
  // The pool is borrowed, not owned, and must outlive the runner.
  explicit SweepRunner(ThreadPool* pool = nullptr) : pool_(pool) {}

  // Evaluates out[i] = eval(i) for every i in [0, n).  eval must be safe to
  // call concurrently for distinct i; a dispatch on the pool itself from
  // inside eval raises anton::Error like any other failing point.
  // Scheduling is dynamic (atomic ticket), but results land in index order,
  // so output is independent of the schedule.  The first exception any
  // point throws is rethrown on the caller after the sweep drains;
  // remaining points still run.
  template <class R, class Fn>
  void map(size_t n, std::vector<R>& out, Fn&& eval) const {
    out.resize(n);
    if (pool_ == nullptr || pool_->size() <= 1 || n <= 1) {
      for (size_t i = 0; i < n; ++i) out[i] = eval(i);
      return;
    }
    std::atomic<size_t> next{0};
    std::mutex err_mu;
    std::exception_ptr err;
    R* slots = out.data();
    pool_->for_each_thread([&](unsigned) {
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        try {
          slots[i] = eval(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(err_mu);
          if (!err) err = std::current_exception();
        }
      }
    });
    if (err) std::rethrow_exception(err);
  }

  // AntonMachine::estimate() over a set of machine points on one system;
  // results in point order.  Each replica runs on its own event queue,
  // torus and metrics scope (estimate() constructs all three per call).
  std::vector<PerfReport> estimate(const System& system,
                                   std::span<const EstimatePoint> points) const;

  ThreadPool* pool() const { return pool_; }

 private:
  ThreadPool* pool_;
};

}  // namespace anton::core
