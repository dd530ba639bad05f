// MetricsRegistry: the unified telemetry sink for the DES machine model,
// the NoC, and the functional MD engine.
//
// Metrics are named hierarchically with dot-separated components
// ("noc.link.occupancy", "md.phase.pair.seconds"); the JSON snapshot is a
// flat, sorted name → record map so downstream tooling can address any
// metric by its full name.  Four metric kinds:
//
//   Counter   monotonically increasing integer (lock-free, relaxed atomics)
//   Gauge     last-written double (lock-free)
//   Stat      RunningStat sink (mean/stddev/min/max/sum; mutex-protected)
//   Histo     fixed-bin Histogram sink (mutex-protected)
//
// All sinks are thread-safe so the threaded MD pipeline can feed them from
// worker threads.  Pointers returned by the registry are stable for the
// registry's lifetime, so hot paths look a metric up once and keep the
// pointer: the per-sample cost is an atomic add (Counter/Gauge) or one
// uncontended mutex (Stat/Histo).  Registration is idempotent — asking for
// an existing name of the same kind returns the same object; a kind
// mismatch throws.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"

namespace anton::obs {

class Counter {
 public:
  void add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// Thread-safe RunningStat sink.
class Stat {
 public:
  void add(double x) {
    std::lock_guard<std::mutex> lk(mu_);
    s_.add(x);
  }
  void merge(const RunningStat& o) {
    std::lock_guard<std::mutex> lk(mu_);
    s_.merge(o);
  }
  RunningStat snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    return s_;
  }

 private:
  mutable std::mutex mu_;
  RunningStat s_;
};

// Thread-safe Histogram sink.
class Histo {
 public:
  Histo(double lo, double hi, int bins) : h_(lo, hi, bins) {}
  void add(double x) {
    std::lock_guard<std::mutex> lk(mu_);
    h_.add(x);
  }
  Histogram snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    return h_;
  }

 private:
  mutable std::mutex mu_;
  Histogram h_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Stat* stat(std::string_view name);
  // Creates (or returns) a histogram; the [lo, hi)/bins shape is fixed by
  // the first registration and later registrations just return the sink.
  Histo* histogram(std::string_view name, double lo, double hi, int bins);

  bool empty() const;
  size_t size() const;
  std::vector<std::string> names() const;

  // Snapshot export.  JSON schema (stable, "anton.metrics.v1"):
  //   {"schema": "anton.metrics.v1",
  //    "metrics": {"<name>": {"type": "counter"|"gauge"|"stat"|"histogram",
  //                           ...kind-specific fields...}, ...}}
  void write_json(std::ostream& os) const;
  std::string json() const;
  void save_json(const std::string& path) const;

 private:
  struct Entry {
    // Exactly one of these is set; kind is implied by which.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Stat> stat;
    std::unique_ptr<Histo> histo;
  };

  Entry& lookup(std::string_view name);

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace anton::obs
