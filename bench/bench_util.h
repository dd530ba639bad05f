// Shared helpers for the experiment harness.
//
// Every bench binary regenerates one table or figure of the paper's
// evaluation (see DESIGN.md / EXPERIMENTS.md for the index) and prints the
// same kind of rows/series the paper reports.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "arch/config.h"
#include "chem/builder.h"
#include "common/table.h"
#include "common/threadpool.h"
#include "core/machine.h"
#include "core/sweep.h"
#include "obs/flightrecorder.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace anton::bench {

inline void print_header(const std::string& experiment_id,
                         const std::string& description) {
  std::cout << "\n=== " << experiment_id << ": " << description << " ===\n";
}

// The standard 23,558-atom benchmark system (DHFR class), built once.
inline const System& dhfr_system() {
  static const System sys = build_benchmark_system(dhfr_spec());
  return sys;
}

// Machine preset by name with an arbitrary node count.
inline arch::MachineConfig machine_preset(const std::string& name,
                                          int nodes) {
  int nx, ny, nz;
  core::torus_dims(nodes, &nx, &ny, &nz);
  if (name == "anton1") return arch::MachineConfig::anton1(nx, ny, nz);
  if (name == "anton2-bsp") return arch::MachineConfig::anton2_bsp(nx, ny, nz);
  return arch::MachineConfig::anton2(nx, ny, nz);
}

// Uniform machine-readable bench output.  Each experiment binary records
// its headline numbers into a MetricsRegistry and writes one
// "anton.metrics.v1" snapshot, BENCH_<id>.json, on destruction (into
// $ANTON_BENCH_DIR when set, else the working directory) — the same schema
// the telemetry layer uses everywhere, so downstream tooling parses bench
// results and run metrics identically.  F6 is the exception: its
// BENCH_f6.json is google-benchmark's own format, produced by the
// bench-smoke target, and stays that way.
class BenchReport {
 public:
  explicit BenchReport(std::string experiment_id)
      : id_(std::move(experiment_id)) {
    // A bench killed mid-run (timeout, OOM reaper, ^C) leaves a flight dump
    // behind instead of nothing.
    obs::flight::install_crash_handler();
  }
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;
  ~BenchReport() {
    try {
      save();
    } catch (...) {
      // Benches must not die on an unwritable output directory.
    }
  }

  void record(const std::string& name, double value) {
    reg_.gauge(id_ + "." + name)->set(value);
  }
  obs::MetricsRegistry& registry() { return reg_; }

  std::string path() const {
    const char* dir = std::getenv("ANTON_BENCH_DIR");
    const std::string prefix =
        dir != nullptr && *dir != '\0' ? std::string(dir) + "/" : std::string();
    return prefix + "BENCH_" + id_ + ".json";
  }

  void save() const {
    if (reg_.empty()) return;
    reg_.save_json(path());
    std::cout << "\n[metrics] " << path() << "\n";
  }

 private:
  std::string id_;
  obs::MetricsRegistry reg_;
};

// Shared worker pool for sweep parallelism, one thread per hardware thread.
// Every bench maps its estimate points through core::SweepRunner on this
// pool, whose results are bitwise identical at any pool width.
inline ThreadPool* sweep_pool() {
  static ThreadPool pool;
  return &pool;
}

// Estimate a batch of machine points on one system, in point order.
inline std::vector<core::PerfReport> sweep_estimates(
    const System& sys, std::span<const core::EstimatePoint> points) {
  return core::SweepRunner(sweep_pool()).estimate(sys, points);
}

// Paper-anchored reference points quoted in the abstract; printed next to
// measured values so every run shows paper-vs-reproduction at a glance.
inline constexpr double kPaperDhfr512UsPerDay = 85.0;
inline constexpr double kPaperAnton2OverAnton1 = 10.0;  // "up to ten times"
inline constexpr double kPaperCommoditySpeedup = 180.0;

}  // namespace anton::bench
