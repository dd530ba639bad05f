// PhaseProfiler: scoped phase timing for the two clock domains in the tree.
//
// The MD engine is profiled in wall-clock time (the host actually executes
// it); the DES machine model is profiled in SimTime (the event queue's
// simulated nanoseconds) via record_seconds / the ExecStats exporters in
// core/.  Both feed the same MetricsRegistry, producing one uniform
// per-phase breakdown: each phase label becomes a Stat named
// "<prefix>.phase.<label>.seconds" whose sum is the total time spent in
// that phase and whose count is the number of scopes.
//
// Usage (hot path):
//   PhaseProfiler prof;                       // disabled: scopes are no-ops
//   prof.enable(&registry, "md", trace, pid); // turn on
//   { auto s = prof.scope("pair"); ... }      // RAII: times the block
//
// Disabled cost: Scope construction checks one pointer and stores two
// words; no clock is read.  Enabled cost: two steady_clock reads plus one
// mutex-guarded RunningStat add (and one trace record when a TraceWriter is
// attached).
//
// wall_seconds() below is the single sanctioned wall-clock read in the
// library: anton-lint's raw-clock rule forbids std::chrono::steady_clock
// calls outside src/obs/, so every timing measurement flows through here
// and is visible to the telemetry layer.
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace anton::obs {

// Monotonic wall-clock seconds since an arbitrary epoch.
inline double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class PhaseProfiler {
 public:
  PhaseProfiler() = default;
  PhaseProfiler(const PhaseProfiler&) = delete;
  PhaseProfiler& operator=(const PhaseProfiler&) = delete;

  // Attaches sinks and arms the profiler.  Phase stats are registered under
  // "<prefix>.phase.<label>.seconds"; trace spans (optional) are emitted on
  // (trace_pid, trace_tid) with ts relative to the enable() call.
  void enable(MetricsRegistry* registry, std::string prefix,
              TraceWriter* trace = nullptr, int trace_pid = kPidMd,
              int trace_tid = 0);
  void disable();
  bool enabled() const { return registry_ != nullptr; }

  MetricsRegistry* registry() const { return registry_; }
  TraceWriter* trace() const { return trace_; }
  double epoch() const { return epoch_; }

  class Scope {
   public:
    Scope(PhaseProfiler* p, const char* phase)
        : p_(p != nullptr && p->enabled() ? p : nullptr), phase_(phase) {
      if (p_ != nullptr) t0_ = wall_seconds();
    }
    ~Scope() {
      if (p_ != nullptr) p_->finish(phase_, t0_, wall_seconds());
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PhaseProfiler* p_;
    const char* phase_;
    double t0_ = 0;
  };

  Scope scope(const char* phase) { return Scope(this, phase); }

  // Manual recording for measurements made elsewhere (e.g. per-thread spans
  // inside the pair kernel, or SimTime converted by the DES exporters).
  void record_seconds(const char* phase, double seconds);

  // The stat backing a phase label (creates it on first use).  Stable
  // pointer; safe to cache.  Null when disabled.
  Stat* phase_stat(const char* phase);

 private:
  friend class Scope;
  void finish(const char* phase, double t0, double t1);

  MetricsRegistry* registry_ = nullptr;
  TraceWriter* trace_ = nullptr;
  std::string prefix_;
  int pid_ = kPidMd;
  int tid_ = 0;
  double epoch_ = 0;
  std::mutex mu_;  // guards cache_
  // Keyed by the phase literal's address: phase labels are string literals
  // in practice, so the common case is one map probe per scope.
  std::map<const char*, Stat*> cache_;
};

}  // namespace anton::obs
