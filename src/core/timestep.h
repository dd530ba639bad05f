// The MD timestep as executed by the simulated machine.
//
// Builds the task graph of one timestep from a Workload and runs it on the
// discrete-event machine model.  Two scheduling regimes, selected by
// MachineConfig::sync:
//
//   kEventDriven (Anton 2)  — every task fires the moment its dependency
//     counter drains.  Position multicasts overlap pairwise tiles, the FFT
//     all-to-alls overlap bonded work, force returns stream back while
//     other tiles still compute.
//
//   kBulkSynchronous (Anton 1) — the same tasks separated by global
//     barriers after each phase (position exchange; force computation;
//     each FFT transpose; interpolation; step end).  No overlap across
//     phase boundaries.
//
// A "short" step omits the long-range (mesh/FFT) phases — the RESPA inner
// step; the full/short mix reproduces the machine's multiple-time-step
// cadence.  The short step is not a graph of its own: the graph flags its
// long-range tasks, and the short step replays the full graph with them
// masked out.
//
// TimestepRunner is the persistent form: it builds the full graph once and
// owns the queue/torus/executor, so re-running either step (the steady
// state between workload refreshes, and every bench sweep replica) is
// allocation-free with telemetry off.  simulate_step() wraps a throwaway
// runner for one-shot callers.
#pragma once

#include <memory>

#include "arch/config.h"
#include "core/taskgraph.h"
#include "core/workload.h"
#include "noc/torus.h"
#include "obs/metrics.h"
#include "obs/perfcounters.h"
#include "obs/trace.h"
#include "sim/event_queue.h"

namespace anton::core {

struct StepOptions {
  // Which step run_timestep() replays: the full step, or the RESPA short
  // step without the long-range phases.
  bool include_long_range = true;
  // Optional telemetry.  When `metrics` is set, the step exports per-phase
  // busy time, critical-path attribution, queue statistics, NoC latency/hop
  // histograms and link occupancy under the "des." prefix.  When `trace` is
  // set, every task, packet and link reservation becomes a trace span;
  // trace_ts_offset_us places this step on the shared trace timeline (each
  // step runs on a fresh event queue whose clock starts at zero).
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceWriter* trace = nullptr;
  double trace_ts_offset_us = 0;
};

struct StepTiming {
  ExecStats exec;
  double step_ns = 0;

  double phase_ns(const std::string& phase) const {
    const auto it = exec.phase_busy_ns.find(phase);
    return it == exec.phase_busy_ns.end() ? 0.0 : it->second;
  }
};

// Builds the task graph of one timestep (all tasks, dependencies, messages,
// multicasts, and — in BSP mode — barriers) without executing it.  The
// mesh/FFT tasks (and BSP's FFT barriers) are flagged long-range; with
// include_long_range false they are not built at all.  Returns a
// finalized graph.
TaskGraph build_step_graph(const Workload& workload,
                           const arch::MachineConfig& config,
                           bool include_long_range);

// Persistent timestep simulator: one full-step graph, one event queue, one
// torus, one executor, re-run on demand.  run_timestep() resets the
// simulated clock and link horizons, replays the graph (all of it, or the
// short step's subset), and returns the makespan; with telemetry off, the
// steady state performs zero heap allocations in either mode.
class TimestepRunner {
 public:
  TimestepRunner(const Workload& workload, const arch::MachineConfig& config,
                 const StepOptions& options = {});

  // Replays the step StepOptions::include_long_range names; returns
  // makespan_ns.  Deterministic: every call produces identical timing.
  double run_timestep() { return run_timestep(options_.include_long_range); }
  // Replays the full step (true) or the RESPA short step (false).
  double run_timestep(bool include_long_range);

  // Stats of the last run_timestep() (valid after the first call).
  const ExecStats& exec() const { return executor_.stats(); }
  double step_ns() const { return step_ns_; }
  // Convenience copy in the simulate_step() result shape.
  StepTiming timing() const;

  const TaskGraph& graph() const { return graph_; }
  // The event queue, for its counters (executed(), arena_slots()).
  const sim::EventQueue& queue() const { return queue_; }

  // Re-places this runner's steps on a shared trace timeline (each run
  // starts its queue clock at zero).
  void set_trace_offset_us(double us) { options_.trace_ts_offset_us = us; }

 private:
  arch::MachineConfig config_;
  StepOptions options_;
  TaskGraph graph_;
  sim::EventQueue queue_;
  noc::Torus torus_;
  Executor executor_;
  double step_ns_ = 0;
  // Host-side hardware counters around each replay (ANTON_PERF=1 and a
  // metrics registry): exports des.host.ipc / des.host.llc_miss_rate — how
  // efficiently the *simulator itself* runs, next to the simulated timings.
  std::unique_ptr<obs::PerfCounters> perf_;
};

// Simulates one timestep; deterministic.  One-shot wrapper over
// TimestepRunner.
StepTiming simulate_step(const Workload& workload,
                         const arch::MachineConfig& config,
                         const StepOptions& options);

// Cost of one global barrier (BSP mode): software base + reduction +
// broadcast over the torus diameter.
double barrier_cost_ns(const arch::MachineConfig& config);

}  // namespace anton::core
