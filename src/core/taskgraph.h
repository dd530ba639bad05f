// Task graph + discrete-event executor: the machine's execution model.
//
// An MD timestep is expressed as a graph of tasks, each pinned to a node and
// a hardware unit (HTIS pairwise array, geometry-core array, or the sync/
// barrier unit).  Dependencies are either node-local (hardware counter
// decrements) or carried by NoC messages.  The executor plays the graph on
// the event queue: a task fires when its dependency counter drains, queues
// on its (node, unit) resource, runs for its busy time, then notifies
// dependents — local ones immediately, remote ones through the torus model.
//
// This is precisely the paper's "fine-grained event-driven operation": no
// global coordination, computation overlapping communication wherever the
// dependency structure allows.  Bulk-synchronous execution is expressed in
// the same graph language by inserting global barrier tasks between phases.
//
// The Executor is a persistent object: its per-task bookkeeping vectors and
// phase accumulators (interned to dense ids at graph-build time) are reused
// across run() calls, so replaying a same-shaped graph — the steady state of
// AntonMachine::run and of sweep replicas — performs zero heap allocations
// on the task-release path.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arch/config.h"
#include "noc/torus.h"
#include "obs/trace.h"
#include "sim/event_queue.h"

namespace anton::core {

enum class Unit : uint8_t {
  kHtis = 0,  // pairwise point interaction pipelines
  kGc = 1,    // geometry cores (flexible subsystem)
  kSync = 2,  // barrier/reduction engine
};
inline constexpr int kNumUnits = 3;

class TaskGraph {
 public:
  struct Send {
    int dst_task;
    double bytes;
  };

  struct Task {
    int node;
    Unit unit;
    double busy_ns;
    const char* phase;
    int phase_id;  // dense index into the graph's interned phase table
    int deps = 0;
    std::vector<int> local_dependents;
    std::vector<Send> sends;          // unicast messages fired at completion
    // Multicast: same payload to many dependents (one tree on the wire).
    std::vector<int> mcast_dependents;
    double mcast_bytes = 0;
  };

  // Returns the task id.
  int add_task(int node, Unit unit, double busy_ns, const char* phase);

  // Local dependency: `to` cannot start before `from` completes.
  void add_local_dep(int from, int to);

  // Barrier dependency: like a local dep but may cross nodes without a
  // message — used only for global barrier tasks, whose cost constant
  // already includes the reduction/broadcast traffic.
  void add_barrier_dep(int from, int to);

  // Cross-node dependency carried by a message of `bytes` from the node of
  // `from` to the node of `to`.
  void add_message(int from, int to, double bytes);

  // Multicast from `from` to all of `to` (payload travels each tree link
  // once).  All targets gain one dependency.
  void add_multicast(int from, const std::vector<int>& to, double bytes);

  int num_tasks() const { return static_cast<int>(tasks_.size()); }
  const Task& task(int id) const { return tasks_.at(static_cast<size_t>(id)); }
  Task& task(int id) { return tasks_.at(static_cast<size_t>(id)); }

  // Interned phase labels (by string content; add_task assigns ids).
  int num_phases() const { return static_cast<int>(phase_names_.size()); }
  const char* phase_name(int id) const {
    return phase_names_.at(static_cast<size_t>(id));
  }

 private:
  int intern_phase(const char* phase);

  std::vector<Task> tasks_;
  std::vector<const char*> phase_names_;
};

struct ExecStats {
  double makespan_ns = 0;
  // Busy nanoseconds summed over all nodes, per phase label.
  std::map<std::string, double> phase_busy_ns;
  // Latest completion time of any task in each phase (critical-path view).
  std::map<std::string, double> phase_end_ns;
  double max_node_busy_ns = 0;   // busiest node's total compute
  double mean_node_busy_ns = 0;
  // 1 - exposed-communication fraction: how much of the makespan the
  // busiest node spent computing.
  double compute_fraction() const {
    return makespan_ns > 0 ? max_node_busy_ns / makespan_ns : 0;
  }
  uint64_t tasks_executed = 0;
  noc::NocStats noc;

  // Critical-path attribution.  The executor records, for every task, the
  // predecessor that actually released it (the final dependency to arrive,
  // or the prior occupant of its hardware unit when the unit was the
  // bottleneck), then walks back from the last-finishing task.  The walk
  // partitions the makespan exactly:
  //   makespan_ns == critical_wait_ns + sum(critical_path_ns[*])
  // critical_path_ns[phase] is time the critical path spent occupying a unit
  // in that phase (dispatch overhead included); critical_wait_ns is time it
  // spent waiting on the wire (exposed NoC latency).
  std::map<std::string, double> critical_path_ns;
  double critical_wait_ns = 0;
};

// Persistent graph executor.  One run() plays the graph to completion on
// (torus, queue); all internal buffers (dependency counters, unit/node
// bookkeeping, per-phase accumulators, multicast scratch) are retained
// between calls, so repeated runs of an equally-sized graph allocate
// nothing.  Not reentrant; the graph must outlive the call.
class Executor {
 public:
  // `torus` must have as many nodes as the graph references; a task pinned
  // outside it throws anton::Error.  Deterministic.  When `trace` is
  // non-null every task becomes a complete-event span on (trace_pid,
  // tid = node * kNumUnits + unit) named after its phase.  The returned
  // reference stays valid (and is overwritten) across run() calls.
  const ExecStats& run(TaskGraph& graph, const arch::MachineConfig& config,
                       noc::Torus& torus, sim::EventQueue& queue,
                       obs::TraceWriter* trace = nullptr,
                       int trace_pid = obs::kPidMachine);

  const ExecStats& stats() const { return stats_; }

 private:
  double dispatch_overhead(Unit unit) const;
  void complete(int id);
  void notify(int id, int from);
  void ready(int id, int released_by);
  void emit_span(const TaskGraph::Task& t, size_t unit_key,
                 sim::SimTime dispatch, sim::SimTime end);

  // Bound for the duration of run().
  TaskGraph* graph_ = nullptr;
  const arch::MachineConfig* config_ = nullptr;
  noc::Torus* torus_ = nullptr;
  sim::EventQueue* queue_ = nullptr;
  obs::TraceWriter* trace_ = nullptr;
  int trace_pid_ = obs::kPidMachine;
  sim::SimTime t0_ = 0;

  // Persistent per-task / per-unit bookkeeping (sized on each run, reused).
  std::vector<int> deps_left_;
  std::vector<sim::SimTime> unit_free_;  // (node * kNumUnits + unit)
  std::vector<double> node_busy_;
  std::vector<sim::SimTime> dispatch_time_;
  std::vector<sim::SimTime> end_time_;
  std::vector<int> crit_pred_;       // releasing predecessor (-1 for seeds)
  std::vector<int> unit_last_task_;  // prior occupant per (node, unit)
  std::vector<bool> tid_named_;
  std::vector<int> mcast_nodes_;     // multicast destination scratch
  // Per-phase accumulation by interned id (folded into the stats_ maps —
  // which stay warm, values zeroed in place — after the queue drains).
  std::vector<double> phase_busy_;
  std::vector<double> phase_end_;
  std::vector<double> crit_phase_;
  std::vector<bool> crit_touched_;
  uint64_t tasks_executed_ = 0;

  ExecStats stats_;
};

// Convenience wrapper: executes on a throwaway Executor and copies the
// stats out.  Prefer a persistent Executor anywhere the graph replays.
ExecStats execute(TaskGraph& graph, const arch::MachineConfig& config,
                  noc::Torus& torus, sim::EventQueue& queue,
                  obs::TraceWriter* trace = nullptr,
                  int trace_pid = obs::kPidMachine);

}  // namespace anton::core
