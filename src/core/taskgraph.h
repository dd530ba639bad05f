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
// Storage is flat.  Each task is one fixed-size record; edges are staged
// while the graph is built and grouped by source into CSR arrays by
// finalize(), each message edge carrying its destination node, so a
// replay walks contiguous memory and never looks a task up to route to it.
//
// Tasks flagged long-range (the mesh/FFT chain) can be masked out of a
// replay: the RESPA short step is the full graph minus those tasks, with
// per-task dependency counts that finalize() derives once per graph.
//
// The Executor is a persistent object: its per-task bookkeeping vectors and
// phase accumulators are reused across run() calls, so replaying a graph —
// the steady state of AntonMachine::run and of sweep replicas, alternating
// full and short steps — performs zero heap allocations on the
// task-release path.
#pragma once

#include <cstdint>
#include <map>
#include <span>
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
  // A unicast message edge: dependent task, the node it runs on, payload.
  struct Send {
    int dst_task;
    int dst_node;
    double bytes;
  };

  // Read-only view of one task and its out-edges (spans into the graph's
  // edge arrays, valid while the graph is alive and unmodified).
  struct TaskView {
    int node;
    Unit unit;
    double busy_ns;
    const char* phase;
    int phase_id;  // dense index into the graph's interned phase table
    int deps;      // dependency count in the full step
    bool long_range;
    std::span<const int> local_dependents;
    std::span<const Send> sends;  // unicast messages fired at completion
    // Multicast: same payload to many dependents (one tree on the wire).
    std::span<const int> mcast_dependents;
    std::span<const int> mcast_nodes;  // node of each mcast dependent
    double mcast_bytes;
  };

  // Returns the task id.  A long-range task belongs to the mesh/FFT chain
  // and is left out of a short-step replay.
  int add_task(int node, Unit unit, double busy_ns, const char* phase,
               bool long_range = false);

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
  void add_multicast(int from, std::span<const int> to, double bytes);

  // Capacity hints for a builder that knows its sizes.
  void reserve(size_t tasks, size_t local_edges, size_t messages,
               size_t mcast_edges);

  // Groups the staged edges by source (stable: each task's dependents keep
  // their insertion order) and derives the short-step dependency counts.
  // Idempotent; the Executor calls it, and a finalized graph takes no more
  // tasks or edges.  Rejects a message or multicast from a task that is
  // not long-range into one that is: the short step could not drop it.
  void finalize();

  int num_tasks() const { return num_tasks_; }
  // Requires a finalized graph.
  TaskView task(int id) const;

  // Interned phase labels (by string content; add_task assigns ids).
  int num_phases() const { return static_cast<int>(phase_names_.size()); }
  const char* phase_name(int id) const {
    return phase_names_.at(static_cast<size_t>(id));
  }

  // Tasks a replay runs: all of them, or all but the long-range ones.
  // Requires a finalized graph.
  int replayed_tasks(bool include_long_range) const;

 private:
  friend class Executor;

  // The executor's per-task hot record: what ready() and complete() read.
  // Task t's edges of each kind are [info_[t].x, info_[t + 1].x); after
  // finalize() a sentinel record closes the last task's ranges.
  struct Info {
    double busy_ns;
    int node;
    int phase_id;
    Unit unit;
    bool long_range;
    bool has_mcast;
    int local;  // first local edge
    int send;   // first unicast edge
    int mcast;  // first multicast edge
  };
  struct Edge {
    int from;
    int to;
  };
  struct Message {
    int from;
    int to;
    double bytes;
  };

  int intern_phase(const char* phase);
  void check_ids(int from, int to) const;

  bool finalized_ = false;
  int num_tasks_ = 0;
  std::vector<Info> info_;  // num_tasks() records, plus the sentinel
  std::vector<int> deps_;        // full step
  std::vector<int> short_deps_;  // short step; never drains on long-range
  std::vector<double> mcast_bytes_;
  std::vector<const char*> phase_names_;
  std::vector<bool> phase_in_short_;  // some short-step task has the phase
  int short_tasks_ = 0;
  int max_node_ = -1;

  // Staged edges, in insertion order (emptied by finalize()).
  std::vector<Edge> staged_local_;
  std::vector<Message> staged_send_;
  std::vector<Edge> staged_mcast_;

  // CSR edge arrays grouped by source.
  std::vector<int> local_dst_;
  std::vector<Send> sends_;
  std::vector<int> mcast_dst_;
  std::vector<int> mcast_node_;
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
// bookkeeping, per-phase accumulators) are retained between calls, so
// repeated runs of an equally-sized graph allocate nothing.  Not reentrant;
// the graph must outlive the call.
class Executor {
 public:
  // `torus` must have as many nodes as the graph references; a task pinned
  // outside it throws anton::Error.  Deterministic.  When `trace` is
  // non-null every task becomes a complete-event span on (trace_pid,
  // tid = node * kNumUnits + unit) named after its phase.  With
  // include_long_range false the long-range tasks are masked out (the
  // RESPA short step): they never run, and phases that only they carry are
  // absent from the stats.  The returned reference stays valid across
  // run() calls; each mode keeps stats of its own, overwritten by the next
  // run in that mode.
  const ExecStats& run(TaskGraph& graph, const arch::MachineConfig& config,
                       noc::Torus& torus, sim::EventQueue& queue,
                       obs::TraceWriter* trace = nullptr,
                       int trace_pid = obs::kPidMachine,
                       bool include_long_range = true);

  // Stats of the last run().
  const ExecStats& stats() const { return stats_[last_mode_]; }

 private:
  double dispatch_overhead(Unit unit) const;
  sim::SimTime end_of(int id) const;
  void complete(int id);
  void notify(int id, int from);
  void ready(int id, int released_by);
  void emit_span(int id, size_t unit_key, sim::SimTime dispatch,
                 sim::SimTime end);
  void fold_stats(ExecStats& s, bool include_long_range);

  // Bound for the duration of run().
  const TaskGraph* graph_ = nullptr;
  const arch::MachineConfig* config_ = nullptr;
  noc::Torus* torus_ = nullptr;
  sim::EventQueue* queue_ = nullptr;
  obs::TraceWriter* trace_ = nullptr;
  int trace_pid_ = obs::kPidMachine;
  sim::SimTime t0_ = 0;
  double overhead_[kNumUnits] = {};  // dispatch overhead per unit

  // Persistent per-task / per-unit bookkeeping (sized on each run, reused).
  // One record per task, so a release touches one cache line; ready()
  // writes dispatch and pred before anything reads them, and a task's end
  // is recomputed from its dispatch time with the same arithmetic.
  struct TaskState {
    sim::SimTime dispatch;
    int deps_left;
    int pred;  // releasing predecessor (-1 for seeds)
  };
  std::vector<TaskState> state_;
  std::vector<sim::SimTime> unit_free_;  // (node * kNumUnits + unit)
  std::vector<double> node_busy_;
  std::vector<int> unit_last_task_;  // prior occupant per (node, unit)
  std::vector<bool> tid_named_;
  // The last-finishing task so far (the first in id order among equals):
  // where the critical-path walk starts.
  sim::SimTime last_end_ = 0;
  int last_task_ = -1;
  // Per-phase accumulation by interned id (folded into the stats maps
  // after the queue drains).
  std::vector<double> phase_busy_;
  std::vector<double> phase_end_;
  std::vector<double> crit_phase_;
  std::vector<bool> crit_touched_;
  uint64_t tasks_executed_ = 0;

  // [include_long_range]: each mode's maps keep their own key set warm, so
  // a runner alternating full and short steps never reallocates them.
  ExecStats stats_[2];
  int last_mode_ = 1;
};

// Convenience wrapper: executes on a throwaway Executor and copies the
// stats out.  Prefer a persistent Executor anywhere the graph replays.
ExecStats execute(TaskGraph& graph, const arch::MachineConfig& config,
                  noc::Torus& torus, sim::EventQueue& queue,
                  obs::TraceWriter* trace = nullptr,
                  int trace_pid = obs::kPidMachine);

}  // namespace anton::core
