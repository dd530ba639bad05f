#include "core/taskgraph.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/error.h"

namespace anton::core {

int TaskGraph::intern_phase(const char* phase) {
  for (int i = 0; i < num_phases(); ++i) {
    if (phase_names_[static_cast<size_t>(i)] == phase ||
        std::strcmp(phase_names_[static_cast<size_t>(i)], phase) == 0) {
      return i;
    }
  }
  phase_names_.push_back(phase);
  return num_phases() - 1;
}

int TaskGraph::add_task(int node, Unit unit, double busy_ns,
                        const char* phase) {
  ANTON_CHECK(node >= 0 && busy_ns >= 0 && phase != nullptr);
  Task t{};
  t.node = node;
  t.unit = unit;
  t.busy_ns = busy_ns;
  t.phase = phase;
  t.phase_id = intern_phase(phase);
  tasks_.push_back(std::move(t));
  return num_tasks() - 1;
}

void TaskGraph::add_local_dep(int from, int to) {
  ANTON_CHECK(from >= 0 && from < num_tasks() && to >= 0 && to < num_tasks());
  ANTON_CHECK_MSG(task(from).node == task(to).node,
                  "local dep across nodes; use add_message");
  task(from).local_dependents.push_back(to);
  task(to).deps++;
}

void TaskGraph::add_barrier_dep(int from, int to) {
  ANTON_CHECK(from >= 0 && from < num_tasks() && to >= 0 && to < num_tasks());
  task(from).local_dependents.push_back(to);
  task(to).deps++;
}

void TaskGraph::add_message(int from, int to, double bytes) {
  ANTON_CHECK(from >= 0 && from < num_tasks() && to >= 0 && to < num_tasks());
  task(from).sends.push_back({to, bytes});
  task(to).deps++;
}

void TaskGraph::add_multicast(int from, const std::vector<int>& to,
                              double bytes) {
  ANTON_CHECK(from >= 0 && from < num_tasks());
  Task& t = task(from);
  ANTON_CHECK_MSG(t.mcast_dependents.empty(),
                  "one multicast per task; add another task");
  t.mcast_dependents = to;
  t.mcast_bytes = bytes;
  for (int dep : to) task(dep).deps++;
}

double Executor::dispatch_overhead(Unit unit) const {
  switch (unit) {
    case Unit::kHtis:
      return config_->htis_task_overhead_ns +
             (config_->sync == arch::SyncModel::kEventDriven
                  ? config_->sync_trigger_ns
                  : 0.0);
    case Unit::kGc:
      return config_->gc_task_overhead_ns +
             (config_->sync == arch::SyncModel::kEventDriven
                  ? config_->sync_trigger_ns
                  : 0.0);
    case Unit::kSync:
      return 0.0;
  }
  return 0.0;
}

// Task completion: release dependents.  Remote releases ride the torus as
// pooled delivery callables — the multicast callback receives the
// *destination index*, so dispatch is a plain lookup into the task's own
// mcast_dependents array (no per-send container, no node→task map).
void Executor::complete(int id) {
  ANTON_HOT_NOALLOC();
  const TaskGraph::Task& t = graph_->task(id);
  for (int dep : t.local_dependents) notify(dep, id);
  for (const auto& s : t.sends) {
    const int dst_node = graph_->task(s.dst_task).node;
    torus_->unicast(t.node, dst_node, s.bytes,
                    [this, dst = s.dst_task, id] { notify(dst, id); });
  }
  if (!t.mcast_dependents.empty()) {
    mcast_nodes_.clear();
    for (int dep : t.mcast_dependents) {
      mcast_nodes_.push_back(  // anton-lint: allow(hot-alloc) amortized
          graph_->task(dep).node);
    }
    torus_->multicast(t.node, mcast_nodes_, t.mcast_bytes,
                      [this, deps = &t.mcast_dependents, id](int i) {
                        notify((*deps)[static_cast<size_t>(i)], id);
                      });
  }
}

void Executor::notify(int id, int from) {
  ANTON_HOT_NOALLOC();
  ANTON_CHECK(deps_left_[static_cast<size_t>(id)] > 0);
  if (--deps_left_[static_cast<size_t>(id)] == 0) ready(id, from);
}

void Executor::ready(int id, int released_by) {
  ANTON_HOT_NOALLOC();
  const TaskGraph::Task& t = graph_->task(id);
  const sim::SimTime now = queue_->now();
  const size_t unit_key =
      static_cast<size_t>(t.node) * kNumUnits + static_cast<size_t>(t.unit);
  const double overhead = dispatch_overhead(t.unit);
  const sim::SimTime dispatch = std::max(now, unit_free_[unit_key]);
  const sim::SimTime start = dispatch + overhead;
  const sim::SimTime end = start + t.busy_ns;
  // The releasing predecessor: the final dependency to arrive — unless the
  // hardware unit itself was the bottleneck, in which case whoever held
  // the unit last is what this task actually waited for.
  if (unit_free_[unit_key] > now && unit_last_task_[unit_key] >= 0) {
    released_by = unit_last_task_[unit_key];
  }
  dispatch_time_[static_cast<size_t>(id)] = dispatch;
  end_time_[static_cast<size_t>(id)] = end;
  crit_pred_[static_cast<size_t>(id)] = released_by;
  unit_last_task_[unit_key] = id;
  unit_free_[unit_key] = end;
  const double occupied = overhead + t.busy_ns;
  node_busy_[static_cast<size_t>(t.node)] += occupied;
  phase_busy_[static_cast<size_t>(t.phase_id)] += occupied;
  double& end_ns = phase_end_[static_cast<size_t>(t.phase_id)];
  end_ns = std::max(end_ns, static_cast<double>(end));
  tasks_executed_++;
  if (trace_ != nullptr) emit_span(t, unit_key, dispatch, end);
  queue_->schedule_at(end, [this, id] { complete(id); });
}

void Executor::emit_span(const TaskGraph::Task& t, size_t unit_key,
                         sim::SimTime dispatch, sim::SimTime end) {
  if (!tid_named_[unit_key]) {
    tid_named_[unit_key] = true;
    static constexpr const char* kUnitNames[kNumUnits] = {"htis", "gc",
                                                          "sync"};
    trace_->thread_name(trace_pid_, static_cast<int>(unit_key),
                        "n" + std::to_string(t.node) + "/" +
                            kUnitNames[static_cast<int>(t.unit)]);
  }
  trace_->complete(t.phase, "des", (dispatch - t0_) * 1e-3,
                   (end - dispatch) * 1e-3, trace_pid_,
                   static_cast<int>(unit_key),
                   {{"busy_ns", t.busy_ns}});
}

namespace {
// Keeps stats maps warm across runs: stale keys get zeroed in place (std::map
// insertion only allocates for *new* keys, so reused phase labels never
// touch the heap again).
void zero_values(std::map<std::string, double>& m) {
  for (auto& [k, v] : m) {
    (void)k;
    v = 0;
  }
}
}  // namespace

const ExecStats& Executor::run(TaskGraph& graph,
                               const arch::MachineConfig& config,
                               noc::Torus& torus, sim::EventQueue& queue,
                               obs::TraceWriter* trace, int trace_pid) {
  graph_ = &graph;
  config_ = &config;
  torus_ = &torus;
  queue_ = &queue;
  trace_ = trace;
  trace_pid_ = trace_pid;

  const size_t n = static_cast<size_t>(graph.num_tasks());
  const int num_nodes = torus.num_nodes();
  deps_left_.resize(n);
  for (int i = 0; i < graph.num_tasks(); ++i) {
    const TaskGraph::Task& t = graph.task(i);
    ANTON_CHECK_MSG(t.node >= 0 && t.node < num_nodes,
                    "task " << i << " pinned to node " << t.node
                            << " outside the torus");
    deps_left_[static_cast<size_t>(i)] = t.deps;
  }
  unit_free_.assign(static_cast<size_t>(num_nodes) * kNumUnits, 0.0);
  node_busy_.assign(static_cast<size_t>(num_nodes), 0.0);
  dispatch_time_.assign(n, 0.0);
  end_time_.assign(n, 0.0);
  crit_pred_.assign(n, -1);
  unit_last_task_.assign(unit_free_.size(), -1);
  tid_named_.assign(unit_free_.size(), false);
  const size_t num_phases = static_cast<size_t>(graph.num_phases());
  phase_busy_.assign(num_phases, 0.0);
  phase_end_.assign(num_phases, 0.0);
  crit_phase_.assign(num_phases, 0.0);
  crit_touched_.assign(num_phases, false);
  tasks_executed_ = 0;

  stats_.makespan_ns = 0;
  zero_values(stats_.phase_busy_ns);
  zero_values(stats_.phase_end_ns);
  zero_values(stats_.critical_path_ns);
  stats_.max_node_busy_ns = 0;
  stats_.mean_node_busy_ns = 0;
  stats_.tasks_executed = 0;
  stats_.critical_wait_ns = 0;
  stats_.noc = noc::NocStats{};

  torus.reset_stats();

  const sim::SimTime t0 = queue.now();
  t0_ = t0;
  // Seed all zero-dependency tasks.
  for (int i = 0; i < graph.num_tasks(); ++i) {
    if (graph.task(i).deps == 0) ready(i, -1);
  }
  const sim::SimTime t_end = queue.run();

  stats_.makespan_ns = t_end - t0;
  double sum = 0;
  for (double b : node_busy_) {
    stats_.max_node_busy_ns = std::max(stats_.max_node_busy_ns, b);
    sum += b;
  }
  stats_.mean_node_busy_ns = sum / static_cast<double>(node_busy_.size());
  stats_.tasks_executed = tasks_executed_;
  ANTON_CHECK_MSG(tasks_executed_ == static_cast<uint64_t>(graph.num_tasks()),
                  "deadlock: " << graph.num_tasks() - tasks_executed_
                               << " tasks never ran");
  stats_.noc = torus.stats();

  // Critical-path walk-back from the last-finishing task.  Each hop
  // attributes the task's unit occupancy to its phase and the gap to its
  // releasing predecessor (exposed wire latency) to critical_wait_ns; the
  // queue drains at the last task's completion, so the pieces tile the
  // makespan exactly.
  if (graph.num_tasks() > 0) {
    int cur = 0;
    for (int i = 1; i < graph.num_tasks(); ++i) {
      if (end_time_[static_cast<size_t>(i)] >
          end_time_[static_cast<size_t>(cur)]) {
        cur = i;
      }
    }
    while (cur >= 0) {
      const size_t c = static_cast<size_t>(cur);
      crit_phase_[static_cast<size_t>(graph.task(cur).phase_id)] +=
          end_time_[c] - dispatch_time_[c];
      crit_touched_[static_cast<size_t>(graph.task(cur).phase_id)] = true;
      const int pred = crit_pred_[c];
      const double released_at =
          pred >= 0 ? end_time_[static_cast<size_t>(pred)] : t0;
      stats_.critical_wait_ns +=
          std::max(0.0, dispatch_time_[c] - released_at);
      cur = pred;
    }
  }

  // Fold the dense per-phase accumulators into the string-keyed maps the
  // public API exposes.  Phases the critical path never touched are left
  // out of critical_path_ns (matching the original lazy accumulation).
  for (int p = 0; p < graph.num_phases(); ++p) {
    const size_t pi = static_cast<size_t>(p);
    stats_.phase_busy_ns[graph.phase_name(p)] = phase_busy_[pi];
    stats_.phase_end_ns[graph.phase_name(p)] = phase_end_[pi];
    if (crit_touched_[pi]) {
      stats_.critical_path_ns[graph.phase_name(p)] += crit_phase_[pi];
    }
  }
  return stats_;
}

ExecStats execute(TaskGraph& graph, const arch::MachineConfig& config,
                  noc::Torus& torus, sim::EventQueue& queue,
                  obs::TraceWriter* trace, int trace_pid) {
  Executor ex;
  return ex.run(graph, config, torus, queue, trace, trace_pid);
}

}  // namespace anton::core
