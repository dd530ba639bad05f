#include "core/taskgraph.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "common/error.h"

namespace anton::core {

namespace {

// Short-step dependency count of a masked (long-range) task: notifications
// from the replayed subset decrement it but can never drain it.
constexpr int kMasked = std::numeric_limits<int>::max();

}  // namespace

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
                        const char* phase, bool long_range) {
  ANTON_CHECK(node >= 0 && busy_ns >= 0 && phase != nullptr);
  ANTON_CHECK_MSG(!finalized_, "task added to a finalized graph");
  info_.push_back({busy_ns, node, intern_phase(phase), unit, long_range,
                   false, 0, 0, 0});
  ++num_tasks_;
  deps_.push_back(0);
  mcast_bytes_.push_back(0.0);
  max_node_ = std::max(max_node_, node);
  return num_tasks() - 1;
}

void TaskGraph::check_ids(int from, int to) const {
  ANTON_CHECK(from >= 0 && from < num_tasks() && to >= 0 && to < num_tasks());
  ANTON_CHECK_MSG(!finalized_, "edge added to a finalized graph");
}

void TaskGraph::add_local_dep(int from, int to) {
  check_ids(from, to);
  ANTON_CHECK_MSG(info_[static_cast<size_t>(from)].node ==
                      info_[static_cast<size_t>(to)].node,
                  "local dep across nodes; use add_message");
  staged_local_.push_back({from, to});
  deps_[static_cast<size_t>(to)]++;
}

void TaskGraph::add_barrier_dep(int from, int to) {
  check_ids(from, to);
  staged_local_.push_back({from, to});
  deps_[static_cast<size_t>(to)]++;
}

void TaskGraph::add_message(int from, int to, double bytes) {
  check_ids(from, to);
  staged_send_.push_back({from, to, bytes});
  deps_[static_cast<size_t>(to)]++;
}

void TaskGraph::add_multicast(int from, std::span<const int> to,
                              double bytes) {
  ANTON_CHECK(from >= 0 && from < num_tasks());
  ANTON_CHECK_MSG(!finalized_, "edge added to a finalized graph");
  Info& src = info_[static_cast<size_t>(from)];
  ANTON_CHECK_MSG(!src.has_mcast, "one multicast per task; add another task");
  src.has_mcast = true;
  mcast_bytes_[static_cast<size_t>(from)] = bytes;
  for (int dep : to) {
    check_ids(from, dep);
    staged_mcast_.push_back({from, dep});
    deps_[static_cast<size_t>(dep)]++;
  }
}

void TaskGraph::reserve(size_t tasks, size_t local_edges, size_t messages,
                        size_t mcast_edges) {
  info_.reserve(tasks);
  deps_.reserve(tasks);
  mcast_bytes_.reserve(tasks);
  staged_local_.reserve(local_edges);
  staged_send_.reserve(messages);
  staged_mcast_.reserve(mcast_edges);
}

void TaskGraph::finalize() {
  if (finalized_) return;
  const size_t n = info_.size();
  // Counting sort of each edge kind by source: counts, prefix offsets,
  // then a stable scatter in insertion order.  The sentinel record n holds
  // the totals.
  info_.push_back({0.0, 0, 0, Unit::kSync, false, false, 0, 0, 0});
  for (const Edge& e : staged_local_) info_[static_cast<size_t>(e.from) + 1].local++;
  for (const Message& m : staged_send_) info_[static_cast<size_t>(m.from) + 1].send++;
  for (const Edge& e : staged_mcast_) info_[static_cast<size_t>(e.from) + 1].mcast++;
  for (size_t t = 0; t < n; ++t) {
    info_[t + 1].local += info_[t].local;
    info_[t + 1].send += info_[t].send;
    info_[t + 1].mcast += info_[t].mcast;
  }
  struct Cursor {
    int local, send, mcast;
  };
  std::vector<Cursor> cursor(n);
  for (size_t t = 0; t < n; ++t) {
    cursor[t] = {info_[t].local, info_[t].send, info_[t].mcast};
  }
  local_dst_.resize(staged_local_.size());
  for (const Edge& e : staged_local_) {
    local_dst_[static_cast<size_t>(cursor[static_cast<size_t>(e.from)].local++)] =
        e.to;
  }
  sends_.resize(staged_send_.size());
  for (const Message& m : staged_send_) {
    sends_[static_cast<size_t>(cursor[static_cast<size_t>(m.from)].send++)] = {
        m.to, info_[static_cast<size_t>(m.to)].node, m.bytes};
  }
  mcast_dst_.resize(staged_mcast_.size());
  mcast_node_.resize(staged_mcast_.size());
  for (const Edge& e : staged_mcast_) {
    const size_t i =
        static_cast<size_t>(cursor[static_cast<size_t>(e.from)].mcast++);
    mcast_dst_[i] = e.to;
    mcast_node_[i] = info_[static_cast<size_t>(e.to)].node;
  }

  // Short step: every edge out of a long-range task disappears with it.
  // Local (barrier) edges into a long-range task may stay — notifying a
  // masked task is a no-op — but a message would still cross the torus.
  auto lr = [&](int t) { return info_[static_cast<size_t>(t)].long_range; };
  short_deps_ = deps_;
  for (const Edge& e : staged_local_) {
    if (lr(e.from)) short_deps_[static_cast<size_t>(e.to)]--;
  }
  for (const Message& m : staged_send_) {
    ANTON_CHECK_MSG(lr(m.from) || !lr(m.to),
                    "message from task " << m.from
                                         << " into long-range task " << m.to
                                         << ": the short step cannot drop it");
    if (lr(m.from)) short_deps_[static_cast<size_t>(m.to)]--;
  }
  for (const Edge& e : staged_mcast_) {
    ANTON_CHECK_MSG(lr(e.from) || !lr(e.to),
                    "multicast from task " << e.from
                                           << " into long-range task " << e.to
                                           << ": the short step cannot drop it");
    if (lr(e.from)) short_deps_[static_cast<size_t>(e.to)]--;
  }
  short_tasks_ = 0;
  phase_in_short_.assign(phase_names_.size(), false);
  for (size_t t = 0; t < n; ++t) {
    if (info_[t].long_range) {
      short_deps_[t] = kMasked;
    } else {
      ++short_tasks_;
      phase_in_short_[static_cast<size_t>(info_[t].phase_id)] = true;
    }
  }

  // Release the staging lists' memory, not just their contents.
  std::vector<Edge>().swap(staged_local_);
  std::vector<Message>().swap(staged_send_);
  std::vector<Edge>().swap(staged_mcast_);
  finalized_ = true;
}

TaskGraph::TaskView TaskGraph::task(int id) const {
  ANTON_CHECK_MSG(finalized_, "finalize() the graph before reading edges");
  const size_t t = static_cast<size_t>(id);
  ANTON_CHECK(id >= 0 && id < num_tasks_);
  const Info& a = info_[t];
  const Info& b = info_[t + 1];
  auto sub = [](const auto& v, int lo, int hi) {
    return std::span(v.data() + lo, static_cast<size_t>(hi - lo));
  };
  return {a.node,
          a.unit,
          a.busy_ns,
          phase_names_[static_cast<size_t>(a.phase_id)],
          a.phase_id,
          deps_[t],
          a.long_range,
          sub(local_dst_, a.local, b.local),
          sub(sends_, a.send, b.send),
          sub(mcast_dst_, a.mcast, b.mcast),
          sub(mcast_node_, a.mcast, b.mcast),
          mcast_bytes_[t]};
}

int TaskGraph::replayed_tasks(bool include_long_range) const {
  ANTON_CHECK_MSG(finalized_, "finalize() the graph before replaying it");
  return include_long_range ? num_tasks() : short_tasks_;
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
// pooled delivery callables; each edge carries its destination node, and
// the multicast callback receives the *destination index* into the task's
// own slice of the multicast arrays.
void Executor::complete(int id) {
  ANTON_HOT_NOALLOC();
  const TaskGraph& g = *graph_;
  const TaskGraph::Info& a = g.info_[static_cast<size_t>(id)];
  const TaskGraph::Info& b = g.info_[static_cast<size_t>(id) + 1];
  for (int e = a.local; e < b.local; ++e) {
    notify(g.local_dst_[static_cast<size_t>(e)], id);
  }
  const int src = a.node;
  for (int e = a.send; e < b.send; ++e) {
    const TaskGraph::Send& s = g.sends_[static_cast<size_t>(e)];
    torus_->unicast(src, s.dst_node, s.bytes,
                    [this, dst = s.dst_task, id] { notify(dst, id); });
  }
  if (a.mcast < b.mcast) {
    torus_->multicast(
        src,
        std::span(g.mcast_node_.data() + a.mcast,
                  static_cast<size_t>(b.mcast - a.mcast)),
        g.mcast_bytes_[static_cast<size_t>(id)],
        [this, first = a.mcast, id](int i) {
          notify(graph_->mcast_dst_[static_cast<size_t>(first + i)], id);
        });
  }
}

void Executor::notify(int id, int from) {
  ANTON_HOT_NOALLOC();
  int& left = state_[static_cast<size_t>(id)].deps_left;
  ANTON_CHECK(left > 0);
  if (--left == 0) ready(id, from);
}

// ready()'s arithmetic, replayed: bit-identical to the end it scheduled.
sim::SimTime Executor::end_of(int id) const {
  const TaskGraph::Info& t = graph_->info_[static_cast<size_t>(id)];
  const sim::SimTime start = state_[static_cast<size_t>(id)].dispatch +
                             overhead_[static_cast<size_t>(t.unit)];
  return start + t.busy_ns;
}

void Executor::ready(int id, int released_by) {
  ANTON_HOT_NOALLOC();
  const TaskGraph::Info& t = graph_->info_[static_cast<size_t>(id)];
  const sim::SimTime now = queue_->now();
  const size_t unit_key =
      static_cast<size_t>(t.node) * kNumUnits + static_cast<size_t>(t.unit);
  const double overhead = overhead_[static_cast<size_t>(t.unit)];
  const sim::SimTime dispatch = std::max(now, unit_free_[unit_key]);
  const sim::SimTime start = dispatch + overhead;
  const sim::SimTime end = start + t.busy_ns;
  // The releasing predecessor: the final dependency to arrive — unless the
  // hardware unit itself was the bottleneck, in which case whoever held
  // the unit last is what this task actually waited for.
  if (unit_free_[unit_key] > now && unit_last_task_[unit_key] >= 0) {
    released_by = unit_last_task_[unit_key];
  }
  TaskState& st = state_[static_cast<size_t>(id)];
  st.dispatch = dispatch;
  st.pred = released_by;
  if (last_task_ < 0 || end > last_end_ ||
      (end == last_end_ && id < last_task_)) {
    last_end_ = end;
    last_task_ = id;
  }
  unit_last_task_[unit_key] = id;
  unit_free_[unit_key] = end;
  const double occupied = overhead + t.busy_ns;
  node_busy_[static_cast<size_t>(t.node)] += occupied;
  phase_busy_[static_cast<size_t>(t.phase_id)] += occupied;
  double& end_ns = phase_end_[static_cast<size_t>(t.phase_id)];
  end_ns = std::max(end_ns, static_cast<double>(end));
  tasks_executed_++;
  if (trace_ != nullptr) emit_span(id, unit_key, dispatch, end);
  queue_->schedule_at(end, [this, id] { complete(id); });
}

void Executor::emit_span(int id, size_t unit_key, sim::SimTime dispatch,
                         sim::SimTime end) {
  const TaskGraph::Info& t = graph_->info_[static_cast<size_t>(id)];
  if (!tid_named_[unit_key]) {
    tid_named_[unit_key] = true;
    static constexpr const char* kUnitNames[kNumUnits] = {"htis", "gc",
                                                          "sync"};
    trace_->thread_name(trace_pid_, static_cast<int>(unit_key),
                        "n" + std::to_string(t.node) + "/" +
                            kUnitNames[static_cast<int>(t.unit)]);
  }
  trace_->complete(graph_->phase_name(t.phase_id), "des",
                   (dispatch - t0_) * 1e-3, (end - dispatch) * 1e-3,
                   trace_pid_, static_cast<int>(unit_key),
                   {{"busy_ns", t.busy_ns}});
}

namespace {

// Writes value(p) under phase p's label for every phase with keep(p) and
// erases every other key.  A map whose key set matches its previous fold
// neither allocates nor frees (std::map only allocates for new keys).
template <class Keep, class Value>
void fold_phases(std::map<std::string, double>& m, const TaskGraph& g,
                 Keep keep, Value value) {
  for (auto it = m.begin(); it != m.end();) {
    bool kept = false;
    for (int p = 0; p < g.num_phases() && !kept; ++p) {
      kept = keep(p) && it->first == g.phase_name(p);
    }
    it = kept ? std::next(it) : m.erase(it);
  }
  for (int p = 0; p < g.num_phases(); ++p) {
    if (keep(p)) m[g.phase_name(p)] = value(p);
  }
}

}  // namespace

void Executor::fold_stats(ExecStats& s, bool include_long_range) {
  const TaskGraph& g = *graph_;
  auto replayed = [&](int p) {
    return include_long_range || g.phase_in_short_[static_cast<size_t>(p)];
  };
  fold_phases(s.phase_busy_ns, g, replayed,
              [&](int p) { return phase_busy_[static_cast<size_t>(p)]; });
  fold_phases(s.phase_end_ns, g, replayed,
              [&](int p) { return phase_end_[static_cast<size_t>(p)]; });
  // Phases the critical path never touched are left out of
  // critical_path_ns.
  fold_phases(
      s.critical_path_ns, g,
      [&](int p) { return static_cast<bool>(crit_touched_[static_cast<size_t>(p)]); },
      [&](int p) { return crit_phase_[static_cast<size_t>(p)]; });
}

const ExecStats& Executor::run(TaskGraph& graph,
                               const arch::MachineConfig& config,
                               noc::Torus& torus, sim::EventQueue& queue,
                               obs::TraceWriter* trace, int trace_pid,
                               bool include_long_range) {
  graph.finalize();
  graph_ = &graph;
  config_ = &config;
  torus_ = &torus;
  queue_ = &queue;
  trace_ = trace;
  trace_pid_ = trace_pid;
  for (int u = 0; u < kNumUnits; ++u) {
    overhead_[u] = dispatch_overhead(static_cast<Unit>(u));
  }

  const size_t n = static_cast<size_t>(graph.num_tasks());
  const int num_nodes = torus.num_nodes();
  if (graph.max_node_ >= num_nodes) {
    for (size_t i = 0; i < n; ++i) {
      const int node = graph.info_[i].node;
      ANTON_CHECK_MSG(node < num_nodes, "task " << i << " pinned to node "
                                                << node
                                                << " outside the torus");
    }
  }
  const std::vector<int>& deps0 =
      include_long_range ? graph.deps_ : graph.short_deps_;
  state_.resize(n);
  for (size_t i = 0; i < n; ++i) state_[i].deps_left = deps0[i];
  last_end_ = 0;
  last_task_ = -1;
  unit_free_.assign(static_cast<size_t>(num_nodes) * kNumUnits, 0.0);
  node_busy_.assign(static_cast<size_t>(num_nodes), 0.0);
  unit_last_task_.assign(unit_free_.size(), -1);
  tid_named_.assign(unit_free_.size(), false);
  const size_t num_phases = static_cast<size_t>(graph.num_phases());
  phase_busy_.assign(num_phases, 0.0);
  phase_end_.assign(num_phases, 0.0);
  crit_phase_.assign(num_phases, 0.0);
  crit_touched_.assign(num_phases, false);
  tasks_executed_ = 0;

  last_mode_ = include_long_range ? 1 : 0;
  ExecStats& st = stats_[last_mode_];
  st.makespan_ns = 0;
  st.max_node_busy_ns = 0;
  st.mean_node_busy_ns = 0;
  st.tasks_executed = 0;
  st.critical_wait_ns = 0;
  st.noc = noc::NocStats{};

  torus.reset_stats();

  const sim::SimTime t0 = queue.now();
  t0_ = t0;
  // Seed every zero-dependency task (masked ones never reach zero).
  for (size_t i = 0; i < n; ++i) {
    if (state_[i].deps_left == 0) ready(static_cast<int>(i), -1);
  }
  const sim::SimTime t_end = queue.run();

  st.makespan_ns = t_end - t0;
  double sum = 0;
  for (double b : node_busy_) {
    st.max_node_busy_ns = std::max(st.max_node_busy_ns, b);
    sum += b;
  }
  st.mean_node_busy_ns = sum / static_cast<double>(node_busy_.size());
  st.tasks_executed = tasks_executed_;
  const int replayed = graph.replayed_tasks(include_long_range);
  ANTON_CHECK_MSG(tasks_executed_ == static_cast<uint64_t>(replayed),
                  "deadlock: " << replayed - static_cast<int64_t>(tasks_executed_)
                               << " tasks never ran");
  st.noc = torus.stats();

  // Critical-path walk-back from the last-finishing task.  Each hop
  // attributes the task's unit occupancy to its phase and the gap to its
  // releasing predecessor (exposed wire latency) to critical_wait_ns; the
  // queue drains at the last task's completion, so the pieces tile the
  // makespan exactly.
  for (int cur = last_task_; cur >= 0;) {
    const TaskState& c = state_[static_cast<size_t>(cur)];
    const size_t p = static_cast<size_t>(graph.info_[static_cast<size_t>(cur)].phase_id);
    crit_phase_[p] += end_of(cur) - c.dispatch;
    crit_touched_[p] = true;
    const double released_at = c.pred >= 0 ? end_of(c.pred) : t0;
    st.critical_wait_ns += std::max(0.0, c.dispatch - released_at);
    cur = c.pred;
  }

  fold_stats(st, include_long_range);
  return st;
}

ExecStats execute(TaskGraph& graph, const arch::MachineConfig& config,
                  noc::Torus& torus, sim::EventQueue& queue,
                  obs::TraceWriter* trace, int trace_pid) {
  Executor ex;
  return ex.run(graph, config, torus, queue, trace, trace_pid);
}

}  // namespace anton::core
