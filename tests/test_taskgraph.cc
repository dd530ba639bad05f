#include <gtest/gtest.h>

#include "core/taskgraph.h"

namespace anton::core {
namespace {

arch::MachineConfig bare_machine() {
  arch::MachineConfig c = arch::MachineConfig::anton2(2, 2, 2);
  // Strip overheads so timing assertions are exact.
  c.htis_task_overhead_ns = 0;
  c.gc_task_overhead_ns = 0;
  c.sync_trigger_ns = 0;
  c.noc.hop_latency_ns = 10;
  c.noc.injection_overhead_ns = 0;
  c.noc.packet_overhead_bytes = 0;
  c.noc.link_bandwidth_gbs = 1.0;  // 1 B/ns
  return c;
}

ExecStats run_graph(TaskGraph& g, const arch::MachineConfig& c) {
  sim::EventQueue q;
  noc::Torus t(c.noc, &q);
  return execute(g, c, t, q);
}

TEST(TaskGraph, SerialChainSumsBusyTimes) {
  const auto c = bare_machine();
  TaskGraph g;
  const int a = g.add_task(0, Unit::kGc, 100, "a");
  const int b = g.add_task(0, Unit::kGc, 50, "b");
  const int d = g.add_task(0, Unit::kGc, 25, "c");
  g.add_local_dep(a, b);
  g.add_local_dep(b, d);
  const auto s = run_graph(g, c);
  EXPECT_NEAR(s.makespan_ns, 175.0, 1e-9);
  EXPECT_EQ(s.tasks_executed, 3u);
}

TEST(TaskGraph, IndependentTasksOnOneUnitSerialize) {
  const auto c = bare_machine();
  TaskGraph g;
  g.add_task(0, Unit::kHtis, 100, "x");
  g.add_task(0, Unit::kHtis, 100, "x");
  const auto s = run_graph(g, c);
  EXPECT_NEAR(s.makespan_ns, 200.0, 1e-9);
}

TEST(TaskGraph, DifferentUnitsOverlap) {
  const auto c = bare_machine();
  TaskGraph g;
  g.add_task(0, Unit::kHtis, 100, "x");
  g.add_task(0, Unit::kGc, 100, "y");
  const auto s = run_graph(g, c);
  EXPECT_NEAR(s.makespan_ns, 100.0, 1e-9);
}

TEST(TaskGraph, DifferentNodesOverlap) {
  const auto c = bare_machine();
  TaskGraph g;
  g.add_task(0, Unit::kGc, 100, "x");
  g.add_task(1, Unit::kGc, 100, "x");
  const auto s = run_graph(g, c);
  EXPECT_NEAR(s.makespan_ns, 100.0, 1e-9);
  EXPECT_NEAR(s.max_node_busy_ns, 100.0, 1e-9);
  EXPECT_NEAR(s.mean_node_busy_ns, 200.0 / 8, 1e-9);
}

TEST(TaskGraph, MessageDependencyAddsNetworkLatency) {
  const auto c = bare_machine();
  TaskGraph g;
  const int a = g.add_task(0, Unit::kGc, 100, "a");  // node (0,0,0)
  const int b = g.add_task(1, Unit::kGc, 50, "b");   // node (1,0,0): 1 hop
  g.add_message(a, b, 200.0);  // 200 B at 1 B/ns = 200 ns
  const auto s = run_graph(g, c);
  // 100 (a) + 10 (hop) + 200 (wire) + 50 (b).
  EXPECT_NEAR(s.makespan_ns, 360.0, 1e-9);
}

TEST(TaskGraph, MulticastReachesAllDependents) {
  const auto c = bare_machine();
  TaskGraph g;
  const int src = g.add_task(0, Unit::kGc, 10, "src");
  std::vector<int> sinks;
  for (int n = 1; n < 8; ++n) {
    sinks.push_back(g.add_task(n, Unit::kGc, 5, "sink"));
  }
  g.add_multicast(src, sinks, 100.0);
  const auto s = run_graph(g, c);
  EXPECT_EQ(s.tasks_executed, 8u);
  EXPECT_GT(s.makespan_ns, 10.0);
}

TEST(TaskGraph, EventDrivenBeatsBspOnSameGraphShape) {
  // Two nodes each do compute A then exchange then compute B.  BSP inserts
  // a barrier; event-driven doesn't.  BSP must be slower.
  auto build = [](TaskGraph& g, bool bsp, double barrier_cost) {
    const int a0 = g.add_task(0, Unit::kGc, 100, "a");
    const int a1 = g.add_task(1, Unit::kGc, 150, "a");
    const int b0 = g.add_task(0, Unit::kGc, 100, "b");
    const int b1 = g.add_task(1, Unit::kGc, 100, "b");
    g.add_message(a0, b1, 50.0);
    g.add_message(a1, b0, 50.0);
    if (bsp) {
      const int bar = g.add_task(0, Unit::kSync, barrier_cost, "barrier");
      g.add_barrier_dep(a0, bar);
      g.add_barrier_dep(a1, bar);
      g.add_barrier_dep(bar, b0);
      g.add_barrier_dep(bar, b1);
    }
  };
  const auto c = bare_machine();
  TaskGraph ge, gb;
  build(ge, false, 0);
  build(gb, true, 200.0);
  const double te = run_graph(ge, c).makespan_ns;
  const double tb = run_graph(gb, c).makespan_ns;
  EXPECT_LT(te, tb);
}

TEST(TaskGraph, DeadlockDetected) {
  const auto c = bare_machine();
  TaskGraph g;
  const int a = g.add_task(0, Unit::kGc, 10, "a");
  const int b = g.add_task(0, Unit::kGc, 10, "b");
  g.add_local_dep(a, b);
  g.add_local_dep(b, a);  // cycle
  TaskGraph g2 = g;
  EXPECT_THROW(run_graph(g2, c), Error);
}

TEST(TaskGraph, PhaseAccounting) {
  const auto c = bare_machine();
  TaskGraph g;
  g.add_task(0, Unit::kGc, 100, "alpha");
  g.add_task(1, Unit::kGc, 60, "alpha");
  g.add_task(2, Unit::kGc, 40, "beta");
  const auto s = run_graph(g, c);
  EXPECT_NEAR(s.phase_busy_ns.at("alpha"), 160.0, 1e-9);
  EXPECT_NEAR(s.phase_busy_ns.at("beta"), 40.0, 1e-9);
  EXPECT_NEAR(s.phase_end_ns.at("alpha"), 100.0, 1e-9);
}

TEST(TaskGraph, DispatchOverheadsCharged) {
  auto c = bare_machine();
  c.gc_task_overhead_ns = 7;
  c.sync_trigger_ns = 3;  // event-driven: +3
  TaskGraph g;
  g.add_task(0, Unit::kGc, 100, "a");
  const auto s = run_graph(g, c);
  EXPECT_NEAR(s.makespan_ns, 110.0, 1e-9);
}

TEST(TaskGraph, ExecutorReuseIsDeterministic) {
  // One persistent Executor replaying the same graph must reproduce every
  // statistic exactly — makespan, both phase maps, and the critical path —
  // and leave the event pool balanced.  This is the machine run loop's
  // steady state (TimestepRunner replays its graph every step).
  const auto c = bare_machine();
  TaskGraph g;
  const int a = g.add_task(0, Unit::kGc, 100, "import");
  const int b = g.add_task(1, Unit::kHtis, 80, "pairs");
  const int d = g.add_task(1, Unit::kGc, 30, "update");
  g.add_message(a, b, 200.0);
  g.add_local_dep(b, d);
  std::vector<int> sinks;
  for (int n = 2; n < 6; ++n) {
    sinks.push_back(g.add_task(n, Unit::kGc, 5, "bcast"));
  }
  g.add_multicast(a, sinks, 64.0);

  sim::EventQueue q;
  noc::Torus t(c.noc, &q);
  Executor ex;
  const ExecStats first = ex.run(g, c, t, q);  // copy before the replay
  const size_t warm_slots = q.arena_slots();
  for (int rep = 0; rep < 3; ++rep) {
    q.reset();
    t.reset_time();
    const ExecStats& again = ex.run(g, c, t, q);
    EXPECT_EQ(first.makespan_ns, again.makespan_ns);
    EXPECT_EQ(first.tasks_executed, again.tasks_executed);
    EXPECT_EQ(first.phase_busy_ns, again.phase_busy_ns);
    EXPECT_EQ(first.phase_end_ns, again.phase_end_ns);
    EXPECT_EQ(first.critical_path_ns, again.critical_path_ns);
    EXPECT_EQ(first.critical_wait_ns, again.critical_wait_ns);
    EXPECT_EQ(first.max_node_busy_ns, again.max_node_busy_ns);
  }
  EXPECT_EQ(q.arena_slots(), warm_slots);
  q.check_arena();
  t.check_quiescent();
}

TEST(TaskGraph, LocalDepAcrossNodesRejected) {
  TaskGraph g;
  const int a = g.add_task(0, Unit::kGc, 1, "a");
  const int b = g.add_task(1, Unit::kGc, 1, "b");
  EXPECT_THROW(g.add_local_dep(a, b), Error);
  EXPECT_NO_THROW(g.add_barrier_dep(a, b));
}

TEST(TaskGraph, EdgesGroupBySourceInInsertionOrder) {
  // finalize() groups the staged edges by source; each task keeps its
  // dependents in the order they were added, and every message edge carries
  // its destination's node.
  TaskGraph g;
  const int a = g.add_task(0, Unit::kGc, 1, "a");
  const int b = g.add_task(0, Unit::kGc, 1, "b");
  const int c = g.add_task(0, Unit::kGc, 1, "c");
  const int d = g.add_task(3, Unit::kGc, 1, "d");
  const int e = g.add_task(5, Unit::kGc, 1, "e");
  g.add_local_dep(a, c);
  g.add_local_dep(b, c);
  g.add_local_dep(a, b);
  g.add_message(b, d, 8.0);
  g.add_message(a, e, 16.0);
  g.add_message(a, d, 32.0);
  g.add_multicast(b, std::vector<int>{e, d}, 64.0);
  g.finalize();
  const TaskGraph::TaskView ta = g.task(a);
  EXPECT_EQ(std::vector<int>(ta.local_dependents.begin(),
                             ta.local_dependents.end()),
            (std::vector<int>{c, b}));
  ASSERT_EQ(ta.sends.size(), 2u);
  EXPECT_EQ(ta.sends[0].dst_task, e);
  EXPECT_EQ(ta.sends[0].dst_node, 5);
  EXPECT_EQ(ta.sends[0].bytes, 16.0);
  EXPECT_EQ(ta.sends[1].dst_task, d);
  EXPECT_EQ(ta.sends[1].dst_node, 3);
  const TaskGraph::TaskView tb = g.task(b);
  EXPECT_EQ(std::vector<int>(tb.mcast_dependents.begin(),
                             tb.mcast_dependents.end()),
            (std::vector<int>{e, d}));
  EXPECT_EQ(std::vector<int>(tb.mcast_nodes.begin(), tb.mcast_nodes.end()),
            (std::vector<int>{5, 3}));
  EXPECT_EQ(tb.mcast_bytes, 64.0);
  EXPECT_EQ(g.task(c).deps, 2);
  EXPECT_EQ(g.task(d).deps, 3);
  EXPECT_TRUE(g.task(c).sends.empty());
  // A finalized graph takes no more tasks or edges.
  EXPECT_THROW(g.add_local_dep(a, c), Error);
  EXPECT_THROW(g.add_task(0, Unit::kGc, 1, "late"), Error);
}

TEST(TaskGraph, ShortStepMasksLongRangeTasks) {
  // a -> mesh (long-range) -> b, and a -> b directly.  The full step runs
  // the chain; the short step drops the mesh task, its edges and its phase.
  const auto c = bare_machine();
  TaskGraph g;
  const int a = g.add_task(0, Unit::kGc, 100, "a");
  const int m = g.add_task(0, Unit::kGc, 50, "mesh", /*long_range=*/true);
  const int far = g.add_task(1, Unit::kGc, 10, "mesh", /*long_range=*/true);
  const int b = g.add_task(0, Unit::kGc, 25, "b");
  g.add_local_dep(a, m);
  g.add_message(m, far, 100.0);
  g.add_local_dep(m, b);
  g.add_local_dep(a, b);
  sim::EventQueue q;
  noc::Torus t(c.noc, &q);
  Executor ex;
  const ExecStats full = ex.run(g, c, t, q);
  EXPECT_EQ(g.replayed_tasks(true), 4);
  EXPECT_EQ(g.replayed_tasks(false), 2);
  // a (100), mesh (50), one hop (10) + 100 B on the wire (100), far (10).
  EXPECT_NEAR(full.makespan_ns, 270.0, 1e-9);
  EXPECT_EQ(full.tasks_executed, 4u);
  EXPECT_EQ(full.noc.messages, 1u);
  EXPECT_EQ(full.phase_busy_ns.count("mesh"), 1u);

  q.reset();
  t.reset_time();
  const ExecStats part = ex.run(g, c, t, q, nullptr, obs::kPidMachine,
                                /*include_long_range=*/false);
  EXPECT_NEAR(part.makespan_ns, 125.0, 1e-9);
  EXPECT_EQ(part.tasks_executed, 2u);
  EXPECT_EQ(part.noc.messages, 0u);
  EXPECT_EQ(part.phase_busy_ns.count("mesh"), 0u);
  EXPECT_EQ(part.phase_end_ns.count("mesh"), 0u);
  EXPECT_EQ(part.critical_path_ns.count("mesh"), 0u);
  EXPECT_EQ(part.phase_busy_ns.size(), 2u);
  // Each mode keeps its own stats; the full step's survive the short one.
  EXPECT_EQ(full.tasks_executed, 4u);
  q.reset();
  t.reset_time();
  EXPECT_EQ(ex.run(g, c, t, q).makespan_ns, full.makespan_ns);
}

TEST(TaskGraph, MessageIntoLongRangeTaskRejected) {
  // The short step drops long-range tasks; a message into one from a task
  // that stays would still cross the torus, so finalize() refuses it.
  TaskGraph g;
  const int a = g.add_task(0, Unit::kGc, 1, "a");
  const int m = g.add_task(1, Unit::kGc, 1, "mesh", /*long_range=*/true);
  g.add_message(a, m, 8.0);
  EXPECT_THROW(g.finalize(), Error);

  TaskGraph h;  // a barrier edge into one is a no-op when masked: allowed
  const int x = h.add_task(0, Unit::kSync, 1, "barrier");
  const int y = h.add_task(1, Unit::kGc, 1, "mesh", /*long_range=*/true);
  h.add_barrier_dep(x, y);
  EXPECT_NO_THROW(h.finalize());
  EXPECT_EQ(h.replayed_tasks(false), 1);
}

TEST(TaskGraph, TaskOnNodeOutsideTorusRejected) {
  // add_task only knows node >= 0; the executor owns the torus, so it must
  // reject node 8 of a 2x2x2 machine up front instead of indexing its
  // per-node bookkeeping out of range.
  const auto c = bare_machine();
  TaskGraph g;
  g.add_task(0, Unit::kGc, 10, "a");
  g.add_task(8, Unit::kGc, 10, "b");
  EXPECT_THROW(run_graph(g, c), Error);
}

}  // namespace
}  // namespace anton::core
