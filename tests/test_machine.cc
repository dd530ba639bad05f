#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "chem/builder.h"
#include "core/machine.h"
#include "md/engine.h"

namespace anton::core {
namespace {

// A small system / small machine so tests stay fast.
System small_system() {
  BuilderOptions o;
  o.total_atoms = 3000;
  o.solute_fraction = 0.1;
  o.seed = 77;
  o.temperature_k = -1;
  return build_solvated_system(o);
}

TEST(Timestep, Deterministic) {
  const System sys = small_system();
  const auto cfg = arch::MachineConfig::anton2(2, 2, 2);
  const Workload w = Workload::build(sys, cfg);
  const StepTiming a = simulate_step(w, cfg, {.include_long_range = true});
  const StepTiming b = simulate_step(w, cfg, {.include_long_range = true});
  EXPECT_DOUBLE_EQ(a.step_ns, b.step_ns);
  EXPECT_EQ(a.exec.tasks_executed, b.exec.tasks_executed);
}

TEST(Timestep, ShortStepFasterThanFull) {
  const System sys = small_system();
  const auto cfg = arch::MachineConfig::anton2(2, 2, 2);
  const Workload w = Workload::build(sys, cfg);
  const StepTiming full = simulate_step(w, cfg, {.include_long_range = true});
  const StepTiming srt = simulate_step(w, cfg, {.include_long_range = false});
  EXPECT_LT(srt.step_ns, full.step_ns);
  EXPECT_EQ(srt.phase_ns("fft"), 0.0);
  EXPECT_GT(full.phase_ns("fft"), 0.0);
}

uint64_t bits(double v) { return std::bit_cast<uint64_t>(v); }

void expect_same_running_stat(const RunningStat& a, const RunningStat& b,
                              const std::string& what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(bits(a.sum()), bits(b.sum())) << what;
  EXPECT_EQ(bits(a.mean()), bits(b.mean())) << what;
  EXPECT_EQ(bits(a.variance()), bits(b.variance())) << what;
  EXPECT_EQ(bits(a.min()), bits(b.min())) << what;
  EXPECT_EQ(bits(a.max()), bits(b.max())) << what;
}

// Every ExecStats field, doubles compared as bits and maps with their key
// sets.
void expect_same_stats(const ExecStats& a, const ExecStats& b,
                       const std::string& what) {
  EXPECT_EQ(bits(a.makespan_ns), bits(b.makespan_ns)) << what;
  EXPECT_EQ(a.tasks_executed, b.tasks_executed) << what;
  EXPECT_EQ(bits(a.critical_wait_ns), bits(b.critical_wait_ns)) << what;
  EXPECT_EQ(bits(a.max_node_busy_ns), bits(b.max_node_busy_ns)) << what;
  EXPECT_EQ(bits(a.mean_node_busy_ns), bits(b.mean_node_busy_ns)) << what;
  EXPECT_EQ(a.phase_busy_ns, b.phase_busy_ns) << what;
  EXPECT_EQ(a.phase_end_ns, b.phase_end_ns) << what;
  EXPECT_EQ(a.critical_path_ns, b.critical_path_ns) << what;
  EXPECT_EQ(a.noc.messages, b.noc.messages) << what;
  EXPECT_EQ(bits(a.noc.total_bytes), bits(b.noc.total_bytes)) << what;
  EXPECT_EQ(bits(a.noc.max_link_busy_ns), bits(b.noc.max_link_busy_ns))
      << what;
  EXPECT_EQ(bits(a.noc.total_link_busy_ns), bits(b.noc.total_link_busy_ns))
      << what;
  expect_same_running_stat(a.noc.latency_ns, b.noc.latency_ns,
                           what + " latency");
  expect_same_running_stat(a.noc.hops, b.noc.hops, what + " hops");
}

TEST(Timestep, MaskedShortStepMatchesShortGraph) {
  // The oracle for the masked short step: one runner's short replay of the
  // full graph equals a replay of the graph built without the long-range
  // chain, in every ExecStats field, on Anton 2, Anton 1 (bulk-synchronous),
  // multicast off and randomized routing, at three machine shapes.
  const System small = small_system();
  const System dhfr = build_benchmark_system(dhfr_spec());
  struct Shape {
    int nx, ny, nz;
    const System* sys;
  };
  const Shape shapes[] = {{2, 2, 2, &small}, {8, 8, 8, &dhfr}, {1, 1, 7, &small}};
  for (const Shape& sh : shapes) {
    std::vector<std::pair<std::string, arch::MachineConfig>> cfgs;
    cfgs.emplace_back("anton2", arch::MachineConfig::anton2(sh.nx, sh.ny, sh.nz));
    cfgs.emplace_back("anton1", arch::MachineConfig::anton1(sh.nx, sh.ny, sh.nz));
    cfgs.emplace_back("unicast", arch::MachineConfig::anton2(sh.nx, sh.ny, sh.nz));
    cfgs.back().second.use_multicast = false;
    cfgs.emplace_back("randomized",
                      arch::MachineConfig::anton2(sh.nx, sh.ny, sh.nz));
    cfgs.back().second.noc.routing = noc::RoutingPolicy::kRandomizedOrder;
    for (const auto& [name, cfg] : cfgs) {
      const std::string what = name + " " + std::to_string(sh.nx) + "x" +
                               std::to_string(sh.ny) + "x" +
                               std::to_string(sh.nz);
      const Workload w = Workload::build(*sh.sys, cfg);
      TimestepRunner masked(w, cfg, {.include_long_range = false});
      masked.run_timestep();

      TaskGraph short_graph = build_step_graph(w, cfg, false);
      sim::EventQueue q;
      noc::Torus torus(cfg.noc, &q);
      const ExecStats separate = execute(short_graph, cfg, torus, q);
      expect_same_stats(masked.exec(), separate, what);
      EXPECT_EQ(masked.graph().replayed_tasks(false), short_graph.num_tasks())
          << what;
    }
  }
}

TEST(Timestep, EventDrivenFasterThanBsp) {
  const System sys = small_system();
  const auto ev = arch::MachineConfig::anton2(2, 2, 2);
  const auto bsp = arch::MachineConfig::anton2_bsp(2, 2, 2);
  const Workload w = Workload::build(sys, ev);
  const double t_ev =
      simulate_step(w, ev, {.include_long_range = true}).step_ns;
  const double t_bsp =
      simulate_step(w, bsp, {.include_long_range = true}).step_ns;
  EXPECT_LT(t_ev, t_bsp);
}

TEST(Timestep, BspRunsBarriers) {
  const System sys = small_system();
  const auto bsp = arch::MachineConfig::anton2_bsp(2, 2, 2);
  const Workload w = Workload::build(sys, bsp);
  const StepTiming t = simulate_step(w, bsp, {.include_long_range = true});
  EXPECT_GT(t.phase_ns("barrier"), 0.0);
  const StepTiming ev = simulate_step(
      w, arch::MachineConfig::anton2(2, 2, 2), {.include_long_range = true});
  EXPECT_EQ(ev.phase_ns("barrier"), 0.0);
}

TEST(Timestep, AllPhasesPresent) {
  const System sys = small_system();
  const auto cfg = arch::MachineConfig::anton2(2, 2, 2);
  const Workload w = Workload::build(sys, cfg);
  const StepTiming t = simulate_step(w, cfg, {.include_long_range = true});
  for (const char* phase :
       {"pos_export", "pair_local", "pair_tile", "bonded", "spread", "fft",
        "interp", "integrate", "constrain", "migrate"}) {
    EXPECT_GT(t.phase_ns(phase), 0.0) << phase;
  }
}

TEST(Timestep, MorePairsTakesLonger) {
  // A denser (larger) system on the same machine must not be faster.
  BuilderOptions small;
  small.total_atoms = 2001;
  small.temperature_k = -1;
  small.seed = 3;
  BuilderOptions big = small;
  big.total_atoms = 6000;
  const auto cfg = arch::MachineConfig::anton2(2, 2, 2);
  const Workload ws = Workload::build(build_solvated_system(small), cfg);
  const Workload wb = Workload::build(build_solvated_system(big), cfg);
  EXPECT_GT(wb.total_pairs(), ws.total_pairs());
  const double ts = simulate_step(ws, cfg, {}).step_ns;
  const double tb = simulate_step(wb, cfg, {}).step_ns;
  EXPECT_GT(tb, ts);
}

TEST(Machine, EstimateProducesReport) {
  const System sys = small_system();
  AntonMachine m(arch::MachineConfig::anton2(2, 2, 2));
  const PerfReport r = m.estimate(sys, 2.5, 2);
  EXPECT_EQ(r.nodes, 8);
  EXPECT_EQ(r.atoms, sys.num_atoms());
  EXPECT_GT(r.full_step.step_ns, 0);
  EXPECT_GT(r.short_step.step_ns, 0);
  EXPECT_GT(r.us_per_day(), 0);
  // avg is between short and full.
  EXPECT_GE(r.avg_step_ns(), r.short_step.step_ns);
  EXPECT_LE(r.avg_step_ns(), r.full_step.step_ns);
}

TEST(Machine, Anton2FasterThanAnton1) {
  const System sys = small_system();
  AntonMachine m2(arch::MachineConfig::anton2(2, 2, 2));
  AntonMachine m1(arch::MachineConfig::anton1(2, 2, 2));
  const double v2 = m2.estimate(sys).us_per_day();
  const double v1 = m1.estimate(sys).us_per_day();
  EXPECT_GT(v2, 2.0 * v1);
}

TEST(Machine, RespaImprovesThroughput) {
  const System sys = small_system();
  AntonMachine m(arch::MachineConfig::anton2(2, 2, 2));
  const double k1 = m.estimate(sys, 2.5, 1).us_per_day();
  const double k3 = m.estimate(sys, 2.5, 3).us_per_day();
  EXPECT_GT(k3, k1);
}

TEST(Machine, FunctionalRunAdvancesPhysicsAndTimes) {
  System sys = build_water_box(216, 88);
  MdParams p;
  p.cutoff = 6.5;
  p.skin = 0.7;
  p.dt_fs = 1.0;
  p.respa_k = 2;
  p.long_range = LongRangeMethod::kMesh;
  const std::vector<Vec3> before(sys.positions().begin(),
                                 sys.positions().end());
  AntonMachine m(arch::MachineConfig::anton2(2, 2, 2));
  const PerfReport r = m.run(sys, p, 6);
  EXPECT_GT(r.us_per_day(), 0);
  // Physics advanced.
  double moved = 0;
  for (size_t i = 0; i < before.size(); ++i) {
    moved += norm(sys.positions()[i] - before[i]);
  }
  EXPECT_GT(moved, 0.0);
}

TEST(Machine, FunctionalRunMatchesGoldEngineTrajectory) {
  // The machine's functional layer *is* the gold engine; a machine run and
  // a plain engine run must produce identical positions.
  MdParams p;
  p.cutoff = 6.5;
  p.skin = 0.7;
  p.dt_fs = 1.0;
  p.respa_k = 1;
  p.long_range = LongRangeMethod::kMesh;

  System sys_machine = build_water_box(216, 89);
  System sys_gold = sys_machine;
  AntonMachine m(arch::MachineConfig::anton2(2, 2, 2));
  m.run(sys_machine, p, 5);

  md::Simulation sim(std::move(sys_gold), p);
  sim.step(5);

  for (int i = 0; i < sys_machine.num_atoms(); ++i) {
    EXPECT_EQ(sys_machine.positions()[static_cast<size_t>(i)],
              sim.system().positions()[static_cast<size_t>(i)]);
  }
}

TEST(Machine, DegenerateConfigRejected) {
  // Every case must end in a clean anton::Error naming the bad field:
  // never a zero or infinite us/day, a faster machine from a negative cost,
  // or a failure deep inside the event queue.
  BuilderOptions o;
  o.total_atoms = 2048;
  o.temperature_k = -1;
  const System sys = build_solvated_system(o);
  using Config = arch::MachineConfig;
  struct Case {
    const char* field;
    void (*mutate)(Config&);
    double dt_fs = 2.5;  // the estimate() arguments under test
    int respa_k = 2;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const Case cases[] = {
      {"ppims_per_node", [](Config& c) { c.ppims_per_node = 0; }},
      {"ppim_clock_ghz", [](Config& c) { c.ppim_clock_ghz = kInf; }},
      {"geometry_cores", [](Config& c) { c.geometry_cores = 0; }},
      {"gc_clock_ghz", [](Config& c) { c.gc_clock_ghz = -1.65; }},
      {"htis_task_overhead_ns",
       [](Config& c) { c.htis_task_overhead_ns = -100; }},
      {"gc_task_overhead_ns", [](Config& c) { c.gc_task_overhead_ns = -1; }},
      {"sync_trigger_ns", [](Config& c) { c.sync_trigger_ns = -4; }},
      {"barrier_base_ns", [](Config& c) { c.barrier_base_ns = -400; }},
      {"noc.link_bandwidth_gbs",
       [](Config& c) { c.noc.link_bandwidth_gbs = 0; }},
      {"noc.hop_latency_ns", [](Config& c) { c.noc.hop_latency_ns = -30; }},
      {"noc.injection_overhead_ns",
       [](Config& c) { c.noc.injection_overhead_ns = -5; }},
      {"noc.packet_overhead_bytes",
       [](Config& c) { c.noc.packet_overhead_bytes = -32; }},
      {"machine_cutoff", [](Config& c) { c.machine_cutoff = 0; }},
      {"machine_cutoff", [](Config& c) { c.machine_cutoff = kNaN; }},
      {"mesh_spacing", [](Config& c) { c.mesh_spacing = -1; }},
      {"spread_support_cells", [](Config& c) { c.spread_support_cells = -1; }},
      {"constraint_iterations",
       [](Config& c) { c.constraint_iterations = -1; }},
      {"dt_fs", [](Config&) {}, 0.0},
      {"dt_fs", [](Config&) {}, -2.5},
      {"dt_fs", [](Config&) {}, kNaN},
      {"dt_fs", [](Config&) {}, kInf},
      {"respa_k", [](Config&) {}, 2.5, 0},
      {"respa_k", [](Config&) {}, 2.5, -1},
  };
  for (const Case& k : cases) {
    Config cfg = Config::anton2(2, 2, 2);
    k.mutate(cfg);
    try {
      const AntonMachine m(cfg);
      const PerfReport r = m.estimate(sys, k.dt_fs, k.respa_k);
      ADD_FAILURE() << k.field << " accepted: " << r.us_per_day()
                    << " us/day";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(k.field), std::string::npos)
          << e.what();
    }
  }
}

TEST(Machine, EstimateOnEdgeGeometries) {
  // Degenerate and lopsided tori: single node, one axis of 2, 7 or 13
  // nodes, and an odd 3x5x7.  Every row times both steps finitely, replays
  // bit for bit, and runs the short step on exactly the full step's tasks
  // minus the long-range ones.  The short step is not asserted to be the
  // faster one: with the mesh tasks gone from the HTIS queue, greedy
  // dispatch can order the remaining work worse (DESIGN.md, "Discrete-event
  // core").
  BuilderOptions o;
  o.total_atoms = 2048;
  o.temperature_k = -1;
  const System sys = build_solvated_system(o);
  const int shapes[][3] = {{1, 1, 1}, {2, 1, 1}, {1, 1, 7},
                           {7, 1, 1}, {1, 1, 13}, {3, 5, 7}};
  for (const char* preset : {"anton2", "anton1"}) {
    for (const auto& sh : shapes) {
      const arch::MachineConfig cfg =
          std::string(preset) == "anton2"
              ? arch::MachineConfig::anton2(sh[0], sh[1], sh[2])
              : arch::MachineConfig::anton1(sh[0], sh[1], sh[2]);
      const std::string what = std::string(preset) + " " +
                               std::to_string(sh[0]) + "x" +
                               std::to_string(sh[1]) + "x" +
                               std::to_string(sh[2]);
      const AntonMachine m(cfg);
      const PerfReport a = m.estimate(sys);
      const PerfReport b = m.estimate(sys);
      for (const double ns : {a.full_step.step_ns, a.short_step.step_ns}) {
        EXPECT_TRUE(std::isfinite(ns) && ns > 0) << what << ": " << ns;
      }
      EXPECT_EQ(bits(a.full_step.step_ns), bits(b.full_step.step_ns)) << what;
      EXPECT_EQ(bits(a.short_step.step_ns), bits(b.short_step.step_ns))
          << what;
      EXPECT_EQ(bits(a.us_per_day()), bits(b.us_per_day())) << what;

      const TaskGraph g = build_step_graph(Workload::build(sys, cfg), cfg, true);
      uint64_t long_range = 0;
      for (int t = 0; t < g.num_tasks(); ++t) {
        long_range += g.task(t).long_range ? 1 : 0;
      }
      EXPECT_GT(long_range, 0u) << what;
      EXPECT_EQ(a.full_step.exec.tasks_executed,
                static_cast<uint64_t>(g.num_tasks()))
          << what;
      EXPECT_EQ(a.short_step.exec.tasks_executed,
                a.full_step.exec.tasks_executed - long_range)
          << what;
    }
  }
}

TEST(Machine, UsPerDayArithmetic) {
  PerfReport r;
  r.dt_fs = 2.5;
  r.respa_k = 1;
  r.full_step.step_ns = 2500.0;  // 2.5 us per step
  r.short_step.step_ns = 2500.0;
  // 2.5 fs per 2.5 us -> 1e-9 ratio -> 86400 s/day * 1e-9 = 86.4 us/day.
  EXPECT_NEAR(r.us_per_day(), 86.4, 1e-9);
}

}  // namespace
}  // namespace anton::core
