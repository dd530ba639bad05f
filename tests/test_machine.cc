#include <gtest/gtest.h>

#include <limits>
#include <string>

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
    double dt_fs = 2.5;  // the one estimate() argument under test
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
  };
  for (const Case& k : cases) {
    Config cfg = Config::anton2(2, 2, 2);
    k.mutate(cfg);
    try {
      const AntonMachine m(cfg);
      const PerfReport r = m.estimate(sys, k.dt_fs);
      ADD_FAILURE() << k.field << " accepted: " << r.us_per_day()
                    << " us/day";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(k.field), std::string::npos)
          << e.what();
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
