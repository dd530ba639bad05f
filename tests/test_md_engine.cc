#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "chem/builder.h"
#include "common/error.h"
#include "md/engine.h"
#include "md/minimize.h"

namespace anton::md {
namespace {

MdParams fast_params() {
  MdParams p;
  p.cutoff = 6.5;
  p.skin = 0.7;
  p.dt_fs = 1.0;
  p.respa_k = 1;
  p.long_range = LongRangeMethod::kMesh;
  p.mesh_spacing = 1.1;
  p.gse_sigma = 1.2;
  p.ewald_alpha = 0.35;
  return p;
}

TEST(Engine, NveEnergyConservationWaterBox) {
  System sys = build_water_box(125, 101);
  MdParams p = fast_params();
  Simulation sim(std::move(sys), p);
  sim.step(50);  // relax the synthetic lattice before measuring
  const double e0 = sim.energies().total();
  sim.step(200);
  const double e1 = sim.energies().total();
  // 200 fs of NVE: drift should be a small fraction of kinetic energy.
  const double ke = sim.system().kinetic_energy();
  EXPECT_LT(std::abs(e1 - e0), 0.01 * ke)
      << "E0=" << e0 << " E1=" << e1 << " KE=" << ke;
}

TEST(Engine, NveConservationWithSolute) {
  BuilderOptions o;
  o.total_atoms = 1500;
  o.solute_fraction = 0.12;
  o.seed = 102;
  System sys = build_solvated_system(o);
  MdParams p = fast_params();
  minimize_energy(sys, p, 300);  // relieve builder clashes
  sys.assign_velocities(300.0, o.seed);
  Simulation sim(std::move(sys), p);
  sim.step(50);  // relax the synthetic packing first
  const double e0 = sim.energies().total();
  sim.step(150);
  const double e1 = sim.energies().total();
  const double ke = sim.system().kinetic_energy();
  EXPECT_LT(std::abs(e1 - e0), 0.02 * ke);
}

TEST(Engine, ConstraintsHoldThroughDynamics) {
  System sys = build_water_box(125, 103);
  Simulation sim(std::move(sys), fast_params());
  sim.step(100);
  EXPECT_LT(max_constraint_violation(sim.system().box(),
                                     sim.system().topology(),
                                     sim.system().positions()),
            1e-6);
}

TEST(Engine, Deterministic) {
  auto run = [] {
    System sys = build_water_box(125, 104);
    Simulation sim(std::move(sys), fast_params());
    sim.step(25);
    return std::vector<Vec3>(sim.system().positions().begin(),
                             sim.system().positions().end());
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);  // bitwise
  }
}

TEST(Engine, RespaDriftBounded) {
  System sys = build_water_box(125, 105);
  MdParams p = fast_params();
  p.respa_k = 2;
  Simulation sim(std::move(sys), p);
  sim.step(50);
  const double e0 = sim.energies().total();
  sim.step(200);
  const double e1 = sim.energies().total();
  const double ke = sim.system().kinetic_energy();
  EXPECT_LT(std::abs(e1 - e0), 0.03 * ke);
}

TEST(Engine, RespaMatchesSingleStepOnShortHorizon) {
  // Over a handful of steps the RESPA trajectory should stay close to the
  // every-step reference.
  auto run = [](int k) {
    System sys = build_water_box(125, 106);
    MdParams p = fast_params();
    p.respa_k = k;
    Simulation sim(std::move(sys), p);
    sim.step(8);
    return std::vector<Vec3>(sim.system().positions().begin(),
                             sim.system().positions().end());
  };
  const auto ref = run(1);
  const auto respa = run(2);
  double max_dev = 0;
  for (size_t i = 0; i < ref.size(); ++i) {
    max_dev = std::max(max_dev, norm(ref[i] - respa[i]));
  }
  EXPECT_LT(max_dev, 5e-3);  // Å over 8 fs
}

TEST(Engine, LangevinThermostatsToTarget) {
  System sys = build_water_box(125, 107);
  sys.assign_velocities(100.0, 1);  // start cold
  MdParams p = fast_params();
  p.thermostat = ThermostatKind::kLangevin;
  p.temperature_k = 300.0;
  p.langevin_gamma_per_fs = 0.05;
  Simulation sim(std::move(sys), p);
  sim.step(400);
  // Average over a window to beat fluctuations.
  double t_acc = 0;
  const int window = 50;
  for (int i = 0; i < window; ++i) {
    sim.step(2);
    t_acc += sim.system().temperature();
  }
  const double t_mean = t_acc / window;
  EXPECT_GT(t_mean, 240.0);
  EXPECT_LT(t_mean, 360.0);
}

TEST(Engine, KNoneRunsWithoutEwald) {
  System sys = build_water_box(125, 108);
  MdParams p = fast_params();
  p.long_range = LongRangeMethod::kNone;
  Simulation sim(std::move(sys), p);
  sim.step(20);
  const auto e = sim.energies();
  EXPECT_EQ(e.coulomb_kspace, 0.0);
  EXPECT_EQ(e.coulomb_self, 0.0);
  EXPECT_NE(e.coulomb_real, 0.0);
}

TEST(Engine, DirectAndMeshEnergiesAgree) {
  System sys_a = build_water_box(125, 109);
  System sys_b = sys_a;
  MdParams pa = fast_params();
  pa.long_range = LongRangeMethod::kDirect;
  pa.kspace_nmax = 10;
  MdParams pb = fast_params();
  pb.mesh_spacing = 0.8;
  Simulation sa(std::move(sys_a), pa);
  Simulation sb(std::move(sys_b), pb);
  const double ea = sa.energies().potential();
  const double eb = sb.energies().potential();
  EXPECT_NEAR(ea, eb, std::abs(ea) * 1e-3 + 0.5);
}

TEST(Engine, NeighborListRebuildsDuringRun) {
  System sys = build_water_box(125, 110);
  MdParams p = fast_params();
  p.thermostat = ThermostatKind::kLangevin;
  p.temperature_k = 300.0;
  p.langevin_gamma_per_fs = 0.02;
  Simulation sim(std::move(sys), p);
  sim.step(300);
  EXPECT_GT(sim.forces().nlist_builds(), 1);
}

TEST(Engine, StepCountAdvances) {
  System sys = build_water_box(125, 111);
  Simulation sim(std::move(sys), fast_params());
  EXPECT_EQ(sim.step_count(), 0);
  sim.step(5);
  EXPECT_EQ(sim.step_count(), 5);
}

TEST(Engine, EnergyReportTermsPopulated) {
  BuilderOptions o;
  o.total_atoms = 900;
  o.solute_fraction = 0.2;
  o.seed = 112;
  System sys = build_solvated_system(o);
  minimize_energy(sys, fast_params(), 200);
  sys.assign_velocities(300.0, o.seed);
  Simulation sim(std::move(sys), fast_params());
  const auto e = sim.energies();
  EXPECT_NE(e.bond, 0.0);
  EXPECT_NE(e.angle, 0.0);
  EXPECT_NE(e.dihedral, 0.0);
  EXPECT_NE(e.lj, 0.0);
  EXPECT_NE(e.coulomb_real, 0.0);
  EXPECT_NE(e.coulomb_kspace, 0.0);
  EXPECT_LT(e.coulomb_self, 0.0);
  EXPECT_GT(e.kinetic, 0.0);
}

TEST(Engine, ThreadedMatchesSerialTrajectory) {
  auto run = [](ThreadPool* pool) {
    System sys = build_water_box(216, 113);
    Simulation sim(std::move(sys), fast_params(), pool);
    sim.step(10);
    return std::vector<Vec3>(sim.system().positions().begin(),
                             sim.system().positions().end());
  };
  ThreadPool pool(4);
  const auto serial = run(nullptr);
  const auto parallel = run(&pool);
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_NEAR(serial[i].x, parallel[i].x, 1e-8);
    EXPECT_NEAR(serial[i].y, parallel[i].y, 1e-8);
    EXPECT_NEAR(serial[i].z, parallel[i].z, 1e-8);
  }
}

// NVE drift stays bounded when the long-range path runs threaded with
// deterministic fixed-point reductions — the quantized mesh densities must
// not inject energy.
TEST(Engine, NveConservationThreadedDeterministic) {
  ThreadPool pool(4);
  System sys = build_water_box(125, 101);
  MdParams p = fast_params();
  p.deterministic_forces = true;
  Simulation sim(std::move(sys), p, &pool);
  sim.step(50);
  const double e0 = sim.energies().total();
  sim.step(200);
  const double e1 = sim.energies().total();
  const double ke = sim.system().kinetic_energy();
  EXPECT_LT(std::abs(e1 - e0), 0.01 * ke)
      << "E0=" << e0 << " E1=" << e1 << " KE=" << ke;
}

TEST(Simulation, DegenerateParamsRejected) {
  // Every case must end in a clean anton::Error naming the bad field at
  // construction: never a division by zero in the barostat cadence,
  // velocities driven to infinity until RATTLE fails, or a thermostat the
  // caller did not select.
  const System water = build_water_box(125, 112);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    const char* field;
    void (*mutate)(MdParams&);
  };
  const Case cases[] = {
      {"respa_k", [](MdParams& p) { p.respa_k = 0; }},
      {"dt_fs", [](MdParams& p) { p.dt_fs = 0; }},
      {"dt_fs", [](MdParams& p) { p.dt_fs = kInf; }},
      {"barostat_interval",
       [](MdParams& p) {
         p.barostat = BarostatKind::kBerendsen;
         p.barostat_interval = 0;
       }},
      {"barostat_tau_fs",
       [](MdParams& p) {
         p.barostat = BarostatKind::kBerendsen;
         p.barostat_tau_fs = 0;
       }},
      {"barostat_tau_fs",
       [](MdParams& p) {
         p.barostat = BarostatKind::kBerendsen;
         p.barostat_tau_fs = kNaN;
       }},
      {"thermostat_tau_fs",
       [](MdParams& p) {
         p.thermostat = ThermostatKind::kBerendsen;
         p.thermostat_tau_fs = 0;
       }},
      {"thermostat_tau_fs",
       [](MdParams& p) {
         p.thermostat = ThermostatKind::kVelocityRescale;
         p.thermostat_tau_fs = -100;
       }},
      {"thermostat_tau_fs",
       [](MdParams& p) {
         p.thermostat = ThermostatKind::kBerendsen;
         p.thermostat_tau_fs = kInf;
       }},
      {"langevin_gamma_per_fs",
       [](MdParams& p) {
         p.thermostat = ThermostatKind::kLangevin;
         p.langevin_gamma_per_fs = -0.05;
       }},
      {"langevin_gamma_per_fs",
       [](MdParams& p) {
         p.thermostat = ThermostatKind::kLangevin;
         p.langevin_gamma_per_fs = kNaN;
       }},
      {"langevin_gamma_per_fs",
       [](MdParams& p) { p.langevin_gamma_per_fs = 0.05; }},  // kNone
  };
  for (const Case& k : cases) {
    MdParams p = fast_params();
    p.long_range = LongRangeMethod::kNone;
    k.mutate(p);
    try {
      const Simulation sim(water, p);
      ADD_FAILURE() << k.field << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(k.field), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace anton::md
