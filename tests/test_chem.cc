#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "chem/builder.h"
#include "chem/forcefield.h"
#include "chem/system.h"
#include "chem/topology.h"
#include "common/units.h"

namespace anton {
namespace {

TEST(ForceField, CombinationRules) {
  const ForceField ff = ForceField::standard();
  const auto ow = ff.find_type("OW");
  const auto cb = ff.find_type("CB");
  const LjPair p = ff.lj(ow, cb);
  EXPECT_NEAR(p.sigma, 0.5 * (3.1507 + 3.9000), 1e-12);
  EXPECT_NEAR(p.eps, std::sqrt(0.1521 * 0.0860), 1e-12);
  // Symmetric.
  const LjPair q = ff.lj(cb, ow);
  EXPECT_DOUBLE_EQ(p.sigma, q.sigma);
  EXPECT_DOUBLE_EQ(p.eps, q.eps);
}

TEST(ForceField, FindTypeThrowsOnUnknown) {
  const ForceField ff = ForceField::standard();
  EXPECT_THROW(ff.find_type("XX"), Error);
}

TEST(Topology, LinearChainExclusions) {
  // 5-bead chain 0-1-2-3-4: 1-2 and 1-3 neighbours excluded, 1-4 scaled.
  ForceField ff = ForceField::standard();
  Topology top(ff);
  for (int i = 0; i < 5; ++i) top.add_atom(ForceField::Std::kCB, 0.0);
  for (int i = 0; i < 4; ++i) top.add_bond({i, i + 1, 300.0, 1.5});
  top.finalize();

  EXPECT_TRUE(top.excluded(0, 1));   // 1-2
  EXPECT_TRUE(top.excluded(0, 2));   // 1-3
  EXPECT_TRUE(top.excluded(0, 3));   // 1-4 (excluded from plain loop)
  EXPECT_FALSE(top.excluded(0, 4));  // 1-5 fully interacting
  EXPECT_TRUE(top.excluded(2, 1));   // order-independent

  ASSERT_EQ(top.pairs14().size(), 2u);  // (0,3) and (1,4)
  EXPECT_EQ(top.pairs14()[0].i, 0);
  EXPECT_EQ(top.pairs14()[0].j, 3);
}

TEST(Topology, ConstraintsActAsBondsForExclusions) {
  ForceField ff = ForceField::standard();
  Topology top(ff);
  for (int i = 0; i < 3; ++i) top.add_atom(ForceField::Std::kOW, 0.0);
  top.add_constraint({0, 1, 1.0});
  top.add_constraint({0, 2, 1.0});
  top.finalize();
  EXPECT_TRUE(top.excluded(0, 1));
  EXPECT_TRUE(top.excluded(1, 2));  // 1-3 via the shared oxygen
}

TEST(Topology, ValidationCatchesBadIndices) {
  ForceField ff = ForceField::standard();
  Topology top(ff);
  top.add_atom(ForceField::Std::kCB, 0.0);
  EXPECT_THROW(top.add_bond({0, 5, 300.0, 1.5}), Error);
  EXPECT_THROW(top.add_bond({0, 0, 300.0, 1.5}), Error);
}

TEST(Topology, RejectsBadConstraints) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const struct {
    const char* name;
    Constraint c;
  } rows[] = {
      {"infinite length", {0, 1, inf}},
      {"NaN length", {0, 1, nan}},
      {"self constraint", {0, 0, 1.0}},
      {"zero length", {0, 1, 0.0}},
      {"atom out of range", {0, 2, 1.0}},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(row.name);
    ForceField ff = ForceField::standard();
    Topology top(ff);
    top.add_atom(ForceField::Std::kCB, 0.0);
    top.add_atom(ForceField::Std::kCB, 0.0);
    EXPECT_THROW(top.add_constraint(row.c), Error);
    EXPECT_TRUE(top.constraints().empty());
  }
}

TEST(Topology, DegreesOfFreedom) {
  ForceField ff = ForceField::standard();
  Topology top(ff);
  for (int i = 0; i < 3; ++i) top.add_atom(ForceField::Std::kOW, 0.0);
  top.add_constraint({0, 1, 1.0});
  top.finalize();
  EXPECT_EQ(top.degrees_of_freedom(), 9 - 1);
}

TEST(WaterBox, ExactCountsAndGeometry) {
  const System sys = build_water_box(64, 1);
  EXPECT_EQ(sys.num_atoms(), 192);
  const Topology& top = sys.topology();
  EXPECT_EQ(top.waters().size(), 64u);
  EXPECT_EQ(top.constraints().size(), 192u);  // 3 per water
  EXPECT_EQ(top.num_molecules(), 64);

  // Rigid geometry: O-H = 0.9572 Å on every water, right out of the builder.
  const auto pos = sys.positions();
  for (const auto& w : top.waters()) {
    const double oh1 = sys.box().distance(pos[static_cast<size_t>(w.o)],
                                          pos[static_cast<size_t>(w.h1)]);
    EXPECT_NEAR(oh1, 0.9572, 1e-9);
    const double hh = sys.box().distance(pos[static_cast<size_t>(w.h1)],
                                         pos[static_cast<size_t>(w.h2)]);
    EXPECT_NEAR(hh, 2 * 0.9572 * std::sin(104.52 * M_PI / 360.0), 1e-9);
  }
}

TEST(WaterBox, DensityMatchesLiquidWater) {
  const System sys = build_water_box(512, 2);
  const double atoms_per_a3 = sys.num_atoms() / sys.box().volume();
  EXPECT_NEAR(atoms_per_a3, units::kWaterAtomsPerA3, 1e-6);
}

TEST(WaterBox, Neutral) {
  const System sys = build_water_box(100, 3);
  EXPECT_NEAR(sys.topology().total_charge(), 0.0, 1e-9);
}

TEST(SolvatedSystem, ExactAtomCount) {
  BuilderOptions o;
  o.total_atoms = 5000;
  o.solute_fraction = 0.1;
  o.temperature_k = -1;  // skip velocity assignment for speed
  const System sys = build_solvated_system(o);
  EXPECT_EQ(sys.num_atoms(), 5000);
  EXPECT_NEAR(sys.topology().total_charge(), 0.0, 1e-9);
}

TEST(SolvatedSystem, HasAllBondedTermTypes) {
  BuilderOptions o;
  o.total_atoms = 3000;
  o.solute_fraction = 0.15;
  o.temperature_k = -1;
  const System sys = build_solvated_system(o);
  const Topology& top = sys.topology();
  EXPECT_GT(top.bonds().size(), 0u);
  EXPECT_GT(top.angles().size(), 0u);
  EXPECT_GT(top.dihedrals().size(), 0u);
  EXPECT_GT(top.pairs14().size(), 0u);
  EXPECT_GT(top.waters().size(), 0u);
}

TEST(SolvatedSystem, NoSevereOverlaps) {
  BuilderOptions o;
  o.total_atoms = 4000;
  o.solute_fraction = 0.1;
  o.temperature_k = -1;
  const System sys = build_solvated_system(o);
  const auto pos = sys.positions();
  // Spot check: water oxygens should not sit on top of each other.  Full
  // O(N²) on 4000 atoms is fine in a test.
  const Topology& top = sys.topology();
  int close = 0;
  for (const auto& wa : top.waters()) {
    for (const auto& wb : top.waters()) {
      if (wa.o >= wb.o) continue;
      if (sys.box().distance2(pos[static_cast<size_t>(wa.o)],
                              pos[static_cast<size_t>(wb.o)]) < 2.0 * 2.0) {
        ++close;
      }
    }
  }
  EXPECT_EQ(close, 0);
}

TEST(SolvatedSystem, DhfrSpecMatchesPaperCount) {
  const BenchmarkSpec spec = dhfr_spec();
  EXPECT_EQ(spec.total_atoms, 23558);  // the abstract's standard benchmark
}

TEST(System, VelocityAssignmentHitsTemperature) {
  System sys = build_water_box(216, 4, -1);
  sys.assign_velocities(300.0, 99);
  EXPECT_NEAR(sys.temperature(), 300.0, 1e-6);
  const Vec3 p = sys.center_of_mass_velocity();
  EXPECT_NEAR(norm(p), 0.0, 1e-9);
}

TEST(System, VelocityAssignmentDeterministic) {
  System a = build_water_box(64, 5, -1);
  System b = build_water_box(64, 5, -1);
  a.assign_velocities(300.0, 7);
  b.assign_velocities(300.0, 7);
  for (int i = 0; i < a.num_atoms(); ++i) {
    EXPECT_EQ(a.velocities()[static_cast<size_t>(i)],
              b.velocities()[static_cast<size_t>(i)]);
  }
}

TEST(System, KineticEnergyMatchesEquipartition) {
  System sys = build_water_box(216, 6, -1);
  sys.assign_velocities(300.0, 1);
  const double expected =
      0.5 * sys.topology().degrees_of_freedom() * units::kBoltzmann * 300.0;
  EXPECT_NEAR(sys.kinetic_energy(), expected, 1e-6);
}

TEST(TestMolecule, HasBondedTermsAndIsSmall) {
  const System sys = build_test_molecule(1);
  EXPECT_GE(sys.num_atoms(), 4);
  EXPECT_GT(sys.topology().bonds().size(), 0u);
  EXPECT_GT(sys.topology().dihedrals().size(), 0u);
}

TEST(BenchmarkSuite, OrderedBySize) {
  const auto suite = benchmark_suite();
  ASSERT_GE(suite.size(), 3u);
  for (size_t i = 1; i < suite.size(); ++i) {
    EXPECT_GT(suite[i].total_atoms, suite[i - 1].total_atoms);
  }
}

}  // namespace
}  // namespace anton
