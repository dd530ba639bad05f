#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "chem/builder.h"
#include "common/rng.h"
#include "md/analysis.h"
#include "md/engine.h"
#include "test_support.h"

namespace anton::md {
namespace {

TEST(Rdf, IdealGasIsFlat) {
  // Random uniform points: g(r) ~ 1 everywhere (away from tiny-r noise).
  Box box = Box::cube(20.0);
  ForceField ff = ForceField::standard();
  auto top = std::make_shared<Topology>(ff);
  std::vector<Vec3> pos;
  Rng rng(61, 0);
  std::vector<int> idx;
  for (int i = 0; i < 4000; ++i) {
    top->add_atom(ForceField::Std::kION, 0.0);
    pos.push_back(rng.uniform_in_box(box.lengths()));
    idx.push_back(i);
  }
  top->finalize();
  System sys(std::move(top), box, std::move(pos));

  RdfAccumulator rdf(8.0, 40);
  rdf.add_frame(sys, idx, idx);
  const auto g = rdf.g_of_r();
  const auto r = rdf.r_centers();
  for (size_t b = 0; b < g.size(); ++b) {
    if (r[b] < 2.0) continue;  // small shells are noisy
    EXPECT_NEAR(g[b], 1.0, 0.15) << "r=" << r[b];
  }
}

TEST(Rdf, LatticeHasPeakAtSpacing) {
  // Simple cubic lattice, spacing 3: sharp peak at r = 3.
  Box box = Box::cube(30.0);
  ForceField ff = ForceField::standard();
  auto top = std::make_shared<Topology>(ff);
  std::vector<Vec3> pos;
  std::vector<int> idx;
  int i = 0;
  for (int x = 0; x < 10; ++x) {
    for (int y = 0; y < 10; ++y) {
      for (int z = 0; z < 10; ++z) {
        top->add_atom(ForceField::Std::kION, 0.0);
        pos.push_back({3.0 * x, 3.0 * y, 3.0 * z});
        idx.push_back(i++);
      }
    }
  }
  top->finalize();
  System sys(std::move(top), box, std::move(pos));

  RdfAccumulator rdf(6.0, 60);
  rdf.add_frame(sys, idx, idx);
  EXPECT_NEAR(rdf.first_peak_r(1.0), 3.0, 0.1);
}

TEST(Rdf, WaterOxygenStructureAfterEquilibration) {
  // Liquid water's O-O RDF first peak sits near 2.8 Å.  This is a sensitive
  // end-to-end check: force field + Ewald + constraints + integrator must
  // all cooperate to produce liquid structure.
  System sys = build_water_box(216, 62);
  MdParams p;
  p.cutoff = 6.5;
  p.skin = 0.7;
  p.dt_fs = 1.5;
  p.respa_k = 2;
  p.long_range = LongRangeMethod::kMesh;
  p.thermostat = ThermostatKind::kLangevin;
  p.temperature_k = 300.0;
  p.langevin_gamma_per_fs = 0.05;
  Simulation sim(std::move(sys), p);
  sim.step(400);  // equilibrate off the lattice

  const auto oxygens =
      atoms_of_type(sim.system().topology(), ForceField::Std::kOW);
  ASSERT_EQ(oxygens.size(), 216u);
  RdfAccumulator rdf(6.5, 65);
  for (int frame = 0; frame < 10; ++frame) {
    sim.step(20);
    rdf.add_frame(sim.system(), oxygens, oxygens);
  }
  const double peak = rdf.first_peak_r(2.0);
  EXPECT_GT(peak, 2.5);
  EXPECT_LT(peak, 3.3);
  // The peak should be pronounced (liquid, not gas).
  const auto g = rdf.g_of_r();
  const auto r = rdf.r_centers();
  double g_peak = 0;
  for (size_t b = 0; b < g.size(); ++b) {
    if (std::abs(r[b] - peak) < 0.2) g_peak = std::max(g_peak, g[b]);
  }
  EXPECT_GT(g_peak, 1.5);
}

TEST(Rdf, CrossRdfBetweenDifferentGroups) {
  const System sys = build_water_box(216, 63, -1);
  const auto o = atoms_of_type(sys.topology(), ForceField::Std::kOW);
  const auto h = atoms_of_type(sys.topology(), ForceField::Std::kHW);
  RdfAccumulator rdf(5.0, 50);
  rdf.add_frame(sys, o, h);
  // Intramolecular O-H at 0.9572 Å dominates.
  EXPECT_NEAR(rdf.first_peak_r(0.5), 0.9572, 0.1);
}

// FNV-1a over the IEEE bits of g(r).
uint64_t bits_digest(const std::vector<double>& values) {
  test_support::Digest d;
  for (double v : values) d.add_bits(v);
  return d.value();
}

TEST(Rdf, GoldenCounts) {
  // g(r) bit for bit on a self RDF, a cross RDF, one over every atom, and
  // a range that leaves under 3 cells per axis in the 28 Å box (the
  // all-pairs fallback).  The constants come from the RDF that walked a
  // cell grid of its own, before it moved onto the pair pass.
  const System sys = build_water_box(729, 73, -1);
  const auto o = atoms_of_type(sys.topology(), ForceField::Std::kOW);
  const auto h = atoms_of_type(sys.topology(), ForceField::Std::kHW);
  std::vector<int> all(static_cast<size_t>(sys.num_atoms()));
  std::iota(all.begin(), all.end(), 0);
  struct Row {
    const char* name;
    const std::vector<int>* a;
    const std::vector<int>* b;
    double r_max;
    int bins;
    uint64_t golden;
  };
  const Row rows[] = {
      {"O-O self", &o, &o, 6.5, 65, 0xE34BED81C8CCCF22ULL},
      {"O-H cross", &o, &h, 5.0, 50, 0xA0D9C7DF27B1406AULL},
      {"all atoms", &all, &all, 6.0, 60, 0x484877FBAA1B7918ULL},
      {"O-O fallback", &o, &o, 10.0, 100, 0xF8AFFADEF7A1F3F8ULL},
  };
  for (const Row& row : rows) {
    RdfAccumulator rdf(row.r_max, row.bins);
    rdf.add_frame(sys, *row.a, *row.b);
    EXPECT_EQ(bits_digest(rdf.g_of_r()), row.golden)
        << row.name << ": 0x" << std::hex << bits_digest(rdf.g_of_r());
  }
}

TEST(Rdf, RejectsRangeBeyondMinImage) {
  const System sys = build_water_box(27, 64, -1);
  const auto o = atoms_of_type(sys.topology(), ForceField::Std::kOW);
  RdfAccumulator rdf(50.0, 10);
  EXPECT_THROW(rdf.add_frame(sys, o, o), Error);
}

TEST(AtomsOfType, SelectsCorrectly) {
  const System sys = build_water_box(10, 65, -1);
  const auto o = atoms_of_type(sys.topology(), ForceField::Std::kOW);
  const auto h = atoms_of_type(sys.topology(), ForceField::Std::kHW);
  EXPECT_EQ(o.size(), 10u);
  EXPECT_EQ(h.size(), 20u);
}

TEST(Msd, ZeroForIdenticalFrames) {
  const System sys = build_water_box(27, 66, -1);
  EXPECT_DOUBLE_EQ(
      mean_squared_displacement(sys.positions(), sys.positions()), 0.0);
}

TEST(Msd, GrowsUnderDynamics) {
  System sys = build_water_box(125, 67);
  const std::vector<Vec3> ref(sys.positions().begin(), sys.positions().end());
  MdParams p;
  p.cutoff = 6.5;
  p.skin = 0.7;
  p.dt_fs = 1.0;
  p.long_range = LongRangeMethod::kMesh;
  Simulation sim(std::move(sys), p);
  sim.step(30);
  const double m1 = mean_squared_displacement(ref, sim.system().positions());
  sim.step(60);
  const double m2 = mean_squared_displacement(ref, sim.system().positions());
  EXPECT_GT(m1, 0.0);
  EXPECT_GT(m2, m1);
}

}  // namespace
}  // namespace anton::md
