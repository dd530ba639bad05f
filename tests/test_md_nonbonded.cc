#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "chem/builder.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "common/units.h"
#include "md/analysis.h"
#include "md/forces.h"
#include "md/neighborlist.h"
#include "md/nonbonded.h"
#include "test_support.h"

namespace anton::md {
namespace {

using test_support::Digest;
using test_support::expect_error;

// Two neutral LJ particles in a big box.
struct LjPairFixture {
  Box box = Box::cube(40.0);
  ForceField ff = ForceField::standard();
  std::shared_ptr<Topology> top;

  LjPairFixture() {
    top = std::make_shared<Topology>(ff);
    top->add_atom(ForceField::Std::kCB, 0.0);
    top->add_atom(ForceField::Std::kCB, 0.0);
    top->finalize();
  }
};

// A copy of `sys` with every atom moved by one or two box lengths per axis,
// in a pattern that varies with the atom index: the same configuration,
// given unwrapped, as md::Simulation holds it after atoms cross the box.
System unwrapped_copy(const System& sys) {
  System out = sys;
  const Vec3& l = sys.box().lengths();
  auto pos = out.positions();
  for (size_t i = 0; i < pos.size(); ++i) {
    pos[i].x += (i % 2 == 0 ? 1.0 : -2.0) * l.x;
    pos[i].y += (i % 3 == 0 ? -1.0 : 2.0) * l.y;
    pos[i].z += (i % 5 < 2 ? 2.0 : -1.0) * l.z;
  }
  return out;
}

TEST(NeighborList, MatchesBruteForce) {
  // The cell walk on wrapped and on unwrapped positions, and a list radius
  // (10 Å in a 21.7 Å box) that leaves under 3 cells per axis: the
  // all-pairs fallback.
  const System sys = build_water_box(343, 17, -1);
  const System unwrapped = unwrapped_copy(sys);
  const Topology& top = sys.topology();
  struct Row {
    const char* name;
    const System* sys;
    double cutoff;
  };
  for (const Row& row : {Row{"cell walk", &sys, 6.0},
                         Row{"unwrapped", &unwrapped, 6.0},
                         Row{"fallback", &sys, 9.0}}) {
    SCOPED_TRACE(row.name);
    NeighborList nlist(row.cutoff, 1.0);
    nlist.build(row.sys->box(), row.sys->positions(), top);

    // Brute force reference.
    std::set<std::pair<int, int>> ref;
    const auto pos = row.sys->positions();
    const double rl2 = nlist.list_radius() * nlist.list_radius();
    for (int i = 0; i < sys.num_atoms(); ++i) {
      for (int j = i + 1; j < sys.num_atoms(); ++j) {
        if (top.excluded(i, j)) continue;
        if (norm2(sys.box().min_image(pos[static_cast<size_t>(i)],
                                      pos[static_cast<size_t>(j)])) < rl2) {
          ref.insert({i, j});
        }
      }
    }

    std::set<std::pair<int, int>> got;
    for (int i = 0; i < sys.num_atoms(); ++i) {
      for (int j : nlist.neighbors_of(i)) {
        EXPECT_GT(j, i);
        EXPECT_TRUE(got.insert({i, j}).second) << "duplicate pair";
      }
    }
    EXPECT_EQ(got, ref);
  }
}

// starts() and then every row, in order.
uint64_t csr_digest(const NeighborList& nlist) {
  Digest d;
  for (int64_t s : nlist.starts()) d.add(static_cast<uint64_t>(s));
  for (int i = 0; i < nlist.num_atoms(); ++i) {
    for (int j : nlist.neighbors_of(i)) d.add(static_cast<uint64_t>(j));
  }
  return d.value();
}

TEST(NeighborList, GoldenCsrDigest) {
  // Pins the CSR bit for bit, serially and at every pool size, on the cell
  // walk and on the all-pairs fallback (a 10 Å list radius in the 28 Å
  // water box leaves 2 cells per axis), with DHFR wrapped and unwrapped.
  // The row sort takes one 8-bit digit up to 256 atoms, two up to 65,536
  // and three beyond: the 192-atom box (the fallback again) and the
  // 66,000-atom box pin the one- and three-digit sorts.  The first five
  // constants come from the build that walked the cells itself, before
  // the list moved onto the pair pass; the last two from the build that
  // sorted each row with std::sort.
  const System water = build_water_box(729, 71, -1);
  const System dhfr = build_benchmark_system(dhfr_spec(), 2014);
  const System dhfr_unwrapped = unwrapped_copy(dhfr);
  const System water192 = build_water_box(64, 73, -1);
  const System water66k = build_water_box(22000, 74, -1);
  struct Row {
    const char* name;
    const System* sys;
    double cutoff, skin;
    uint64_t golden;
  };
  const Row rows[] = {
      {"water 729 6.5/0.7", &water, 6.5, 0.7, 0x58F919083EB2304DULL},
      {"water 729 9/1 (fallback)", &water, 9.0, 1.0, 0x62DE9FEDAD11B47AULL},
      {"dhfr 9/1", &dhfr, 9.0, 1.0, 0x31B67EF1867A4708ULL},
      {"dhfr unwrapped 9/1", &dhfr_unwrapped, 9.0, 1.0,
       0x31B67EF1867A4708ULL},
      {"dhfr 12/1", &dhfr, 12.0, 1.0, 0xB3C7FF4C7BA9D10CULL},
      {"water 192 5/1 (fallback)", &water192, 5.0, 1.0,
       0xE3C04302D9DF9A58ULL},
      {"water 66000 6.5/0.7", &water66k, 6.5, 0.7, 0x23E522D190BCC14FULL},
  };
  for (const Row& row : rows) {
    for (unsigned threads : {0u, 2u, 3u, 4u, 7u}) {
      std::unique_ptr<ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
      NeighborList nlist(row.cutoff, row.skin);
      nlist.build(row.sys->box(), row.sys->positions(),
                  row.sys->topology(), pool.get());
      EXPECT_EQ(csr_digest(nlist), row.golden)
          << row.name << ", " << threads << " threads: 0x" << std::hex
          << csr_digest(nlist);
    }
  }
}

TEST(NeighborList, RebuildInNewBoxMatchesFreshList) {
  // ForceCompute::set_box rebuilds the same list in a new box: the pass
  // re-bins in place, through a finer grid, the all-pairs fallback and
  // back, and must give what a fresh list gives.
  const System sys = build_water_box(343, 17, -1);
  NeighborList reused(6.0, 1.0);
  for (double scale : {1.0, 1.5, 0.95, 1.0}) {
    SCOPED_TRACE(scale);
    const Box box(sys.box().lengths() * scale);
    std::vector<Vec3> pos(sys.positions().begin(), sys.positions().end());
    for (Vec3& p : pos) p = p * scale;
    reused.build(box, pos, sys.topology());
    NeighborList fresh(6.0, 1.0);
    fresh.build(box, pos, sys.topology());
    EXPECT_EQ(csr_digest(reused), csr_digest(fresh));
  }
}

TEST(NeighborList, DegenerateInputRejected) {
  // A non-finite coordinate used to bin to a garbage cell: a signed
  // overflow in CellGrid::cell_of, then an out-of-bounds read.  A finite
  // but huge one (|z| ~ 1e18 Å) wrapped out of the box, so it binned out of
  // range or into the wrong cell.  The list and the RDF reach the pair
  // pass's check, which names the atom: a first build on constructing the
  // pass, a rebuild on re-binning it.  On a built list a non-finite
  // position counts as moved (a NaN distance used to compare as "not
  // beyond the skin"), so ForceCompute's next short-range evaluation
  // rebuilds and reaches the same check.  2,187 atoms take the threaded
  // build and rebuild check with the pool.
  const System water = build_water_box(729, 72, -1);
  const double inf = std::numeric_limits<double>::infinity();
  struct Row {
    const char* name;
    int atom;
    double z;
    const char* message;
  };
  const Row rows[] = {
      {"NaN", 17, std::nan(""), "atom 17 has a non-finite"},
      {"+Inf", 0, inf, "atom 0 has a non-finite"},
      {"-Inf", 2186, -inf, "atom 2186 has a non-finite"},
      {"4.49e18", 5, 4.49e18, "atom 5 has a non-finite or out-of-range"},
      {"-1.12e18", 9, -1.12e18, "atom 9 has a non-finite or out-of-range"},
  };
  std::vector<int> all(static_cast<size_t>(water.num_atoms()));
  std::iota(all.begin(), all.end(), 0);
  ThreadPool pool(4);
  for (const Row& row : rows) {
    System sys = water;
    sys.positions()[static_cast<size_t>(row.atom)].z = row.z;
    const std::string name = row.name;
    NeighborList fresh(6.5, 0.7);
    expect_error(
        [&] { fresh.build(sys.box(), sys.positions(), sys.topology()); },
        row.message, name + ", serial first build");
    NeighborList built(6.5, 0.7);
    built.build(water.box(), water.positions(), water.topology(), &pool);
    if (!std::isfinite(row.z)) {
      EXPECT_TRUE(built.needs_rebuild(sys.box(), sys.positions()))
          << name << ", serial needs_rebuild";
      EXPECT_TRUE(built.needs_rebuild(sys.box(), sys.positions(), &pool))
          << name << ", 4-thread needs_rebuild";
      MdParams p;
      p.cutoff = 6.5;
      p.skin = 0.7;
      for (ThreadPool* fc_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
        ForceCompute force(water.topology_ptr(), water.box(), p, fc_pool);
        std::vector<Vec3> f(static_cast<size_t>(water.num_atoms()));
        force.compute_short(water.positions(), f);
        expect_error([&] { force.compute_short(sys.positions(), f); },
                     row.message,
                     name + (fc_pool != nullptr ? ", 4-thread" : ", serial") +
                         " ForceCompute::compute_short");
      }
    }
    expect_error(
        [&] {
          built.build(sys.box(), sys.positions(), sys.topology(), &pool);
        },
        row.message, name + ", 4-thread rebuild");
    RdfAccumulator rdf(6.5, 65);
    expect_error([&] { rdf.add_frame(sys, all, all); }, row.message,
                 name + ", RdfAccumulator::add_frame");
  }
}

TEST(NeighborList, ExcludesTopologicalPairs) {
  const System sys = build_water_box(125, 18, -1);
  NeighborList nlist(6.0, 0.5);
  nlist.build(sys.box(), sys.positions(), sys.topology());
  for (const auto& w : sys.topology().waters()) {
    for (int j : nlist.neighbors_of(w.o)) {
      EXPECT_NE(j, w.h1);
      EXPECT_NE(j, w.h2);
    }
  }
}

TEST(NeighborList, RebuildTriggersOnDisplacement) {
  const System sys = build_water_box(216, 19, -1);
  NeighborList nlist(6.0, 1.0);
  nlist.build(sys.box(), sys.positions(), sys.topology());
  std::vector<Vec3> moved(sys.positions().begin(), sys.positions().end());
  EXPECT_FALSE(nlist.needs_rebuild(sys.box(), moved));
  moved[0] += Vec3{0.3, 0, 0};  // under skin/2 = 0.5
  EXPECT_FALSE(nlist.needs_rebuild(sys.box(), moved));
  moved[0] += Vec3{0.4, 0, 0};  // now 0.7 > 0.5
  EXPECT_TRUE(nlist.needs_rebuild(sys.box(), moved));
}

TEST(NeighborList, RejectsListRadiusBeyondMinImage) {
  const System sys = build_water_box(27, 20, -1);  // small box
  NeighborList nlist(100.0, 1.0);
  EXPECT_THROW(nlist.build(sys.box(), sys.positions(), sys.topology()),
               Error);
}

TEST(Nonbonded, LjMinimumEnergyAndLocation) {
  LjPairFixture fx;
  // CB-CB: eps = 0.0860, sigma = 3.9.  Minimum at 2^{1/6} sigma.
  const double rmin = std::pow(2.0, 1.0 / 6.0) * 3.9;
  std::vector<Vec3> pos{{10, 10, 10}, {10 + rmin, 10, 10}};
  NeighborList nlist(9.0, 0.5);
  nlist.build(fx.box, pos, *fx.top);
  std::vector<Vec3> f(2);
  EnergyReport e;
  compute_nonbonded(fx.box, *fx.top, nlist, pos, 0.0, f, e);
  EXPECT_NEAR(e.lj, -0.0860, 1e-9);
  EXPECT_NEAR(f[0].x, 0.0, 1e-9);  // zero force at the minimum
}

TEST(Nonbonded, LjForceMatchesFiniteDifference) {
  LjPairFixture fx;
  std::vector<Vec3> pos{{10, 10, 10}, {13.4, 10.7, 9.2}};
  NeighborList nlist(9.0, 0.5);
  nlist.build(fx.box, pos, *fx.top);
  std::vector<Vec3> f(2);
  EnergyReport e;
  compute_nonbonded(fx.box, *fx.top, nlist, pos, 0.0, f, e);

  const double h = 1e-6;
  for (int ax = 0; ax < 3; ++ax) {
    auto energy_at = [&](double delta) {
      std::vector<Vec3> p = pos;
      p[1][ax] += delta;
      EnergyReport er;
      std::vector<Vec3> tmp(2);
      NeighborList nl(9.0, 0.5);
      nl.build(fx.box, p, *fx.top);
      compute_nonbonded(fx.box, *fx.top, nl, p, 0.0, tmp, er);
      return er.lj + er.coulomb_real;
    };
    const double fd = -(energy_at(h) - energy_at(-h)) / (2 * h);
    EXPECT_NEAR(f[1][ax], fd, 1e-6);
  }
}

TEST(Nonbonded, ScreenedCoulombMatchesErfc) {
  // Two opposite charges; alpha > 0 must give erfc-screened energy.
  Box box = Box::cube(40.0);
  ForceField ff = ForceField::standard();
  auto top = std::make_shared<Topology>(ff);
  top->add_atom(ForceField::Std::kION, 1.0);
  top->add_atom(ForceField::Std::kION, -1.0);
  top->finalize();
  const double r = 4.0, alpha = 0.35;
  std::vector<Vec3> pos{{10, 10, 10}, {14, 10, 10}};
  NeighborList nlist(9.0, 0.5);
  nlist.build(box, pos, *top);
  std::vector<Vec3> f(2);
  EnergyReport e;
  compute_nonbonded(box, *top, nlist, pos, alpha, f, e);
  const double lj_part = e.lj;
  const double expected =
      -units::kCoulomb * std::erfc(alpha * r) / r;
  EXPECT_NEAR(e.coulomb_real, expected, 1e-9);
  (void)lj_part;
}

TEST(Nonbonded, ThreadedMatchesSerial) {
  const System sys = build_water_box(729, 21, -1);
  NeighborList nlist(8.0, 1.0);
  nlist.build(sys.box(), sys.positions(), sys.topology());

  std::vector<Vec3> f_serial(static_cast<size_t>(sys.num_atoms()));
  EnergyReport e_serial;
  compute_nonbonded(sys.box(), sys.topology(), nlist, sys.positions(), 0.35,
                    f_serial, e_serial, nullptr);

  ThreadPool pool(4);
  std::vector<Vec3> f_par(static_cast<size_t>(sys.num_atoms()));
  EnergyReport e_par;
  compute_nonbonded(sys.box(), sys.topology(), nlist, sys.positions(), 0.35,
                    f_par, e_par, &pool);

  EXPECT_NEAR(e_serial.lj, e_par.lj, 1e-8);
  EXPECT_NEAR(e_serial.coulomb_real, e_par.coulomb_real, 1e-8);
  for (size_t i = 0; i < f_serial.size(); ++i) {
    EXPECT_NEAR(f_serial[i].x, f_par[i].x, 1e-9);
    EXPECT_NEAR(f_serial[i].y, f_par[i].y, 1e-9);
    EXPECT_NEAR(f_serial[i].z, f_par[i].z, 1e-9);
  }
}

TEST(Nonbonded, NewtonsThirdLawGlobally) {
  const System sys = build_water_box(216, 22, -1);
  NeighborList nlist(8.0, 1.0);
  nlist.build(sys.box(), sys.positions(), sys.topology());
  std::vector<Vec3> f(static_cast<size_t>(sys.num_atoms()));
  EnergyReport e;
  compute_nonbonded(sys.box(), sys.topology(), nlist, sys.positions(), 0.35,
                    f, e);
  Vec3 net{};
  for (const auto& fi : f) net += fi;
  EXPECT_NEAR(norm(net), 0.0, 1e-8);
}

TEST(Nonbonded, SelfEnergyFormula) {
  ForceField ff = ForceField::standard();
  Topology top(ff);
  top.add_atom(ForceField::Std::kION, 1.0);
  top.add_atom(ForceField::Std::kION, -1.0);
  top.add_atom(ForceField::Std::kION, 0.5);
  top.finalize();
  const double alpha = 0.4;
  const double expected =
      -units::kCoulomb * alpha / std::sqrt(M_PI) * (1 + 1 + 0.25);
  EXPECT_NEAR(ewald_self_energy(top, alpha), expected, 1e-12);
}

TEST(Nonbonded, ExcludedCorrectionForceMatchesFiniteDifference) {
  Box box = Box::cube(30.0);
  ForceField ff = ForceField::standard();
  auto top = std::make_shared<Topology>(ff);
  top->add_atom(ForceField::Std::kOW, -0.8);
  top->add_atom(ForceField::Std::kHW, 0.8);
  top->add_bond({0, 1, 450.0, 0.96});
  top->finalize();
  std::vector<Vec3> pos{{5, 5, 5}, {5.7, 5.3, 4.9}};
  std::vector<Vec3> f(2);
  EnergyReport e;
  const double alpha = 0.35;
  compute_excluded_correction(box, *top, pos, alpha, f, e);
  // E_excl = -qq erf(ar)/r; this +/- pair has qq < 0, so the correction is
  // positive (it cancels the attractive k-space contribution).
  const double r = box.distance(pos[0], pos[1]);
  const double expected =
      -units::kCoulomb * (-0.64) * std::erf(alpha * r) / r;
  EXPECT_NEAR(e.coulomb_excl, expected, 1e-10);

  const double h = 1e-6;
  for (int ax = 0; ax < 3; ++ax) {
    auto energy_at = [&](double delta) {
      std::vector<Vec3> p = pos;
      p[0][ax] += delta;
      EnergyReport er;
      std::vector<Vec3> tmp(2);
      compute_excluded_correction(box, *top, p, alpha, tmp, er);
      return er.coulomb_excl;
    };
    const double fd = -(energy_at(h) - energy_at(-h)) / (2 * h);
    EXPECT_NEAR(f[0][ax], fd, 1e-6);
  }
}

}  // namespace
}  // namespace anton::md
