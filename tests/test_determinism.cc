// Deterministic-forces regression tests.
//
// MdParams::deterministic_forces quantizes every pair contribution to 32.32
// fixed point before accumulation.  Fixed-point addition is exactly
// associative, so the reduced forces are bitwise identical for ANY thread
// count — serial included — which is the property Anton 2's hardware
// accumulation provides and which double-precision per-thread buffers cannot
// (summation grouping changes with the chunking).  The system here is 2187
// atoms, above the kernels' serial-fallback threshold, so the threaded paths
// genuinely engage.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "chem/builder.h"
#include "common/threadpool.h"
#include "md/engine.h"
#include "md/forces.h"
#include "md/minimize.h"
#include "md/neighborlist.h"
#include "md/nonbonded.h"
#include "test_support.h"

namespace anton::md {
namespace {

const System& water2k() {
  static const System* sys = new System(build_water_box(729, 11));
  return *sys;
}

struct ShortRange {
  std::vector<Vec3> f;
  EnergyReport e;
};

ShortRange eval_deterministic(const System& sys, const NeighborList& nlist,
                              ThreadPool* pool, ForceWorkspace* ws,
                              bool deterministic) {
  ShortRange r;
  r.f.assign(static_cast<size_t>(sys.num_atoms()), Vec3{});
  compute_nonbonded(sys.box(), sys.topology(), nlist, sys.positions(), 0.35,
                    r.f, r.e, pool, /*shift_at_cutoff=*/true, ws,
                    /*tabulate_erfc=*/false, deterministic);
  compute_excluded_correction(sys.box(), sys.topology(), sys.positions(), 0.35,
                              r.f, r.e, pool, ws, deterministic);
  return r;
}

void expect_bitwise_equal(const ShortRange& a, const ShortRange& b) {
  ASSERT_EQ(a.f.size(), b.f.size());
  for (size_t i = 0; i < a.f.size(); ++i) {
    ASSERT_EQ(a.f[i].x, b.f[i].x) << "atom " << i;
    ASSERT_EQ(a.f[i].y, b.f[i].y) << "atom " << i;
    ASSERT_EQ(a.f[i].z, b.f[i].z) << "atom " << i;
  }
  EXPECT_EQ(a.e.lj, b.e.lj);
  EXPECT_EQ(a.e.coulomb_real, b.e.coulomb_real);
  EXPECT_EQ(a.e.coulomb_excl, b.e.coulomb_excl);
  EXPECT_EQ(a.e.virial, b.e.virial);
}

// The headline property: serial and every thread count produce the same bits.
TEST(Determinism, BitwiseIdenticalForcesAcross1_2_8Threads) {
  const System& sys = water2k();
  NeighborList nlist(6.5, 0.7);
  nlist.build(sys.box(), sys.positions(), sys.topology());

  const ShortRange serial =
      eval_deterministic(sys, nlist, nullptr, nullptr, true);
  for (unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    ForceWorkspace ws;
    const ShortRange par = eval_deterministic(sys, nlist, &pool, &ws, true);
    expect_bitwise_equal(serial, par);
  }
}

// Same property on the tabulated pair path, which runs the vectorized
// kernel (lane-gathered erfc tables + per-lane fixed-point quantization in
// lane order).  This certifies the SIMD fixed-point accumulation: serial and
// every thread count produce the same bits with tables enabled.
TEST(Determinism, TabulatedBitwiseIdenticalForcesAcross1_2_4_8Threads) {
  const System& sys = water2k();
  NeighborList nlist(9.0, 1.0);
  nlist.build(sys.box(), sys.positions(), sys.topology());

  auto eval_tabulated = [&](ThreadPool* pool, ForceWorkspace* ws) {
    ShortRange r;
    r.f.assign(static_cast<size_t>(sys.num_atoms()), Vec3{});
    compute_nonbonded(sys.box(), sys.topology(), nlist, sys.positions(), 0.35,
                      r.f, r.e, pool, /*shift_at_cutoff=*/true, ws,
                      /*tabulate_erfc=*/true, /*deterministic=*/true);
    compute_excluded_correction(sys.box(), sys.topology(), sys.positions(),
                                0.35, r.f, r.e, pool, ws,
                                /*deterministic=*/true);
    return r;
  };

  ForceWorkspace ws_serial;
  const ShortRange serial = eval_tabulated(nullptr, &ws_serial);
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    ForceWorkspace ws;
    const ShortRange par = eval_tabulated(&pool, &ws);
    expect_bitwise_equal(serial, par);
  }
}

// An oracle across the neighbour list's layout: the short-range forces and
// energies of DHFR (9 + 1 Å, the cell walk, whose chains have 1-2 and 1-3
// exclusions across cells) under deterministic_forces, on both pair
// kernels, serially and on 4 threads, against digests taken when the list
// stored each pair under its lower atom with every row ascending.  Each
// pair's fixed-point contribution does not depend on which atom owns it
// (the charge products of the built-in systems are exact either way), and
// fixed-point sums do not depend on order, so any layout of the same pairs
// gives these bits.
TEST(Determinism, DhfrShortRangeMatchesLowerIndexLayoutDigest) {
  System sys = build_benchmark_system(dhfr_spec(), 2014);
  MdParams p;
  {
    // In double: the builder leaves clashes whose terms exceed the 32.32
    // range; 30 steps bring the largest force to ~4e5 kcal/mol/Å.
    ThreadPool pool(4);
    minimize_energy(sys, p, 30, 0.1, 10.0, &pool);
  }
  // The double path's sums follow the list's layout, so snap the minimised
  // positions to a 2^-10 Å grid, far coarser than that rounding.
  for (Vec3& x : sys.positions()) {
    x = Vec3{std::round(x.x * 1024) / 1024, std::round(x.y * 1024) / 1024,
             std::round(x.z * 1024) / 1024};
  }
  p.deterministic_forces = true;
  const size_t n = static_cast<size_t>(sys.num_atoms());
  for (const bool tabulate : {true, false}) {
    p.tabulate_erfc = tabulate;
    for (unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(::testing::Message() << "tabulate_erfc " << tabulate
                                        << ", " << threads << " threads");
      ThreadPool pool(threads);
      ForceCompute force(sys.topology_ptr(), sys.box(), p, &pool);
      std::vector<Vec3> f(n);
      const EnergyReport e = force.compute_short(sys.positions(), f);
      test_support::Digest d;
      for (const Vec3& v : f) {
        d.add_bits(v.x);
        d.add_bits(v.y);
        d.add_bits(v.z);
      }
      for (double v : {e.lj, e.coulomb_real, e.coulomb_excl, e.virial}) {
        d.add_bits(v);
      }
      EXPECT_EQ(d.value(),
                tabulate ? 0xB0DF1356669555D9ULL : 0x3ABA5656515AEFE0ULL)
          << "0x" << std::hex << d.value();
    }
  }
}

// A clash drives a pair term past the 32.32 range (±2^31): atom 3 (water 1's
// oxygen) 0.3 Å from atom 0 (water 0's oxygen) has an exact LJ energy of
// +1.1e12 kcal/mol and F0.x of -4.4e13.  Fixed point used to clamp those at
// ±2.1e9 (the table path even flipped F0.x's sign) and return with no
// error; it must raise instead, serially and threaded, tables on and off.
// The 4-thread rows use 729 waters (2,187 atoms), above the serial-fallback
// threshold, so the per-thread buffers and their reduction run.
TEST(Determinism, FixedPointOverflowRaises) {
  struct Row {
    int molecules;
    unsigned threads;
    bool tabulate;
  };
  for (const Row row : {Row{216, 1, true}, Row{216, 1, false},
                        Row{729, 4, true}, Row{729, 4, false}}) {
    SCOPED_TRACE(::testing::Message()
                 << row.molecules << " waters, " << row.threads
                 << " threads, tabulate_erfc " << row.tabulate);
    System sys = build_water_box(row.molecules, 5);
    sys.positions()[3] = sys.positions()[0] + Vec3{0.3, 0.0, 0.0};
    NeighborList nlist(6.5, 0.7);
    nlist.build(sys.box(), sys.positions(), sys.topology());
    ThreadPool pool(row.threads);
    ThreadPool* tp = row.threads > 1 ? &pool : nullptr;
    ForceWorkspace ws;
    std::vector<Vec3> f(static_cast<size_t>(sys.num_atoms()));
    EnergyReport e;
    compute_nonbonded(sys.box(), sys.topology(), nlist, sys.positions(), 0.35,
                      f, e, tp, /*shift_at_cutoff=*/true, &ws, row.tabulate,
                      /*deterministic=*/false);
    EXPECT_GT(e.lj, 1e12);
    EXPECT_LT(f[0].x, -1e13);
    try {
      compute_nonbonded(sys.box(), sys.topology(), nlist, sys.positions(),
                        0.35, f, e, tp, /*shift_at_cutoff=*/true, &ws,
                        row.tabulate, /*deterministic=*/true);
      ADD_FAILURE() << "no anton::Error";
    } catch (const Error& err) {
      EXPECT_NE(std::string(err.what()).find("32.32 fixed-point range"),
                std::string::npos)
          << err.what();
    }
  }
}

// Quantization must not meaningfully perturb the physics: the fixed-point
// result tracks the double path to roughly the 32.32 resolution per pair.
TEST(Determinism, FixedPointTracksDoublePath) {
  const System& sys = water2k();
  NeighborList nlist(6.5, 0.7);
  nlist.build(sys.box(), sys.positions(), sys.topology());

  ThreadPool pool(4);
  ForceWorkspace ws;
  const ShortRange dbl = eval_deterministic(sys, nlist, &pool, &ws, false);
  const ShortRange fxd = eval_deterministic(sys, nlist, &pool, &ws, true);
  ASSERT_EQ(dbl.f.size(), fxd.f.size());
  for (size_t i = 0; i < dbl.f.size(); ++i) {
    const double scale =
        std::max(1.0, std::sqrt(std::max(norm2(dbl.f[i]), norm2(fxd.f[i]))));
    EXPECT_NEAR(dbl.f[i].x, fxd.f[i].x, 1e-6 * scale) << "atom " << i;
    EXPECT_NEAR(dbl.f[i].y, fxd.f[i].y, 1e-6 * scale) << "atom " << i;
    EXPECT_NEAR(dbl.f[i].z, fxd.f[i].z, 1e-6 * scale) << "atom " << i;
  }
  const double escale =
      std::max({1.0, std::abs(dbl.e.lj), std::abs(dbl.e.coulomb_real)});
  EXPECT_NEAR(dbl.e.lj, fxd.e.lj, 1e-6 * escale);
  EXPECT_NEAR(dbl.e.coulomb_real, fxd.e.coulomb_real, 1e-6 * escale);
  EXPECT_NEAR(dbl.e.coulomb_excl, fxd.e.coulomb_excl, 1e-6 * escale);
}

// Same property through the full ForceCompute front end, the way an engine
// run would use it (MdParams::deterministic_forces).
TEST(Determinism, ForceComputeShortRangeBitwiseAcrossThreadCounts) {
  MdParams p;
  p.cutoff = 6.5;
  p.skin = 0.7;
  p.long_range = LongRangeMethod::kMesh;
  p.deterministic_forces = true;

  System sys = build_water_box(729, 11);
  const size_t n = static_cast<size_t>(sys.num_atoms());

  std::vector<Vec3> ref(n);
  {
    ForceCompute force(sys.topology_ptr(), sys.box(), p, nullptr);
    force.compute_short(sys.positions(), ref);
  }
  for (unsigned threads : {2u, 8u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    ForceCompute force(sys.topology_ptr(), sys.box(), p, &pool);
    std::vector<Vec3> f(n);
    force.compute_short(sys.positions(), f);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(ref[i].x, f[i].x) << "atom " << i;
      ASSERT_EQ(ref[i].y, f[i].y) << "atom " << i;
      ASSERT_EQ(ref[i].z, f[i].z) << "atom " << i;
    }
  }
}

// Long-range path: the GSE mesh spread quantizes every grid contribution to
// fixed point, so reciprocal-space forces are bitwise identical for any
// thread count (the gather and FFT are data-parallel pure functions).
TEST(Determinism, LongRangeMeshBitwiseAcross1_2_4_8Threads) {
  MdParams p;
  p.cutoff = 6.5;
  p.skin = 0.7;
  p.long_range = LongRangeMethod::kMesh;
  p.deterministic_forces = true;

  System sys = build_water_box(729, 11);
  const size_t n = static_cast<size_t>(sys.num_atoms());

  std::vector<Vec3> ref(n);
  EnergyReport e_ref;
  {
    ForceCompute force(sys.topology_ptr(), sys.box(), p, nullptr);
    e_ref = force.compute_long(sys.positions(), ref);
  }
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    ForceCompute force(sys.topology_ptr(), sys.box(), p, &pool);
    std::vector<Vec3> f(n);
    const EnergyReport e = force.compute_long(sys.positions(), f);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(ref[i].x, f[i].x) << "atom " << i;
      ASSERT_EQ(ref[i].y, f[i].y) << "atom " << i;
      ASSERT_EQ(ref[i].z, f[i].z) << "atom " << i;
    }
    EXPECT_EQ(e_ref.coulomb_kspace, e.coulomb_kspace);
    EXPECT_EQ(e_ref.virial, e.virial);
  }
}

// Direct Ewald is bitwise stable across thread counts by construction: each
// S(k) is a serial sum in atom order and the force pass is per-atom pure.
TEST(Determinism, DirectEwaldBitwiseAcrossThreadCounts) {
  MdParams p;
  p.cutoff = 6.5;
  p.skin = 0.7;
  p.long_range = LongRangeMethod::kDirect;
  p.kspace_nmax = 4;
  p.deterministic_forces = true;

  System sys = build_water_box(216, 13);
  const size_t n = static_cast<size_t>(sys.num_atoms());

  std::vector<Vec3> ref(n);
  EnergyReport e_ref;
  {
    ForceCompute force(sys.topology_ptr(), sys.box(), p, nullptr);
    e_ref = force.compute_long(sys.positions(), ref);
  }
  for (unsigned threads : {2u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    ForceCompute force(sys.topology_ptr(), sys.box(), p, &pool);
    std::vector<Vec3> f(n);
    const EnergyReport e = force.compute_long(sys.positions(), f);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(ref[i].x, f[i].x) << "atom " << i;
      ASSERT_EQ(ref[i].y, f[i].y) << "atom " << i;
      ASSERT_EQ(ref[i].z, f[i].z) << "atom " << i;
    }
    EXPECT_EQ(e_ref.coulomb_kspace, e.coulomb_kspace);
    EXPECT_EQ(e_ref.virial, e.virial);
  }
}

// The acceptance property for the full pipeline: total (short- plus
// long-range) forces bit-identical across thread counts 1/2/4/8.
TEST(Determinism, TotalForcesBitwiseAcross1_2_4_8Threads) {
  MdParams p;
  p.cutoff = 6.5;
  p.skin = 0.7;
  p.long_range = LongRangeMethod::kMesh;
  p.deterministic_forces = true;

  System sys = build_water_box(729, 11);
  const size_t n = static_cast<size_t>(sys.num_atoms());

  std::vector<Vec3> ref(n);
  {
    ForceCompute force(sys.topology_ptr(), sys.box(), p, nullptr);
    force.compute_all(sys.positions(), ref);
  }
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    ForceCompute force(sys.topology_ptr(), sys.box(), p, &pool);
    std::vector<Vec3> f(n);
    force.compute_all(sys.positions(), f);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(ref[i].x, f[i].x) << "atom " << i;
      ASSERT_EQ(ref[i].y, f[i].y) << "atom " << i;
      ASSERT_EQ(ref[i].z, f[i].z) << "atom " << i;
    }
  }
}

// The deterministic long-range result must track the double-precision path
// to the fixed-point quantization scale, not perturb the physics.
TEST(Determinism, LongRangeFixedPointTracksDoublePath) {
  MdParams p;
  p.cutoff = 6.5;
  p.skin = 0.7;
  p.long_range = LongRangeMethod::kMesh;

  System sys = build_water_box(729, 11);
  const size_t n = static_cast<size_t>(sys.num_atoms());
  ThreadPool pool(4);

  std::vector<Vec3> f_dbl(n), f_fxd(n);
  EnergyReport e_dbl, e_fxd;
  {
    ForceCompute force(sys.topology_ptr(), sys.box(), p, &pool);
    e_dbl = force.compute_long(sys.positions(), f_dbl);
  }
  p.deterministic_forces = true;
  {
    ForceCompute force(sys.topology_ptr(), sys.box(), p, &pool);
    e_fxd = force.compute_long(sys.positions(), f_fxd);
  }
  for (size_t i = 0; i < n; ++i) {
    const double scale = std::max(
        1.0, std::sqrt(std::max(norm2(f_dbl[i]), norm2(f_fxd[i]))));
    EXPECT_NEAR(f_dbl[i].x, f_fxd[i].x, 1e-6 * scale) << "atom " << i;
    EXPECT_NEAR(f_dbl[i].y, f_fxd[i].y, 1e-6 * scale) << "atom " << i;
    EXPECT_NEAR(f_dbl[i].z, f_fxd[i].z, 1e-6 * scale) << "atom " << i;
  }
  const double escale = std::max(1.0, std::abs(e_dbl.coulomb_kspace));
  EXPECT_NEAR(e_dbl.coulomb_kspace, e_fxd.coulomb_kspace, 1e-4 * escale);
  EXPECT_NEAR(e_dbl.virial, e_fxd.virial,
              1e-4 * std::max(1.0, std::abs(e_dbl.virial)));
}

// Repeated evaluation with the same workspace must also be stable (no state
// leaks between deterministic evaluations).
TEST(Determinism, RepeatedEvaluationIsStable) {
  const System& sys = water2k();
  NeighborList nlist(6.5, 0.7);
  nlist.build(sys.box(), sys.positions(), sys.topology());

  ThreadPool pool(2);
  ForceWorkspace ws;
  const ShortRange a = eval_deterministic(sys, nlist, &pool, &ws, true);
  const ShortRange b = eval_deterministic(sys, nlist, &pool, &ws, true);
  expect_bitwise_equal(a, b);
}

// The CSR well-formedness validator must accept a freshly built list (it
// auto-runs inside build() under the invariant layer; this keeps it covered
// in release builds too).
TEST(Determinism, NeighborListValidateAcceptsFreshBuild) {
  const System& sys = water2k();
  NeighborList nlist(6.5, 0.7);
  nlist.build(sys.box(), sys.positions(), sys.topology());
  nlist.validate();
  ThreadPool pool(4);
  nlist.build(sys.box(), sys.positions(), sys.topology(), &pool);
  nlist.validate();
}

// The whole production step with fixed-point forces: pair and mesh forces,
// the split SHAKE and RATTLE phases, integration and neighbour-list
// rebuilds.  A solvated system runs both constraint group sizes (rigid
// waters and single side-bead bonds); 24 steps pass list rebuilds and
// RESPA long-range steps.  Positions and velocities must match bit for bit
// serially and on every pool size.
TEST(Determinism, TrajectoryBitwiseAcrossThreadCounts) {
  BuilderOptions o;
  o.total_atoms = 2400;
  o.solute_fraction = 0.12;
  o.seed = 23;
  System start = build_solvated_system(o);
  MdParams p;
  minimize_energy(start, p, 200);  // in double: the builder leaves clashes
  start.assign_velocities(300.0, o.seed);
  p.deterministic_forces = true;

  auto run = [&](ThreadPool* pool) {
    Simulation sim(start, p, pool);
    sim.step(24);
    EXPECT_GE(sim.force_compute().nlist_builds(), 2) << "no list rebuild";
    const auto pos = sim.system().positions();
    const auto vel = sim.system().velocities();
    std::vector<Vec3> state(pos.begin(), pos.end());
    state.insert(state.end(), vel.begin(), vel.end());
    return state;
  };
  const std::vector<Vec3> serial = run(nullptr);
  for (const unsigned threads : {2u, 3u, 4u, 7u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    const std::vector<Vec3> threaded = run(&pool);
    ASSERT_EQ(serial.size(), threaded.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(serial[i].x, threaded[i].x) << "entry " << i;
      ASSERT_EQ(serial[i].y, threaded[i].y) << "entry " << i;
      ASSERT_EQ(serial[i].z, threaded[i].z) << "entry " << i;
    }
  }
}

}  // namespace
}  // namespace anton::md
