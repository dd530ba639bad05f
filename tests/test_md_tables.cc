// Tabulated pair kernels: the erfc table accuracy bound, parity between
// tabulated and analytic short-range forces, and NVE energy conservation
// with tables enabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "chem/builder.h"
#include "common/units.h"
#include "md/engine.h"
#include "md/neighborlist.h"
#include "md/nonbonded.h"

namespace anton::md {
namespace {

constexpr double kTwoOverSqrtPi = 1.1283791670955126;

// The fused table's interpolants at r², evaluated with the pair kernel's
// Hermite basis: {energy, force factor} per unit qq.
struct EnergyForce {
  double e, f;
};
EnergyForce eval_table(const CoulTableView& v, double r2) {
  const double s = (r2 - v.x0) * v.inv_h;
  const int k = std::min(static_cast<int>(s), v.n - 2);
  const double t = s - k;
  const double t2 = t * t;
  const double t3 = t2 * t;
  const double h00 = 2 * t3 - 3 * t2 + 1;
  const double h10 = (t3 - 2 * t2 + t) * v.h;
  const double h01 = -2 * t3 + 3 * t2;
  const double h11 = (t3 - t2) * v.h;
  const CoulNode& a = v.nodes[k];
  const CoulNode& b = v.nodes[k + 1];
  return {h00 * a.ev + h10 * a.ed + h01 * b.ev + h11 * b.ed,
          h00 * a.fv + h10 * a.fd + h01 * b.fv + h11 * b.fd};
}

TEST(ErfcTables, MeetAccuracyBound) {
  // The production table (alpha 0.35, rc 9 Å, bound 1e-9) covers r from the
  // 1 Å floor to the cutoff in 16,384 nodes (512 KB); a change that bloats
  // it fails here.  alpha = 0 tabulates plain 1/r Coulomb by the same rule
  // and is checked against the exact 1/r and 1/r³.
  const System sys = build_water_box(8, 5);
  const double cutoff = 9.0;
  struct Row {
    double alpha;
    int nodes;  // pinned node count, or 0 for none
  };
  for (const Row row : {Row{0.35, 16384}, Row{0.0, 0}}) {
    SCOPED_TRACE(row.alpha);
    const double alpha = row.alpha;
    ForceWorkspace ws;
    ws.build_cache(sys.topology(), alpha, cutoff, /*shift_at_cutoff=*/true,
                   /*tabulate_erfc=*/true, /*table_target_err=*/1e-9);
    ASSERT_TRUE(ws.tables_ready());
    EXPECT_LE(ws.table_max_rel_err(), 1e-9);
    const CoulTableView view = ws.coul_ef();
    EXPECT_EQ(view.x0, 1.0);
    EXPECT_EQ(ws.table_r2_min(), 1.0);
    EXPECT_NEAR(view.x0 + (view.n - 1) * view.h, cutoff * cutoff, 1e-9);
    if (row.nodes > 0) {
      EXPECT_EQ(view.n, row.nodes);
    }

    // Independent dense sweep in r (not the build's midpoint grid): both
    // interpolants stay within an order of magnitude of the bound.
    double max_rel = 0;
    for (int k = 0; k <= 20000; ++k) {
      const double r = 1.0 + (cutoff - 1.0) * k / 20000.0;
      const double r2 = r * r;
      const double ar = alpha * r;
      const double e_ref = alpha > 0 ? std::erfc(ar) / r : 1.0 / r;
      const double f_ref =
          alpha > 0 ? (std::erfc(ar) / r +
                       kTwoOverSqrtPi * alpha * std::exp(-ar * ar)) /
                          r2
                    : 1.0 / (r * r2);
      const EnergyForce got = eval_table(view, r2);
      max_rel = std::max(max_rel, std::abs(got.e - e_ref) / std::abs(e_ref));
      max_rel = std::max(max_rel, std::abs(got.f - f_ref) / std::abs(f_ref));
    }
    EXPECT_LT(max_rel, 1e-8);
  }
}

TEST(ErfcTables, TabulatedNonbondedMatchesAnalytic) {
  // The exact scalar kernel (tabulate_erfc = false) is the reference.  The
  // rows cover Ewald screening, plain cutoff Coulomb (alpha = 0), and a
  // pair under the table's 1 Å floor, which the table kernel evaluates
  // exactly per lane: atom 4 (a hydrogen of water 1) placed 0.8 Å from
  // atom 0 (the oxygen of water 0).
  const System water = build_water_box(216, 21);
  struct Row {
    const char* name;
    double alpha;
    bool clash;
  };
  for (const Row row : {Row{"alpha 0.35", 0.35, false},
                        Row{"alpha 0", 0.0, false},
                        Row{"pair under the floor", 0.35, true}}) {
    SCOPED_TRACE(row.name);
    System sys = water;
    if (row.clash) {
      sys.positions()[4] = sys.positions()[0] + Vec3{0.8, 0.0, 0.0};
    }
    NeighborList nlist(6.5, 0.7);
    nlist.build(sys.box(), sys.positions(), sys.topology());
    if (row.clash) {
      const auto nb = nlist.neighbors_of(0);
      ASSERT_NE(std::find(nb.begin(), nb.end(), 4), nb.end());
    }
    const size_t n = static_cast<size_t>(sys.num_atoms());

    std::vector<Vec3> fa(n), ft(n);
    EnergyReport ea, et;
    ForceWorkspace wsa, wst;
    compute_nonbonded(sys.box(), sys.topology(), nlist, sys.positions(),
                      row.alpha, fa, ea, nullptr, true, &wsa,
                      /*tabulate_erfc=*/false);
    compute_nonbonded(sys.box(), sys.topology(), nlist, sys.positions(),
                      row.alpha, ft, et, nullptr, true, &wst);

    EXPECT_NEAR(ea.lj, et.lj, 1e-9 * std::abs(ea.lj));
    EXPECT_NEAR(ea.coulomb_real, et.coulomb_real,
                1e-6 * std::abs(ea.coulomb_real));
    EXPECT_NEAR(ea.virial, et.virial, 1e-6 * std::abs(ea.virial));
    for (size_t i = 0; i < n; ++i) {
      const double scale = std::max(1.0, std::sqrt(norm2(fa[i])));
      EXPECT_NEAR(fa[i].x, ft[i].x, 1e-6 * scale) << "atom " << i;
      EXPECT_NEAR(fa[i].y, ft[i].y, 1e-6 * scale) << "atom " << i;
      EXPECT_NEAR(fa[i].z, ft[i].z, 1e-6 * scale) << "atom " << i;
    }
  }
}

TEST(ErfcTables, NveConservationWithTabulatedKernel) {
  System sys = build_water_box(125, 101);
  MdParams p;
  p.cutoff = 6.5;
  p.skin = 0.7;
  p.dt_fs = 1.0;
  p.respa_k = 1;
  p.long_range = LongRangeMethod::kMesh;
  p.mesh_spacing = 1.1;
  p.gse_sigma = 1.2;
  p.ewald_alpha = 0.35;
  Simulation sim(std::move(sys), p);
  sim.step(50);  // relax the synthetic lattice before measuring
  const double e0 = sim.energies().total();
  sim.step(200);
  const double e1 = sim.energies().total();
  const double ke = sim.system().kinetic_energy();
  EXPECT_LT(std::abs(e1 - e0), 0.01 * ke)
      << "E0=" << e0 << " E1=" << e1 << " KE=" << ke;
}

}  // namespace
}  // namespace anton::md
