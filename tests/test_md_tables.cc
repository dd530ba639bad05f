// Tabulated pair kernels: cubic-Hermite table machinery, the erfc table
// accuracy bound, parity between tabulated and analytic short-range forces,
// and NVE energy conservation with tables enabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "chem/builder.h"
#include "common/table.h"
#include "common/units.h"
#include "md/engine.h"
#include "md/neighborlist.h"
#include "md/nonbonded.h"

namespace anton::md {
namespace {

constexpr double kTwoOverSqrtPi = 1.1283791670955126;

TEST(CubicTable, ReproducesSmoothFunction) {
  CubicTable tab;
  tab.build(
      0.0, 5.0, 513, [](double x) { return std::exp(-x); },
      [](double x) { return -std::exp(-x); });
  ASSERT_TRUE(tab.built());
  // Exact at the nodes.
  EXPECT_DOUBLE_EQ(tab(0.0), 1.0);
  // Hermite error scales like h^4 f'''' / 384; h ~ 1e-2 gives ~2.6e-11.
  double max_err = 0;
  for (int k = 0; k < 2000; ++k) {
    const double x = 5.0 * k / 1999.0;
    max_err = std::max(max_err, std::abs(tab(x) - std::exp(-x)));
  }
  EXPECT_LT(max_err, 1e-9);
  // Clamped outside the domain.
  EXPECT_DOUBLE_EQ(tab(-1.0), tab(0.0));
  EXPECT_DOUBLE_EQ(tab(6.0), tab(5.0));
}

TEST(CubicTable, EvalBatchIsBitwiseIdenticalToScalarEval) {
  CubicTable tab;
  tab.build(
      0.25, 81.0, 1537, [](double x) { return std::exp(-0.3 * x) / x; },
      [](double x) {
        return -std::exp(-0.3 * x) * (0.3 / x + 1.0 / (x * x));
      });
  // Random abscissae across the domain plus clamp regions on both sides and
  // exact node hits; every batch size from 1 to 3 vector widths to cover
  // ragged tails.
  std::mt19937_64 rng(77);
  std::uniform_real_distribution<double> in_dom(0.25, 81.0);
  std::uniform_real_distribution<double> wide(-5.0, 95.0);
  std::vector<double> xs;
  for (int k = 0; k < 4000; ++k) xs.push_back(in_dom(rng));
  for (int k = 0; k < 1000; ++k) xs.push_back(wide(rng));
  for (int k = 0; k < 1537; k += 13) {
    xs.push_back(0.25 + k * (81.0 - 0.25) / 1536.0);
  }
  auto expect_bits = [](double got, double want, size_t i) {
    uint64_t gb, wb;
    std::memcpy(&gb, &got, sizeof gb);
    std::memcpy(&wb, &want, sizeof wb);
    EXPECT_EQ(gb, wb) << "x index " << i << ": got " << got << " want "
                      << want;
  };
  std::vector<double> out(xs.size(), -1.0);
  tab.eval_batch(xs.data(), out.data(), static_cast<int>(xs.size()));
  for (size_t i = 0; i < xs.size(); ++i) expect_bits(out[i], tab(xs[i]), i);
  for (int count = 1; count <= 12; ++count) {
    std::vector<double> o(static_cast<size_t>(count), -1.0);
    tab.eval_batch(xs.data(), o.data(), count);
    for (int i = 0; i < count; ++i) {
      expect_bits(o[static_cast<size_t>(i)], tab(xs[static_cast<size_t>(i)]),
                  static_cast<size_t>(i));
    }
  }
}

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
