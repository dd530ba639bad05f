#include "md/workspace.h"

#include <algorithm>
#include <cmath>

#include "common/simd.h"
#include "common/units.h"

namespace anton::md {

namespace {

constexpr double kTwoOverSqrtPi = 1.1283791670955126;

// Refinement stops here even if the accuracy bound is not yet met.
constexpr int kMaxTableNodes = 1 << 17;

// Screened-Coulomb energy per unit qq as a function of r²:
//   E(r²) = erfc(alpha r) / r.
double erfc_energy_r2(double alpha, double r2) {
  const double r = std::sqrt(r2);
  return std::erfc(alpha * r) / r;
}

// Force factor per unit qq as a function of r² (multiplies the displacement
// vector): F(r²) = (erfc(ar)/r + 2a/√π e^{-a²r²}) / r².  Note dE/dr² = -F/2.
double erfc_force_r2(double alpha, double r2) {
  const double r = std::sqrt(r2);
  const double ar = alpha * r;
  return (std::erfc(ar) / r + kTwoOverSqrtPi * alpha * std::exp(-ar * ar)) /
         r2;
}

// dF/dr² for the Hermite nodes of the force table:
//   dF/dr = -3 erfc/r⁴ - 2a/√π e^{-a²r²} (3/r³ + 2a²/r),  dF/dr² = dF/dr / 2r.
double erfc_force_deriv_r2(double alpha, double r2) {
  const double r = std::sqrt(r2);
  const double ar = alpha * r;
  const double g = kTwoOverSqrtPi * alpha * std::exp(-ar * ar);
  const double df_dr = -3.0 * std::erfc(ar) / (r2 * r2) -
                       g * (3.0 / (r2 * r) + 2.0 * alpha * alpha / r);
  return df_dr / (2.0 * r);
}

}  // namespace

void ForceWorkspace::build_cache(const Topology& top, double alpha,
                                 double cutoff, bool shift_at_cutoff,
                                 bool tabulate_erfc, double table_target_err) {
  const ForceField& ff = top.forcefield();
  const int ntypes = ff.num_types();
  const size_t n = static_cast<size_t>(top.num_atoms());
  if (cache_ready_ && ntypes_ == ntypes && q_scaled_.size() == n &&
      cache_alpha_ == alpha && cache_cutoff_ == cutoff &&
      cache_shift_ == shift_at_cutoff && tables_ready_ == tabulate_erfc) {
    return;
  }

  // Dense premixed LJ table: one Lorentz–Berthelot mix per type pair, done
  // once instead of once per interacting pair, with the cutoff shift energy
  // folded in.  The stored values are bitwise what ForceField::lj computes,
  // so tabulated and on-the-fly paths agree exactly.
  const double cutoff2 = cutoff * cutoff;
  lj_.assign(static_cast<size_t>(ntypes) * static_cast<size_t>(ntypes), {});
  for (int a = 0; a < ntypes; ++a) {
    for (int b = 0; b < ntypes; ++b) {
      const LjPair p = ff.lj(a, b);
      LjMixed m;
      m.eps = p.eps;
      m.sigma2 = p.sigma * p.sigma;
      if (shift_at_cutoff && p.eps > 0) {
        const double src2 = p.sigma * p.sigma / cutoff2;
        const double src6 = src2 * src2 * src2;
        m.e_shift = 4.0 * p.eps * (src6 * src6 - src6);
      }
      lj_[static_cast<size_t>(a) * static_cast<size_t>(ntypes) +
          static_cast<size_t>(b)] = m;
    }
  }
  lj_row_zero_.assign(static_cast<size_t>(ntypes), 1);
  for (int a = 0; a < ntypes; ++a) {
    for (int b = 0; b < ntypes; ++b) {
      if (lj_[static_cast<size_t>(a) * static_cast<size_t>(ntypes) +
              static_cast<size_t>(b)]
              .eps > 0) {
        lj_row_zero_[static_cast<size_t>(a)] = 0;
      }
    }
  }

  const auto charges = top.charges();
  q_scaled_.resize(n);
  for (size_t i = 0; i < n; ++i) q_scaled_[i] = units::kCoulomb * charges[i];

  // At alpha = 0, erfc(0) = 1 makes this the plain-cutoff shift 1/rc.
  coul_shift_ = shift_at_cutoff ? std::erfc(alpha * cutoff) / cutoff : 0.0;

  tables_ready_ = false;
  table_max_rel_err_ = 0;
  if (tabulate_erfc) {
    // Tabulate over r² so the kernel needs no sqrt.  Pairs closer than the
    // 1 Å floor (bad initial geometry only) take the kernel's exact
    // per-lane fallback.  At alpha = 0 the expressions reduce to 1/r and
    // 1/r³, so plain cutoff Coulomb runs on the same table.
    table_r2_min_ = 1.0;
    const double x0 = table_r2_min_;
    const double x1 = cutoff2;
    auto node = [alpha](double x) -> CoulNode {
      const double f = erfc_force_r2(alpha, x);
      return {erfc_energy_r2(alpha, x), -0.5 * f, f,
              erfc_force_deriv_r2(alpha, x)};
    };
    // Refine by node doubling until the measured midpoint error meets the
    // accuracy bound.  Each midpoint interpolant is evaluated from node
    // values made on the fly, so refinement stores nothing; the fused array
    // is allocated once, at the converged size.
    int n_nodes = 2048;
    for (;; n_nodes *= 2) {
      const double h = (x1 - x0) / (n_nodes - 1);
      double max_rel = 0;
      CoulNode a = node(x0);
      for (int k = 0; k + 1 < n_nodes; ++k) {
        const CoulNode b = node(x0 + (k + 1) * h);
        const double x = x0 + (k + 0.5) * h;
        const double t = (x - x0) * (1.0 / h) - k;
        const double t2 = t * t;
        const double t3 = t2 * t;
        const double h00 = 2 * t3 - 3 * t2 + 1;
        const double h10 = (t3 - 2 * t2 + t) * h;
        const double h01 = -2 * t3 + 3 * t2;
        const double h11 = (t3 - t2) * h;
        const double ee = erfc_energy_r2(alpha, x);
        const double fe = erfc_force_r2(alpha, x);
        const double ei = h00 * a.ev + h10 * a.ed + h01 * b.ev + h11 * b.ed;
        const double fi = h00 * a.fv + h10 * a.fd + h01 * b.fv + h11 * b.fd;
        max_rel = std::max(max_rel,
                           std::abs(ei - ee) / std::max(std::abs(ee), 1e-300));
        max_rel = std::max(max_rel,
                           std::abs(fi - fe) / std::max(std::abs(fe), 1e-300));
        a = b;
      }
      table_max_rel_err_ = max_rel;
      if (max_rel <= table_target_err || n_nodes == kMaxTableNodes) break;
    }
    ef_h_ = (x1 - x0) / (n_nodes - 1);
    ef_inv_h_ = 1.0 / ef_h_;
    ef_nodes_.resize(static_cast<size_t>(n_nodes));
    for (int k = 0; k < n_nodes; ++k) {
      ef_nodes_[static_cast<size_t>(k)] = node(x0 + k * ef_h_);
    }
    tables_ready_ = true;
  }

  ntypes_ = ntypes;
  cache_alpha_ = alpha;
  cache_cutoff_ = cutoff;
  cache_shift_ = shift_at_cutoff;
  cache_ready_ = true;
}

void ForceWorkspace::stage_positions(std::span<const Vec3> pos,
                                     std::span<const double> charges) {
  const size_t n = pos.size();
  if (soa_xyzq_.size() != 4 * n) soa_xyzq_.resize(4 * n);
  for (size_t i = 0; i < n; ++i) {
    double* rec = soa_xyzq_.data() + 4 * i;
    rec[0] = pos[i].x;
    rec[1] = pos[i].y;
    rec[2] = pos[i].z;
    rec[3] = charges[i];
  }
}

void ForceWorkspace::ensure_threads(unsigned nthreads, size_t n_atoms) {
  if (thread_f_.size() == nthreads && partials_.size() == nthreads &&
      (nthreads == 0 || thread_f_[0].size() == n_atoms)) {
    return;
  }
  thread_f_.assign(nthreads, std::vector<Vec3>(n_atoms, Vec3{}));
  partials_.assign(nthreads, PairEnergyPartial{});
  chunk_bounds_.assign(static_cast<size_t>(nthreads) + 1, 0);
}

void ForceWorkspace::ensure_fixed_threads(unsigned nthreads, size_t n_atoms) {
  ensure_threads(nthreads, n_atoms);  // chunk bounds + partials geometry
  if (thread_fx_.size() == nthreads && partials_fx_.size() == nthreads &&
      (nthreads == 0 || thread_fx_[0].size() == n_atoms)) {
    return;
  }
  thread_fx_.assign(nthreads, std::vector<ForceFixed>(n_atoms, ForceFixed{}));
  partials_fx_.assign(nthreads, PairEnergyPartialFixed{});
}

void GseWorkspace::ensure(unsigned nthreads, int sx, int sy, int sz,
                          size_t mesh_points, bool threaded_grids,
                          bool fixed_grids) {
  if (threads_.size() == nthreads && sx_ == sx && sy_ == sy && sz_ == sz &&
      mesh_points_ == mesh_points && threaded_grids_ == threaded_grids &&
      fixed_grids_ == fixed_grids) {
    return;
  }
  // The per-axis arrays are padded to a full vector width so the spread and
  // gather inner loops can read whole lanes past the live count.  Padding
  // entries are zero weight at index 0 and never rewritten by axis_weights,
  // so padded lanes contribute exact zeros through in-range gathers.
  constexpr int W = static_cast<int>(simd::kLanesD);
  auto pad = [](int s) {
    return static_cast<size_t>((s + W - 1) / W * W);
  };
  threads_.assign(nthreads, GseThreadScratch{});
  for (GseThreadScratch& t : threads_) {
    t.wx.assign(pad(sx), 0.0);
    t.wy.assign(pad(sy), 0.0);
    t.wz.assign(pad(sz), 0.0);
    t.dxs.assign(pad(sx), 0.0);
    t.dys.assign(pad(sy), 0.0);
    t.dzs.assign(pad(sz), 0.0);
    t.ix.assign(pad(sx), 0);
    t.iy.assign(pad(sy), 0);
    t.iz.assign(pad(sz), 0);
    if (threaded_grids) t.rho.assign(mesh_points, 0.0);
    if (fixed_grids) t.rho_fx.assign(mesh_points, MeshFixed{});
  }
  sx_ = sx;
  sy_ = sy;
  sz_ = sz;
  mesh_points_ = mesh_points;
  threaded_grids_ = threaded_grids;
  fixed_grids_ = fixed_grids;
}

}  // namespace anton::md
