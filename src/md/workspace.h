// Persistent per-ForceCompute scratch and parameter caches for the
// short-range pipeline.
//
// Anton 2 keeps its pairwise point interaction pipelines saturated because
// nothing on the hot path touches a memory allocator; the commodity baseline
// mirrors that by hoisting every per-step buffer and every derived pair
// parameter into this workspace, sized once at construction:
//
//   - per-thread force accumulation buffers (kept zeroed between uses by the
//     zero-restoring reduction pass),
//   - per-thread partial-energy slots and pair-balanced chunk boundaries,
//   - the compute_all long-range force scratch,
//   - a dense premixed Lennard-Jones type-pair table (Lorentz–Berthelot
//     applied once, with the cutoff energy shift folded in),
//   - the Coulomb-prescaled charge array,
//   - the fused cubic-Hermite table of the screened-Coulomb kernel (one
//     array, 16,384 nodes = 512 KB at the default accuracy bound).
#pragma once

#include <span>
#include <vector>

#include "chem/topology.h"
#include "common/fixed_point.h"
#include "common/vec3.h"

namespace anton::md {

// Per-thread partial sums from the pair and exclusion kernels.
struct PairEnergyPartial {
  double lj = 0;
  double coul = 0;
  double excl = 0;
  double virial = 0;
};

// Fixed-point per-thread partials for the deterministic accumulation mode:
// each pair contribution is quantized once, so the cross-thread sum is
// exactly associative and the result independent of thread count.
// `overflow` is sticky: it is set when a contribution saturated or a sum
// wrapped, in this partial's thread or in a partial added into it.
struct PairEnergyPartialFixed {
  Fixed<32> lj, coul, excl, virial;
  bool overflow = false;

  PairEnergyPartialFixed& operator+=(const PairEnergyPartialFixed& o) {
    overflow |= o.overflow | lj.add_checked(o.lj) | coul.add_checked(o.coul) |
                excl.add_checked(o.excl) | virial.add_checked(o.virial);
    return *this;
  }
};

// Premixed LJ parameters for one type pair. e_shift is the pair energy at
// the cutoff (subtracted when shift_at_cutoff is on; zero otherwise).  The
// struct is padded to 4 doubles so the vectorized pair kernel can fetch a
// whole record per lane with simd::load_fields4 (contiguous loads + in-
// register transpose) instead of three hardware gathers.
struct LjMixed {
  double eps = 0;
  double sigma2 = 0;
  double e_shift = 0;
  double pad = 0;
};

// One interleaved Hermite node of the fused screened-Coulomb table: energy
// value/derivative and force-factor value/derivative at the same abscissa.
// Interleaving lets the pair kernel fetch both interpolants with a single
// index computation and one shared Hermite basis.
struct CoulNode {
  double ev, ed, fv, fd;
};

// Non-owning view of the fused table, sized for register-resident use in the
// inner pair loop.  Nodes sit at r² = x0 + k h for k in [0, n).
struct CoulTableView {
  const CoulNode* nodes = nullptr;
  double x0 = 0, h = 1, inv_h = 1;
  int n = 0;
};

class ForceWorkspace {
 public:
  // Builds the per-system caches (LJ table, scaled charges, erfc table).
  // Idempotent for identical (topology size, alpha, cutoff, shift, tabulate)
  // inputs, so callers may invoke it on every evaluation.
  //
  // When tabulate_erfc is set, the fused erfc energy/force table over
  // r² in [1, cutoff²] is refined by node doubling from 2,048 nodes until
  // its measured max relative error on interval midpoints is <=
  // table_target_err (the accuracy bound); alpha = 0 tabulates plain
  // 1/r Coulomb.  Refinement evaluates the midpoints from node values made
  // on the fly, so the table is allocated once, at its converged size.
  void build_cache(const Topology& top, double alpha, double cutoff,
                   bool shift_at_cutoff, bool tabulate_erfc,
                   double table_target_err = 1e-9);

  // Sizes the per-thread buffers; thread force buffers are zeroed whenever
  // their geometry changes and are otherwise kept zeroed by the reduction.
  void ensure_threads(unsigned nthreads, size_t n_atoms);

  // Restages positions (plus each atom's unscaled charge) into one
  // interleaved [x y z q] record per atom for the vectorized pair kernel:
  // a neighbor's displacement inputs and charge arrive with one
  // simd::load_fields4 record load instead of four hardware gathers.  The
  // buffer lives here (not per call) so the steady-state evaluation stays
  // allocation-free; only a geometry change resizes it.
  void stage_positions(std::span<const Vec3> pos,
                       std::span<const double> charges);
  const double* soa_xyzq() const { return soa_xyzq_.data(); }

  bool cache_ready() const { return cache_ready_; }
  int num_types() const { return ntypes_; }
  const LjMixed& lj(int ti, int tj) const {
    return lj_[static_cast<size_t>(ti) * static_cast<size_t>(ntypes_) +
               static_cast<size_t>(tj)];
  }
  // True when every pair row (ti, *) has eps == 0 (e.g. water hydrogens):
  // the pair kernel skips the whole LJ evaluation for such i-rows, whose
  // lanes would contribute exact +0.0 anyway.
  bool lj_row_zero(int ti) const {
    return lj_row_zero_[static_cast<size_t>(ti)] != 0;
  }
  std::span<const double> scaled_charges() const { return q_scaled_; }
  double coul_shift() const { return coul_shift_; }

  bool tables_ready() const { return tables_ready_; }
  CoulTableView coul_ef() const {
    return {ef_nodes_.data(), table_r2_min_, ef_h_, ef_inv_h_,
            static_cast<int>(ef_nodes_.size())};
  }
  double table_r2_min() const { return table_r2_min_; }
  // Max relative error of the erfc table measured at build time.
  double table_max_rel_err() const { return table_max_rel_err_; }

  unsigned num_threads() const {
    return static_cast<unsigned>(thread_f_.size());
  }
  std::span<Vec3> thread_force(unsigned t) { return thread_f_[t]; }
  PairEnergyPartial& partial(unsigned t) { return partials_[t]; }
  std::vector<size_t>& chunk_bounds() { return chunk_bounds_; }
  std::vector<Vec3>& f_long() { return f_long_; }

  // Fixed-point twins of the per-thread buffers, sized lazily by the
  // deterministic accumulation mode (and kept zeroed by its reduction).
  void ensure_fixed_threads(unsigned nthreads, size_t n_atoms);
  std::span<ForceFixed> thread_force_fixed(unsigned t) {
    return thread_fx_[t];
  }
  PairEnergyPartialFixed& partial_fixed(unsigned t) {
    return partials_fx_[t];
  }

 private:
  // Immutable per-system caches.
  std::vector<LjMixed> lj_;
  std::vector<char> lj_row_zero_;
  std::vector<double> q_scaled_;
  int ntypes_ = 0;
  double coul_shift_ = 0;
  double cache_alpha_ = -1, cache_cutoff_ = -1;
  bool cache_shift_ = false;
  bool cache_ready_ = false;

  std::vector<CoulNode> ef_nodes_;
  double ef_h_ = 1, ef_inv_h_ = 1;
  double table_r2_min_ = 0;
  double table_max_rel_err_ = 0;
  bool tables_ready_ = false;

  // Steady-state scratch.
  std::vector<double> soa_xyzq_;
  std::vector<std::vector<Vec3>> thread_f_;
  std::vector<PairEnergyPartial> partials_;
  std::vector<std::vector<ForceFixed>> thread_fx_;
  std::vector<PairEnergyPartialFixed> partials_fx_;
  std::vector<size_t> chunk_bounds_;
  std::vector<Vec3> f_long_;
};

// Mesh-density accumulator for the deterministic GSE spread: 40 fractional
// bits give 9.1e-13 resolution with a ±2^23 range — mesh charge densities
// are O(|q|/vol_cell), far inside that range, and the quantization error is
// orders of magnitude below the mesh discretization error.
using MeshFixed = Fixed<40>;
// Accumulator for the deterministic k-space energy/virial reductions: 16
// fractional bits leave ±1.4e14 of range for the per-point virial terms
// (which scale with the Green's function times |ρ̂|²) at 1.5e-5 resolution.
using MeshEnergyFixed = Fixed<16>;

// Per-thread scratch for the GSE mesh solver.  The axis arrays are sized
// (2r+1) per axis and hold the separable Gaussian weights, displacements and
// pre-wrapped mesh indices for one atom at a time; the grids are the
// per-thread charge-density accumulators for the threaded spread.
struct GseThreadScratch {
  std::vector<double> wx, wy, wz;     // per-axis Gaussian weights
  std::vector<double> dxs, dys, dzs;  // per-axis displacements (gather)
  std::vector<int> ix, iy, iz;        // pre-wrapped mesh indices
  // Per-thread charge grid for the threaded spread (kept zeroed between
  // uses by the zero-restoring merge), plus its fixed-point twin for the
  // deterministic mode.
  std::vector<double> rho;
  std::vector<MeshFixed> rho_fx;
  // Partial sums for the k-space virial multiply and the energy dot
  // product, with deterministic twins.
  double e = 0, w = 0;
  MeshEnergyFixed e_fx, w_fx;
};

// Persistent scratch owned by GseMesh, mirroring ForceWorkspace for the
// long-range path: sized once, then reused so the steady-state long-range
// step performs no heap allocation.
class GseWorkspace {
 public:
  // Sizes the per-thread scratch; idempotent for identical geometry.
  // `threaded_grids` requests the per-thread double charge grids (threaded
  // non-deterministic spread); `fixed_grids` the fixed-point twins
  // (deterministic spread at any thread count).  Grids are zeroed when
  // (re)created here and kept zeroed by the zero-restoring merge.
  void ensure(unsigned nthreads, int sx, int sy, int sz, size_t mesh_points,
              bool threaded_grids, bool fixed_grids);

  unsigned num_threads() const {
    return static_cast<unsigned>(threads_.size());
  }
  GseThreadScratch& thread(unsigned t) { return threads_[t]; }

 private:
  std::vector<GseThreadScratch> threads_;
  size_t mesh_points_ = 0;
  int sx_ = 0, sy_ = 0, sz_ = 0;
  bool threaded_grids_ = false;
  bool fixed_grids_ = false;
};

}  // namespace anton::md
