// The machine model's pair pass: every atom pair within the cutoff, found
// once, in one fixed order.
//
// This is the software counterpart of the HTIS match units, which filter
// candidate pairs ahead of the force pipelines.  Workload::build counts the
// pairs per node and tile, and analyze_decomposition counts the imports
// each scheme needs; both walk the pairs through this one routine.
//
// The emission order is part of the contract, because Tile::remote_atoms
// depends on it (see workload.h):
//
//   * Cell grids with at least 3 cells (side >= rc) per axis: cells in
//     ascending index, each cell's neighbours in CellGrid::half_stencil_shifts
//     order, then the cell's atoms in bin order, then the neighbour's atoms
//     in bin order (only later atoms within the cell itself).  The filter
//     reads a cell-sorted copy of the Box::wrap()ped positions and uses the
//     division-free cell-image displacement (a - b) - shift, the same
//     association Box::min_image evaluates, 4 candidates per SIMD step.
//   * Smaller grids: all pairs (i, j), i < j in atom order, filtered with
//     Box::distance2 on the positions as given.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/simd.h"
#include "common/vec3.h"
#include "geom/box.h"
#include "geom/cells.h"

namespace anton::core {

class PairPass {
 public:
  // Bins `positions` (wrapped or unwrapped) for cutoff `rc`, which must not
  // exceed box.max_cutoff().  The fallback reads `positions` in place, so
  // they must outlive the pass.
  PairPass(const Box& box, std::span<const Vec3> positions, double rc);

  int num_atoms() const { return static_cast<int>(atoms_.size()); }
  // Atom index held in `slot`.  Slots number the atoms in walk order (cell
  // by cell on the cell walk, atom order on the all-pairs fallback), so
  // per-atom data indexed by slot is read with good locality.
  int atom(int slot) const { return atoms_[static_cast<size_t>(slot)]; }

  // Calls f(s, t) on every pair of slots whose atoms lie within rc, with
  // atom(s) < atom(t), in the order described above.
  template <class F>
  void for_each(F&& f) const;

 private:
  Box box_;
  double rc2_;
  std::span<const Vec3> positions_;  // the fallback reads them as given
  CellGrid grid_;
  bool all_pairs_;           // under 3 cells along some axis
  std::vector<int> atoms_;   // slot -> atom
  // Wrapped positions by slot, padded with kLanesD - 1 zeros so a full
  // SIMD load never reads past the end.
  std::vector<double> x_, y_, z_;
};

template <class F>
void PairPass::for_each(F&& f) const {
  using simd::VecD;
  constexpr int W = simd::kLanesD;
  if (all_pairs_) {
    const int n = num_atoms();
    for (int i = 0; i < n; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (box_.distance2(positions_[static_cast<size_t>(i)],
                           positions_[static_cast<size_t>(j)]) < rc2_) {
          f(i, j);
        }
      }
    }
    return;
  }
  const VecD rc2 = VecD::broadcast(rc2_);
  const double* xs = x_.data();
  const double* ys = y_.data();
  const double* zs = z_.data();
  int cells[14];
  Vec3 shifts[14];
  for (int c = 0; c < grid_.num_cells(); ++c) {
    const int a_end = grid_.cell_start(c + 1);
    if (grid_.cell_start(c) == a_end) continue;
    const int stencil = grid_.half_stencil_shifts(c, cells, shifts);
    for (int e = 0; e < stencil; ++e) {
      // Entry 0 is the cell itself: only later atoms pair with each one.
      const bool self = e == 0;
      const int b_begin = grid_.cell_start(cells[e]);
      const int b_end = grid_.cell_start(cells[e] + 1);
      const VecD sx = VecD::broadcast(shifts[e].x);
      const VecD sy = VecD::broadcast(shifts[e].y);
      const VecD sz = VecD::broadcast(shifts[e].z);
      for (int s = grid_.cell_start(c); s < a_end; ++s) {
        const VecD ax = VecD::broadcast(xs[s]);
        const VecD ay = VecD::broadcast(ys[s]);
        const VecD az = VecD::broadcast(zs[s]);
        const int atom_s = atoms_[static_cast<size_t>(s)];
        // Filter 64 candidates into one hit word, then emit its set bits:
        // the data-dependent branches run once per hit and once per word,
        // not once per SIMD step.
        for (int t0 = self ? s + 1 : b_begin; t0 < b_end; t0 += 64) {
          const int count = std::min(64, b_end - t0);
          uint64_t word = 0;
          for (int q = 0; q < count; q += W) {
            const VecD dx = (ax - VecD::loadu(xs + t0 + q)) - sx;
            const VecD dy = (ay - VecD::loadu(ys + t0 + q)) - sy;
            const VecD dz = (az - VecD::loadu(zs + t0 + q)) - sz;
            const VecD r2 = (dx * dx + dy * dy) + dz * dz;
            word |= static_cast<uint64_t>(cmp_lt(r2, rc2).bits()) << q;
          }
          if (count < 64) word &= (uint64_t{1} << count) - 1;
          while (word != 0) {
            const int t = t0 + std::countr_zero(word);
            word &= word - 1;
            const bool lower = atom_s < atoms_[static_cast<size_t>(t)];
            f(lower ? s : t, lower ? t : s);
          }
        }
      }
    }
  }
}

}  // namespace anton::core
