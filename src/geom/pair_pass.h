// The pair pass: every atom pair within a radius, found once, in one fixed
// order.  It is the tree's only pair enumeration.
//
// This is the software counterpart of the HTIS match units, which filter
// candidate pairs ahead of the force pipelines.  The machine model walks it
// at the machine cutoff (Workload::build counts the pairs per node and
// tile, analyze_decomposition counts the imports each scheme needs), the
// MD engine at cutoff + skin (md::NeighborList stores the pairs), and the
// RDF at its range (md::RdfAccumulator histograms them).
//
// The emission order is part of the contract, because Tile::remote_atoms
// depends on it (see core/workload.h):
//
//   * Cell grids with at least 3 cells (side >= rc) per axis: cells in
//     ascending index, each cell's neighbours in CellGrid::half_stencil_shifts
//     order, then the cell's atoms in bin order, then the neighbour's atoms
//     in bin order (only later atoms within the cell itself).  The filter
//     reads a cell-sorted copy of the Box::wrap()ped positions and uses the
//     division-free cell-image displacement (a - b) - shift, the same
//     association Box::min_image evaluates, 4 candidates per SIMD step.
//   * Smaller grids: all pairs (i, j), i < j in atom order, filtered with
//     Box::distance2 on a copy of the positions as given.
//
// The walk can be split into z-layers of home cells, so that threads walk
// disjoint layer ranges; the full walk is their concatenation in layer order.
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

namespace anton {

class PairPass {
 public:
  // Bins `positions` (wrapped or unwrapped) for radius `rc`; see rebin().
  PairPass(const Box& box, std::span<const Vec3> positions, double rc);

  // Bins `positions` for `box` at the constructor's radius, which must not
  // exceed box.max_cutoff().  Before any binning it rejects, with
  // anton::Error, an empty system and a non-finite position (naming the
  // atom).  The pass copies what it needs, so `positions` may change or go
  // afterwards.  Storage is reused: with the atom count and cell grid of
  // the previous binning, a rebin allocates nothing.
  void rebin(const Box& box, std::span<const Vec3> positions);

  int num_atoms() const { return static_cast<int>(atoms_.size()); }
  // Atom index held in `slot`.  Slots number the atoms in walk order (cell
  // by cell on the cell walk, atom order on the all-pairs fallback), so
  // per-atom data indexed by slot is read with good locality.
  int atom(int slot) const { return atoms_[static_cast<size_t>(slot)]; }

  // Home cells are numbered z-major (CellGrid::index), so z-layer z is a
  // contiguous run of cells and of slots: [layer_start(z),
  // layer_start(z + 1)).  The all-pairs fallback is one layer.
  int num_layers() const {
    return static_cast<int>(cell_start_.size() - 1) / cells_per_layer_;
  }
  int layer_start(int z) const {
    return cell_start_[static_cast<size_t>(z) * cells_per_layer_];
  }

  // Splits the layers into at most `parts` contiguous ranges of at least
  // one layer each, balanced by atom count.  Writes the boundaries
  // 0 = z_0 < z_1 < ... < z_m = num_layers() into `bounds`, reusing its
  // storage.
  void split(int parts, std::vector<int>& bounds) const;

  // The slots for_each(z0, z1, f) can pass to f.  The half stencil reaches
  // only the home layer and the next one, wrapping to layer 0, so these are
  // the slots of layers z0 .. z1 (mod num_layers()): [begin, end) with
  // slot numbers taken modulo num_atoms(), end - begin <= num_atoms().
  struct Window {
    int begin;
    int end;
  };
  Window reach(int z0, int z1) const;

  // Calls f(s, t) on every pair of slots whose atoms lie within rc, with
  // atom(s) < atom(t), in the order described above.
  template <class F>
  void for_each(F&& f) const {
    for_each(0, num_layers(), f);
  }
  // The same for the pairs whose home cell lies in layers [z0, z1), in the
  // same order; consecutive ranges concatenate to the full walk.
  template <class F>
  void for_each(int z0, int z1, F&& f) const;

 private:
  double rc_;
  double rc2_;
  CellGrid grid_;  // box and cell geometry; never binned
  bool all_pairs_ = false;  // under 3 cells along some axis
  int cells_per_layer_ = 1;  // nx * ny; 1 on the fallback
  std::vector<int> cell_start_;  // cell -> first slot, plus num_atoms()
  std::vector<int> atoms_;       // slot -> atom
  // Positions by slot, wrapped on the cell walk and as given on the
  // fallback, padded with kLanesD - 1 zeros so a full SIMD load never
  // reads past the end.
  std::vector<double> x_, y_, z_;
};

template <class F>
void PairPass::for_each(int z0, int z1, F&& f) const {
  using simd::VecD;
  constexpr int W = simd::kLanesD;
  const double* xs = x_.data();
  const double* ys = y_.data();
  const double* zs = z_.data();
  if (all_pairs_) {
    const Box& box = grid_.box();
    const int n = num_atoms();
    for (int i = layer_start(z0); i < layer_start(z1); ++i) {
      const Vec3 pi{xs[i], ys[i], zs[i]};
      for (int j = i + 1; j < n; ++j) {
        if (box.distance2(pi, Vec3{xs[j], ys[j], zs[j]}) < rc2_) f(i, j);
      }
    }
    return;
  }
  const VecD rc2 = VecD::broadcast(rc2_);
  const int* start = cell_start_.data();
  int cells[14];
  Vec3 shifts[14];
  for (int c = z0 * cells_per_layer_; c < z1 * cells_per_layer_; ++c) {
    const int a_end = start[c + 1];
    if (start[c] == a_end) continue;
    const int stencil = grid_.half_stencil_shifts(c, cells, shifts);
    for (int e = 0; e < stencil; ++e) {
      // Entry 0 is the cell itself: only later atoms pair with each one.
      const bool self = e == 0;
      const int b_begin = start[cells[e]];
      const int b_end = start[cells[e] + 1];
      const VecD sx = VecD::broadcast(shifts[e].x);
      const VecD sy = VecD::broadcast(shifts[e].y);
      const VecD sz = VecD::broadcast(shifts[e].z);
      for (int s = start[c]; s < a_end; ++s) {
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

}  // namespace anton
