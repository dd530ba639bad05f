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
//     in bin order (only later atoms within the cell itself).  A pair is in
//     range when the division-free cell-image displacement (a - b) - shift
//     of the Box::wrap()ped positions, the same association Box::min_image
//     evaluates, has r^2 < rc^2.  A float filter on cell-local coordinates,
//     8 candidates per SIMD step, decides every candidate whose float r^2
//     lies outside a relative band of kBand around rc^2, far wider than
//     the float error; the exact double test decides the rest.  An
//     (atom, neighbour cell) segment whose float gap to the bounds of that
//     cell's atoms reaches the band is skipped: by monotone rounding no
//     candidate in it could pass the filter, so the hits are those of the
//     exact test alone.
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

  // The filter's band: a candidate whose float r^2 lies within a relative
  // kBand of rc^2 is re-decided by the exact double test.
  static constexpr double kBand = 0x1p-10;
  // Candidates per hit word (for_each_word).
  static constexpr int kWord = 64;

  int num_atoms() const { return cell_start_.back(); }
  // Atom index held in `slot`.  Slots number the atoms in walk order (cell
  // by cell on the cell walk, atom order on the all-pairs fallback), so
  // per-atom data indexed by slot is read with good locality.
  int atom(int slot) const { return atoms_[static_cast<size_t>(slot)]; }
  // atom(slot) for every slot, padded with kWord - 1 zeros so that the
  // kWord slots of a hit word can be loaded whole.
  const int* slot_atoms() const { return atoms_.data(); }

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

  // Calls g(s, t0, word) with the hits of slot s among the slots
  // [t0, t0 + kWord): bit k of `word` is set when slots s and t0 + k lie
  // within rc, and `word` is never 0.  The pairs are those whose home cell
  // lies in layers [z0, z1), in the order described above (ascending bits
  // within a word); consecutive ranges concatenate to the full walk.  The
  // atom order of a pair is not resolved: atom(s) may exceed atom(t).
  template <class G>
  void for_each_word(int z0, int z1, G&& g) const;

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

  // Whether the walk skips slot s against `cell`, a neighbour of s's cell
  // in its half stencil, without filtering a candidate: the float gap from
  // s to the bounds of that cell's atoms reaches the band's upper edge.
  // The cell walk only.
  bool culls(int s, int cell) const;

 private:
  // Float bounds of a cell's atoms in its own frame (24 B/cell).
  struct Bounds {
    float lo[3];
    float hi[3];
  };

  // The origin of the frame of `cell`, a neighbour of cell c reached with
  // image `shift`, minus c's: d * h per axis with d in {-1, 0, 1}, in float.
  void frame_offset(int c, int cell, const Vec3& shift, float off[3]) const;
  // The float squared gap from `p`, given in `cell`'s frame, to the bounds
  // of its atoms, with the filter's own operations, so that it does not
  // exceed any of those atoms' float r^2.
  float gap2(int cell, const float p[3]) const {
    const Bounds& b = bounds_[static_cast<size_t>(cell)];
    float g[3];
    for (int k = 0; k < 3; ++k) {
      g[k] = std::max(0.0f, std::max(b.lo[k] - p[k], p[k] - b.hi[k]));
    }
    return (g[0] * g[0] + g[1] * g[1]) + g[2] * g[2];
  }

  double rc_;
  double rc2_;
  // The band's edges in float: a float r^2 below band_lo_ is a hit, one at
  // or above band_hi_ a miss.
  float band_lo_;
  float band_hi_;
  CellGrid grid_;  // box and cell geometry; never binned
  bool all_pairs_ = false;  // under 3 cells along some axis
  int cells_per_layer_ = 1;  // nx * ny; 1 on the fallback
  std::vector<int> cell_start_;  // cell -> first slot, plus num_atoms()
  // slot -> atom, padded with kWord - 1 zeros (slot_atoms()).
  std::vector<int> atoms_;
  // Positions by slot, wrapped on the cell walk and as given on the
  // fallback: the exact test's operands.
  std::vector<double> x_, y_, z_;
  // The cell walk's filter operands: positions by slot relative to their
  // cell's origin in float, padded with kLanesF - 1 zeros so that a full
  // SIMD load never reads past the end, and each cell's bounds.  Empty on
  // the fallback.
  std::vector<float> fx_, fy_, fz_;
  std::vector<Bounds> bounds_;
};

template <class G>
void PairPass::for_each_word(int z0, int z1, G&& g) const {
  const double* xs = x_.data();
  const double* ys = y_.data();
  const double* zs = z_.data();
  if (all_pairs_) {
    const Box& box = grid_.box();
    const int n = num_atoms();
    for (int i = layer_start(z0); i < layer_start(z1); ++i) {
      const Vec3 pi{xs[i], ys[i], zs[i]};
      for (int j0 = i + 1; j0 < n; j0 += kWord) {
        const int count = std::min(kWord, n - j0);
        uint64_t word = 0;
        for (int k = 0; k < count; ++k) {
          const int j = j0 + k;
          if (box.distance2(pi, Vec3{xs[j], ys[j], zs[j]}) < rc2_) {
            word |= uint64_t{1} << k;
          }
        }
        if (word != 0) g(i, j0, word);
      }
    }
    return;
  }
  using simd::VecF;
  constexpr int W = simd::kLanesF;
  const float* fx = fx_.data();
  const float* fy = fy_.data();
  const float* fz = fz_.data();
  const VecF lo = VecF::broadcast(band_lo_);
  const VecF hi = VecF::broadcast(band_hi_);
  const int* start = cell_start_.data();
  int cells[14];
  Vec3 shifts[14];
  for (int c = z0 * cells_per_layer_; c < z1 * cells_per_layer_; ++c) {
    const int a_end = start[c + 1];
    if (start[c] == a_end) continue;
    const int stencil = grid_.half_stencil_shifts(c, cells, shifts);
    for (int e = 0; e < stencil; ++e) {
      // Entry 0 is the cell itself: only later atoms pair with each one,
      // and every one lies within its bounds.
      const bool self = e == 0;
      const int b_begin = start[cells[e]];
      const int b_end = start[cells[e] + 1];
      if (b_begin == b_end) continue;
      float off[3];
      frame_offset(c, cells[e], shifts[e], off);
      for (int s = start[c]; s < a_end; ++s) {
        // s in the neighbour cell's frame.
        const float p[3] = {fx[s] - off[0], fy[s] - off[1], fz[s] - off[2]};
        if (!self && gap2(cells[e], p) >= band_hi_) continue;
        const VecF ax = VecF::broadcast(p[0]);
        const VecF ay = VecF::broadcast(p[1]);
        const VecF az = VecF::broadcast(p[2]);
        // Filter a word of candidates into a sure-hit word and a band
        // word; only the band's candidates take the exact test.
        for (int t0 = self ? s + 1 : b_begin; t0 < b_end; t0 += kWord) {
          const int count = std::min(kWord, b_end - t0);
          // Each step's lanes enter at the top of the words, so every
          // shift is by a constant; the last step's land at the top.
          uint64_t sure = 0;
          uint64_t maybe = 0;
          int q = 0;
          for (; q < count; q += W) {
            const VecF dx = ax - VecF::loadu(fx + t0 + q);
            const VecF dy = ay - VecF::loadu(fy + t0 + q);
            const VecF dz = az - VecF::loadu(fz + t0 + q);
            const VecF r2 = (dx * dx + dy * dy) + dz * dz;
            sure = sure >> W | static_cast<uint64_t>(cmp_lt(r2, lo).bits())
                                   << (kWord - W);
            maybe = maybe >> W | static_cast<uint64_t>(cmp_lt(r2, hi).bits())
                                     << (kWord - W);
          }
          sure >>= kWord - q;
          maybe >>= kWord - q;
          if (count < kWord) {
            const uint64_t valid = (uint64_t{1} << count) - 1;
            sure &= valid;
            maybe &= valid;
          }
          for (uint64_t band = maybe & ~sure; band != 0; band &= band - 1) {
            const int k = std::countr_zero(band);
            const int t = t0 + k;
            const double dx = (xs[s] - xs[t]) - shifts[e].x;
            const double dy = (ys[s] - ys[t]) - shifts[e].y;
            const double dz = (zs[s] - zs[t]) - shifts[e].z;
            if ((dx * dx + dy * dy) + dz * dz < rc2_) sure |= uint64_t{1} << k;
          }
          if (sure != 0) g(s, t0, sure);
        }
      }
    }
  }
}

template <class F>
void PairPass::for_each(int z0, int z1, F&& f) const {
  const int* atoms = atoms_.data();
  for_each_word(z0, z1, [&](int s, int t0, uint64_t word) {
    const int atom_s = atoms[s];
    for (; word != 0; word &= word - 1) {
      const int t = t0 + std::countr_zero(word);
      const bool lower = atom_s < atoms[t];
      f(lower ? s : t, lower ? t : s);
    }
  });
}

}  // namespace anton
