// Cell (link-cell) decomposition of a periodic box.
//
// Used by the pair pass (geom/pair_pass.h), the one walk over atom pairs,
// and by the synthetic system builders for overlap rejection.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/vec3.h"
#include "geom/box.h"

namespace anton {

class CellGrid {
 public:
  // Builds a grid with cell side >= min_cell along each axis.  Allocates
  // nothing until bin().
  CellGrid(const Box& box, double min_cell);

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int nz() const { return nz_; }
  int num_cells() const { return nx_ * ny_ * nz_; }
  Vec3 cell_lengths() const {
    const Vec3& l = box_.lengths();
    return {l.x / nx_, l.y / ny_, l.z / nz_};
  }
  const Box& box() const { return box_; }

  // Cell index for a (wrapped or unwrapped) finite position.
  int cell_of(const Vec3& p) const {
    int cx, cy, cz;
    wrapped_coords(box_.wrap(p), &cx, &cy, &cz);
    return index(cx, cy, cz);
  }
  // Cell coordinates of a Box::wrap()ped position, as cell_of bins it.
  void wrapped_coords(const Vec3& w, int* cx, int* cy, int* cz) const {
    const Vec3& l = box_.lengths();
    *cx = std::min(static_cast<int>(w.x / l.x * nx_), nx_ - 1);
    *cy = std::min(static_cast<int>(w.y / l.y * ny_), ny_ - 1);
    *cz = std::min(static_cast<int>(w.z / l.z * nz_), nz_ - 1);
  }

  int index(int cx, int cy, int cz) const {
    return (cz * ny_ + cy) * nx_ + cx;
  }
  void coords(int cell, int* cx, int* cy, int* cz) const {
    *cx = cell % nx_;
    *cy = (cell / nx_) % ny_;
    *cz = cell / (nx_ * ny_);
  }

  // Periodic neighbour cell (including self at d=0,0,0).
  int neighbor(int cell, int dx, int dy, int dz) const {
    int cx, cy, cz;
    coords(cell, &cx, &cy, &cz);
    cx = (cx + dx % nx_ + nx_) % nx_;
    cy = (cy + dy % ny_ + ny_) % ny_;
    cz = (cz + dz % nz_ + nz_) % nz_;
    return index(cx, cy, cz);
  }

  // Bins positions; afterwards cell_atoms(c) lists atom indices in cell c.
  // The positions must be finite.
  void bin(std::span<const Vec3> positions);

  std::span<const int> cell_atoms(int cell) const {
    const auto begin = starts_[static_cast<size_t>(cell)];
    const auto end = starts_[static_cast<size_t>(cell) + 1];
    return {atoms_.data() + begin, atoms_.data() + end};
  }

  // The 27-cell stencil (self + 26 neighbours) may alias itself on very
  // small grids; returns unique cells only.
  std::vector<int> stencil(int cell) const;

  // Half stencil for pair enumeration without double counting (self first,
  // then 13 neighbours), with the periodic image shift of each neighbour
  // cell: for atom a in `cell` (wrapped position wa) and atom b in
  // neighbour entry k (wrapped position wb), the cell-image displacement is
  // wa - wb - shifts[k], which equals the minimum-image displacement for
  // any pair within the cell side length.  Writes up to 14 entries into
  // cells/shifts and returns the count.  Precondition: at least 3 cells
  // along every axis (no stencil aliasing); PairPass, its one caller, falls
  // back to all pairs otherwise.
  int half_stencil_shifts(int cell, int* cells, Vec3* shifts) const;

 private:
  Box box_;
  int nx_, ny_, nz_;
  std::vector<int> atoms_;    // atom indices sorted by cell
  std::vector<int> starts_;   // CSR offsets, size num_cells()+1
  // bin() scratch, persistent so rebinning does not allocate.
  std::vector<int> bin_cell_of_atom_;
  std::vector<int> bin_cursor_;
};

}  // namespace anton
