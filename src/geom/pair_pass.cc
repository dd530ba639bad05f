#include "geom/pair_pass.h"

#include <cmath>

#include "common/error.h"

namespace anton {

PairPass::PairPass(const Box& box, std::span<const Vec3> positions, double rc)
    : rc_(rc), rc2_(rc * rc), grid_(box, rc) {
  rebin(box, positions);
}

void PairPass::rebin(const Box& box, std::span<const Vec3> positions) {
  ANTON_CHECK_MSG(rc_ <= box.max_cutoff(),
                  "pair radius " << rc_ << " exceeds minimum-image limit "
                                 << box.max_cutoff());
  // A NaN or infinite coordinate would bin to a garbage cell or node, and so
  // would a finite but huge one: at |x| ~ 1e18 Å, Box::wrap's
  // x - L floor(x / L) rounds by more than a box length.  Within 2^20 box
  // lengths of the origin it is exact to ~L 2^-32.  One comparison per axis
  // rejects all three (NaN fails every comparison).
  ANTON_CHECK_MSG(!positions.empty(), "the system has no atoms");
  const Vec3 limit = box.lengths() * 0x1p20;
  for (size_t i = 0; i < positions.size(); ++i) {
    const Vec3& p = positions[i];
    ANTON_CHECK_MSG(std::abs(p.x) <= limit.x && std::abs(p.y) <= limit.y &&
                        std::abs(p.z) <= limit.z,
                    "atom " << i
                            << " has a non-finite or out-of-range position ("
                            << p.x << ", " << p.y << ", " << p.z
                            << "): each coordinate must lie within 2^20 box "
                               "lengths of the origin");
  }
  grid_ = CellGrid(box, rc_);
  all_pairs_ = grid_.nx() < 3 || grid_.ny() < 3 || grid_.nz() < 3;
  cells_per_layer_ = all_pairs_ ? 1 : grid_.nx() * grid_.ny();
  const int n = static_cast<int>(positions.size());
  const size_t padded = static_cast<size_t>(n + simd::kLanesD - 1);
  atoms_.resize(static_cast<size_t>(n));
  x_.assign(padded, 0.0);
  y_.assign(padded, 0.0);
  z_.assign(padded, 0.0);
  auto place = [&](int slot, int atom, const Vec3& p) {
    atoms_[static_cast<size_t>(slot)] = atom;
    x_[static_cast<size_t>(slot)] = p.x;
    y_[static_cast<size_t>(slot)] = p.y;
    z_[static_cast<size_t>(slot)] = p.z;
  };
  if (all_pairs_) {
    cell_start_.assign({0, n});
    for (int i = 0; i < n; ++i) place(i, i, positions[static_cast<size_t>(i)]);
    return;
  }
  // Counting sort by cell, stable in atom order, with cell_start_ as the
  // only scratch: count into cell_start_[c + 1], sum, scatter with
  // cell_start_[c] as c's cursor (which leaves it at c + 1's start), then
  // shift back.  cell_of runs twice per atom rather than being kept.
  const int cells = grid_.num_cells();
  cell_start_.assign(static_cast<size_t>(cells) + 1, 0);
  for (const Vec3& p : positions) {
    ++cell_start_[static_cast<size_t>(grid_.cell_of(p)) + 1];
  }
  for (int c = 0; c < cells; ++c) {
    cell_start_[static_cast<size_t>(c) + 1] +=
        cell_start_[static_cast<size_t>(c)];
  }
  for (int i = 0; i < n; ++i) {
    const Vec3& p = positions[static_cast<size_t>(i)];
    place(cell_start_[static_cast<size_t>(grid_.cell_of(p))]++, i,
          box.wrap(p));
  }
  for (int c = cells; c > 0; --c) {
    cell_start_[static_cast<size_t>(c)] =
        cell_start_[static_cast<size_t>(c) - 1];
  }
  cell_start_[0] = 0;
}

void PairPass::split(int parts, std::vector<int>& bounds) const {
  const int layers = num_layers();
  const int m = std::clamp(parts, 1, layers);
  bounds.assign(1, 0);
  for (int k = 1; k < m; ++k) {
    // The layer boundary nearest k/m of the atoms, leaving at least one
    // layer for this range and for each range after it.
    const int64_t target = static_cast<int64_t>(num_atoms()) * k / m;
    const int lo = bounds.back() + 1;
    const int hi = layers - (m - k);
    int z = lo;
    while (z < hi && layer_start(z) < target) ++z;
    if (z > lo && target - layer_start(z - 1) < layer_start(z) - target) --z;
    bounds.push_back(z);
  }
  bounds.push_back(layers);
}

PairPass::Window PairPass::reach(int z0, int z1) const {
  const int n = num_atoms();
  const int begin = layer_start(z0);
  // layer_start(1) is the end of layer 0, or of the fallback's one layer.
  const int end = z1 < num_layers() ? layer_start(z1 + 1) : n + layer_start(1);
  return {begin, std::min(end, begin + n)};
}

}  // namespace anton
