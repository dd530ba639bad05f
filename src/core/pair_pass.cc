#include "core/pair_pass.h"

#include <cmath>

#include "common/error.h"

namespace anton::core {

PairPass::PairPass(const Box& box, std::span<const Vec3> positions, double rc)
    : box_(box),
      rc2_(rc * rc),
      positions_(positions),
      grid_(box, rc),
      all_pairs_(grid_.nx() < 3 || grid_.ny() < 3 || grid_.nz() < 3),
      cells_per_layer_(all_pairs_ ? 1 : grid_.nx() * grid_.ny()) {
  ANTON_CHECK_MSG(rc <= box.max_cutoff(),
                  "cutoff " << rc << " exceeds minimum-image limit "
                            << box.max_cutoff());
  // A NaN or infinite coordinate would bin to a garbage cell or node.
  ANTON_CHECK_MSG(!positions.empty(), "the system has no atoms");
  for (size_t i = 0; i < positions.size(); ++i) {
    const Vec3& p = positions[i];
    ANTON_CHECK_MSG(
        std::isfinite(p.x) && std::isfinite(p.y) && std::isfinite(p.z),
        "atom " << i << " has a non-finite position (" << p.x << ", " << p.y
                << ", " << p.z << ")");
  }
  const int n = static_cast<int>(positions.size());
  atoms_.resize(static_cast<size_t>(n));
  if (all_pairs_) {
    for (int i = 0; i < n; ++i) atoms_[static_cast<size_t>(i)] = i;
    cell_start_ = {0, n};
    return;
  }
  // Bin on a scratch grid: its atom list and bin() scratch go once the
  // slots are laid out, and the pass keeps only the cell offsets.
  CellGrid binned = grid_;
  binned.bin(positions);
  cell_start_.resize(static_cast<size_t>(binned.num_cells()) + 1);
  const size_t padded = static_cast<size_t>(n + simd::kLanesD - 1);
  x_.assign(padded, 0.0);
  y_.assign(padded, 0.0);
  z_.assign(padded, 0.0);
  size_t slot = 0;
  for (int c = 0; c < binned.num_cells(); ++c) {
    cell_start_[static_cast<size_t>(c)] = static_cast<int>(slot);
    for (int a : binned.cell_atoms(c)) {
      const Vec3 w = box.wrap(positions[static_cast<size_t>(a)]);
      atoms_[slot] = a;
      x_[slot] = w.x;
      y_[slot] = w.y;
      z_[slot] = w.z;
      ++slot;
    }
  }
  cell_start_.back() = n;
}

std::vector<int> PairPass::split(int parts) const {
  const int layers = num_layers();
  const int m = std::clamp(parts, 1, layers);
  std::vector<int> bounds{0};
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
  return bounds;
}

PairPass::Window PairPass::reach(int z0, int z1) const {
  const int n = num_atoms();
  const int begin = layer_start(z0);
  // layer_start(1) is the end of layer 0, or of the fallback's one layer.
  const int end = z1 < num_layers() ? layer_start(z1 + 1) : n + layer_start(1);
  return {begin, std::min(end, begin + n)};
}

}  // namespace anton::core
