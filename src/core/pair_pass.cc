#include "core/pair_pass.h"

#include "common/error.h"

namespace anton::core {

PairPass::PairPass(const Box& box, std::span<const Vec3> positions, double rc)
    : box_(box),
      rc2_(rc * rc),
      positions_(positions),
      grid_(box, rc),
      all_pairs_(grid_.nx() < 3 || grid_.ny() < 3 || grid_.nz() < 3) {
  ANTON_CHECK_MSG(rc <= box.max_cutoff(),
                  "cutoff " << rc << " exceeds minimum-image limit "
                            << box.max_cutoff());
  const int n = static_cast<int>(positions.size());
  atoms_.resize(static_cast<size_t>(n));
  if (all_pairs_) {
    for (int i = 0; i < n; ++i) atoms_[static_cast<size_t>(i)] = i;
    return;
  }
  grid_.bin(positions);
  const size_t padded = static_cast<size_t>(n + simd::kLanesD - 1);
  x_.assign(padded, 0.0);
  y_.assign(padded, 0.0);
  z_.assign(padded, 0.0);
  size_t slot = 0;
  for (int c = 0; c < grid_.num_cells(); ++c) {
    for (int a : grid_.cell_atoms(c)) {
      const Vec3 w = box.wrap(positions[static_cast<size_t>(a)]);
      atoms_[slot] = a;
      x_[slot] = w.x;
      y_[slot] = w.y;
      z_[slot] = w.z;
      ++slot;
    }
  }
}

}  // namespace anton::core
