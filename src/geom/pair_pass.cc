#include "geom/pair_pass.h"

#include <cmath>
#include <limits>

#include "common/error.h"

namespace anton {

PairPass::PairPass(const Box& box, std::span<const Vec3> positions, double rc)
    : rc_(rc),
      rc2_(rc * rc),
      band_lo_(static_cast<float>(rc2_ * (1 - kBand))),
      band_hi_(static_cast<float>(rc2_ * (1 + kBand))),
      grid_(box, rc) {
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
  atoms_.assign(static_cast<size_t>(n + kWord - 1), 0);
  x_.resize(static_cast<size_t>(n));
  y_.resize(static_cast<size_t>(n));
  z_.resize(static_cast<size_t>(n));
  auto place = [&](size_t slot, int atom, const Vec3& p) {
    atoms_[slot] = atom;
    x_[slot] = p.x;
    y_[slot] = p.y;
    z_[slot] = p.z;
  };
  if (all_pairs_) {
    cell_start_.assign({0, n});
    for (int i = 0; i < n; ++i) {
      place(static_cast<size_t>(i), i, positions[static_cast<size_t>(i)]);
    }
    fx_.clear();
    fy_.clear();
    fz_.clear();
    bounds_.clear();
    return;
  }
  const size_t padded = static_cast<size_t>(n + simd::kLanesF - 1);
  fx_.assign(padded, 0.0f);
  fy_.assign(padded, 0.0f);
  fz_.assign(padded, 0.0f);
  // Counting sort by cell, stable in atom order, with cell_start_ as the
  // only scratch: count into cell_start_[c + 1], sum, scatter with
  // cell_start_[c] as c's cursor (which leaves it at c + 1's start), then
  // shift back.  Each atom's cell is computed twice rather than kept.
  const int cells = grid_.num_cells();
  cell_start_.assign(static_cast<size_t>(cells) + 1, 0);
  for (const Vec3& p : positions) {
    ++cell_start_[static_cast<size_t>(grid_.cell_of(p)) + 1];
  }
  for (int c = 0; c < cells; ++c) {
    cell_start_[static_cast<size_t>(c) + 1] +=
        cell_start_[static_cast<size_t>(c)];
  }
  // A cell's frame has its origin at the cell's lower corner, so the
  // float coordinates lie within about one cell side of 0.
  const Vec3 h = grid_.cell_lengths();
  for (int i = 0; i < n; ++i) {
    const Vec3 w = box.wrap(positions[static_cast<size_t>(i)]);
    int cx, cy, cz;
    grid_.wrapped_coords(w, &cx, &cy, &cz);
    const auto slot = static_cast<size_t>(
        cell_start_[static_cast<size_t>(grid_.index(cx, cy, cz))]++);
    place(slot, i, w);
    fx_[slot] = static_cast<float>(w.x - cx * h.x);
    fy_[slot] = static_cast<float>(w.y - cy * h.y);
    fz_[slot] = static_cast<float>(w.z - cz * h.z);
  }
  for (int c = cells; c > 0; --c) {
    cell_start_[static_cast<size_t>(c)] =
        cell_start_[static_cast<size_t>(c) - 1];
  }
  cell_start_[0] = 0;
  bounds_.resize(static_cast<size_t>(cells));
  for (int c = 0; c < cells; ++c) {
    constexpr float inf = std::numeric_limits<float>::infinity();
    Bounds b{{inf, inf, inf}, {-inf, -inf, -inf}};
    for (int s = cell_start_[static_cast<size_t>(c)];
         s < cell_start_[static_cast<size_t>(c) + 1]; ++s) {
      const float f[3] = {fx_[static_cast<size_t>(s)],
                          fy_[static_cast<size_t>(s)],
                          fz_[static_cast<size_t>(s)]};
      for (int k = 0; k < 3; ++k) {
        b.lo[k] = std::min(b.lo[k], f[k]);
        b.hi[k] = std::max(b.hi[k], f[k]);
      }
    }
    bounds_[static_cast<size_t>(c)] = b;
  }
}

void PairPass::frame_offset(int c, int cell, const Vec3& shift,
                            float off[3]) const {
  int a[3], b[3];
  grid_.coords(c, &a[0], &a[1], &a[2]);
  grid_.coords(cell, &b[0], &b[1], &b[2]);
  const int n[3] = {grid_.nx(), grid_.ny(), grid_.nz()};
  const Vec3 h = grid_.cell_lengths();
  for (int k = 0; k < 3; ++k) {
    // A neighbour across the periodic boundary sits one image away.
    const int wrap = shift[k] > 0 ? n[k] : shift[k] < 0 ? -n[k] : 0;
    off[k] = static_cast<float>(b[k] - a[k] + wrap) * static_cast<float>(h[k]);
  }
}

bool PairPass::culls(int s, int cell) const {
  ANTON_CHECK_MSG(!all_pairs_, "the all-pairs fallback culls nothing");
  const int c = static_cast<int>(std::upper_bound(cell_start_.begin(),
                                                  cell_start_.end(), s) -
                                 cell_start_.begin()) -
                1;
  int cells[14];
  Vec3 shifts[14];
  const int stencil = grid_.half_stencil_shifts(c, cells, shifts);
  for (int e = 1; e < stencil; ++e) {
    if (cells[e] != cell) continue;
    float off[3];
    frame_offset(c, cell, shifts[e], off);
    const float p[3] = {fx_[static_cast<size_t>(s)] - off[0],
                        fy_[static_cast<size_t>(s)] - off[1],
                        fz_[static_cast<size_t>(s)] - off[2]};
    return gap2(cell, p) >= band_hi_;
  }
  ANTON_CHECK_MSG(false, "cell " << cell << " is not a neighbour of slot "
                                 << s << "'s half stencil");
  return false;
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
