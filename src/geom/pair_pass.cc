#include "geom/pair_pass.h"

#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/threadpool.h"

namespace anton {

PairPass::PairPass(const Box& box, std::span<const Vec3> positions, double rc,
                   ThreadPool* pool)
    : rc_(rc),
      rc2_(rc * rc),
      band_lo_(static_cast<float>(rc2_ * (1 - kBand))),
      band_hi_(static_cast<float>(rc2_ * (1 + kBand))),
      grid_(box, rc) {
  rebin(box, positions, pool);
}

void PairPass::rebin(const Box& box, std::span<const Vec3> positions,
                     ThreadPool* pool) {
  ANTON_CHECK_MSG(rc_ <= box.max_cutoff(),
                  "pair radius " << rc_ << " exceeds minimum-image limit "
                                 << box.max_cutoff());
  ANTON_CHECK_MSG(!positions.empty(), "the system has no atoms");
  grid_ = CellGrid(box, rc_);
  all_pairs_ = grid_.nx() < 3 || grid_.ny() < 3 || grid_.nz() < 3;
  cells_per_layer_ = all_pairs_ ? 1 : grid_.nx() * grid_.ny();
  const int n = static_cast<int>(positions.size());
  const int cells = all_pairs_ ? 0 : grid_.num_cells();
  const int chunks =
      pool != nullptr && !all_pairs_ ? static_cast<int>(pool->size()) : 1;
  auto run = [&](auto&& phase) {
    if (chunks == 1) {
      phase(0u);
    } else {
      pool->for_each_thread(phase);
    }
  };
  // Counting sort by cell, stable in atom order.  Each chunk counts its
  // atoms per cell (checking every position on the way); an exclusive
  // prefix over the cells, and within a cell over the chunks in order,
  // turns the counts into the chunks' scatter cursors; each chunk places
  // its atoms at its cursors, which leaves the last chunk's at the end of
  // each cell.  Each atom's cell is computed twice rather than kept.
  cell_start_.assign(static_cast<size_t>(cells) + 1, 0);
  cursors_.assign(static_cast<size_t>(chunks - 1) * cells, 0);
  std::atomic<int> bad{n};
  run([&](unsigned t) {
    count_chunk(positions, static_cast<int>(t), chunks, bad);
  });
  const int first_bad = bad.load(std::memory_order_relaxed);
  if (first_bad < n) cell_start_.assign(1, 0);  // leaves the pass empty
  ANTON_CHECK_MSG(first_bad == n,
                  "atom " << first_bad
                          << " has a non-finite or out-of-range position "
                          << positions[static_cast<size_t>(first_bad)]
                          << ": each coordinate must lie within 2^20 box "
                             "lengths of the origin");
  atoms_.assign(static_cast<size_t>(n + kWord - 1), 0);
  x_.resize(static_cast<size_t>(n));
  y_.resize(static_cast<size_t>(n));
  z_.resize(static_cast<size_t>(n));
  if (all_pairs_) {
    cell_start_.assign({0, n});
    for (int i = 0; i < n; ++i) {
      const Vec3& p = positions[static_cast<size_t>(i)];
      const auto slot = static_cast<size_t>(i);
      atoms_[slot] = i;
      x_[slot] = p.x;
      y_[slot] = p.y;
      z_[slot] = p.z;
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
  int start = 0;
  for (int c = 0; c < cells; ++c) {
    for (int t = 0; t < chunks; ++t) {
      int& cursor = chunk_cursors(t)[c];
      const int count = cursor;
      cursor = start;
      start += count;
    }
  }
  run([&](unsigned t) {
    scatter_chunk(positions, static_cast<int>(t), chunks);
  });
  // Backwards, so that a serial binning's cursors, which are cell_start_
  // itself, shift up in place.
  const int* ends = chunk_cursors(chunks - 1);
  for (int c = cells; c > 0; --c) {
    cell_start_[static_cast<size_t>(c)] = ends[c - 1];
  }
  cell_start_[0] = 0;
  bounds_.resize(static_cast<size_t>(cells));
  run([&](unsigned t) { bound_chunk(static_cast<int>(t), chunks); });
}

void PairPass::count_chunk(std::span<const Vec3> positions, int t, int chunks,
                           std::atomic<int>& bad) {
  ANTON_HOT_NOALLOC();
  // A NaN or infinite coordinate would bin to a garbage cell or node, and so
  // would a finite but huge one: at |x| ~ 1e18 Å, Box::wrap's
  // x - L floor(x / L) rounds by more than a box length.  Within 2^20 box
  // lengths of the origin it is exact to ~L 2^-32.  One comparison per axis
  // rejects all three (NaN fails every comparison).
  const Vec3 limit = grid_.box().lengths() * 0x1p20;
  const size_t n = positions.size();
  const Vec3* pos = positions.data();
  int* counts = chunk_cursors(t);
  const auto end = static_cast<int>(ThreadPool::chunk_begin(n, t + 1, chunks));
  for (auto i = static_cast<int>(ThreadPool::chunk_begin(n, t, chunks));
       i < end; ++i) {
    const Vec3& p = pos[i];
    if (!(std::abs(p.x) <= limit.x && std::abs(p.y) <= limit.y &&
          std::abs(p.z) <= limit.z)) {
      int seen = bad.load(std::memory_order_relaxed);
      while (i < seen &&
             !bad.compare_exchange_weak(seen, i, std::memory_order_relaxed)) {
      }
      return;
    }
    if (!all_pairs_) ++counts[grid_.cell_of(p)];
  }
}

void PairPass::scatter_chunk(std::span<const Vec3> positions, int t,
                             int chunks) {
  ANTON_HOT_NOALLOC();
  const Box& box = grid_.box();
  // A cell's frame has its origin at the cell's lower corner, so the
  // float coordinates lie within about one cell side of 0.
  const Vec3 h = grid_.cell_lengths();
  const size_t n = positions.size();
  const Vec3* pos = positions.data();
  int* cursors = chunk_cursors(t);
  const auto end = static_cast<int>(ThreadPool::chunk_begin(n, t + 1, chunks));
  for (auto i = static_cast<int>(ThreadPool::chunk_begin(n, t, chunks));
       i < end; ++i) {
    const Vec3 w = box.wrap(pos[i]);
    int cx, cy, cz;
    grid_.wrapped_coords(w, &cx, &cy, &cz);
    const int slot = cursors[grid_.index(cx, cy, cz)]++;
    atoms_[static_cast<size_t>(slot)] = i;
    x_[static_cast<size_t>(slot)] = w.x;
    y_[static_cast<size_t>(slot)] = w.y;
    z_[static_cast<size_t>(slot)] = w.z;
    fx_[static_cast<size_t>(slot)] = static_cast<float>(w.x - cx * h.x);
    fy_[static_cast<size_t>(slot)] = static_cast<float>(w.y - cy * h.y);
    fz_[static_cast<size_t>(slot)] = static_cast<float>(w.z - cz * h.z);
  }
}

void PairPass::bound_chunk(int t, int chunks) {
  ANTON_HOT_NOALLOC();
  const int cells = grid_.num_cells();
  const int* start = cell_start_.data();
  // Chunk k's cells begin at the first cell starting at or after its share
  // of the atoms.
  auto first_cell = [&](int k) {
    if (k == chunks) return cells;
    const auto first = static_cast<int>(ThreadPool::chunk_begin(
        static_cast<size_t>(num_atoms()), k, chunks));
    return static_cast<int>(std::lower_bound(start, start + cells, first) -
                            start);
  };
  constexpr float inf = std::numeric_limits<float>::infinity();
  const int c1 = first_cell(t + 1);
  for (int c = first_cell(t); c < c1; ++c) {
    Bounds b{{inf, inf, inf}, {-inf, -inf, -inf}};
    for (int s = start[c]; s < start[c + 1]; ++s) {
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
