#include "core/workload.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <exception>

#include "common/error.h"
#include "common/simd.h"
#include "common/threadpool.h"
#include "fft/fft.h"
#include "geom/pair_pass.h"

namespace anton::core {

namespace {

// Periodic node-grid delta from a to b, wrapped into (-n/2, n/2].
int wrap_delta(int a, int b, int n) {
  int d = (b - a) % n;
  if (d > n / 2) d -= n;
  if (d < -(n - 1) / 2) d += n;
  return d;
}

bool positive_half(int dx, int dy, int dz) {
  return dz > 0 || (dz == 0 && dy > 0) || (dz == 0 && dy == 0 && dx > 0);
}

// Dense index of the tile offsets a pair can span.  A pair within rc spans
// at most r = min(ceil(rc / home box), n / 2) nodes per axis, so its tile
// offset lies in the cube [-r, r]^3, numbered here in (dx, dy, dz)
// lexicographic order; only its positive half is ever used.
class TileIndex {
 public:
  TileIndex(const DomainDecomp& dd, double rc) {
    const Vec3 hb = dd.home_box_lengths();
    const int n[3] = {dd.nx(), dd.ny(), dd.nz()};
    for (int axis = 0; axis < 3; ++axis) {
      r_[axis] = std::min(n[axis] / 2,
                          static_cast<int>(std::ceil(rc / hb[axis])));
      side_[axis] = 2 * n[axis] - 1;
    }
    // Nodes get mixed-radix codes over 2n - 1 values per axis, so the
    // difference of two codes identifies the coordinate difference.
    rank_code_.resize(static_cast<size_t>(dd.num_nodes()));
    for (int v = 0; v < dd.num_nodes(); ++v) {
      int x, y, z;
      dd.coords(v, &x, &y, &z);
      rank_code_[static_cast<size_t>(v)] = code(x, y, z);
    }
    center_ = code(n[0] - 1, n[1] - 1, n[2] - 1);
    lookup_.assign(static_cast<size_t>(side_[0]) * side_[1] * side_[2], -1);
    for (int rz = 1 - n[2]; rz < n[2]; ++rz) {
      for (int ry = 1 - n[1]; ry < n[1]; ++ry) {
        for (int rx = 1 - n[0]; rx < n[0]; ++rx) {
          NodeOffset d{wrap_delta(0, rx, n[0]), wrap_delta(0, ry, n[1]),
                       wrap_delta(0, rz, n[2])};
          if (d.dx == 0 && d.dy == 0 && d.dz == 0) continue;
          const bool flip = !positive_half(d.dx, d.dy, d.dz);
          if (flip) d = {-d.dx, -d.dy, -d.dz};
          if (std::abs(d.dx) > r_[0] || std::abs(d.dy) > r_[1] ||
              std::abs(d.dz) > r_[2]) {
            continue;
          }
          lookup_[static_cast<size_t>(code(rx, ry, rz) + center_)] =
              2 * (((d.dx + r_[0]) * (2 * r_[1] + 1) + d.dy + r_[1]) *
                       (2 * r_[2] + 1) +
                   d.dz + r_[2]) +
              (flip ? 1 : 0);
        }
      }
    }
  }

  int size() const {
    return (2 * r_[0] + 1) * (2 * r_[1] + 1) * (2 * r_[2] + 1);
  }
  NodeOffset offset(int k) const {
    const int sy = 2 * r_[1] + 1, sz = 2 * r_[2] + 1;
    return {k / (sy * sz) - r_[0], k / sz % sy - r_[1], k % sz - r_[2]};
  }
  // Where a pair on distinct nodes a and b counts.  `up` is its place when
  // a holds the atom with the lower index: node a's tile at the wrapped
  // offset b - a, or with flip set, node b's tile at a - b, whichever
  // offset is in the positive half; `down` is its place when b holds it.
  // The two name the same tile except where a wrapped offset component is
  // exactly n/2, which both directions wrap to.
  struct Place {
    int tile;          // owner node * size() + offset index
    bool remote_is_a;  // the atom on node a is the tile's remote one
  };
  struct Places {
    Place up, down;
  };
  Places lookup(int a, int b) const {
    const int d = rank_code_[static_cast<size_t>(b)] -
                  rank_code_[static_cast<size_t>(a)];
    const int e_up = lookup_[static_cast<size_t>(center_ + d)];
    const int e_down = lookup_[static_cast<size_t>(center_ - d)];
    ANTON_CHECK_MSG(e_up >= 0 && e_down >= 0,
                    "a pair within the cutoff spans more home boxes than "
                    "the cutoff allows");
    const int K = size();
    // A flip hands the tile to the node of the higher atom, whose remote
    // atom is then the lower one.
    const bool flip_up = (e_up & 1) != 0;
    const bool flip_down = (e_down & 1) != 0;
    return {{(flip_up ? b : a) * K + (e_up >> 1), flip_up},
            {(flip_down ? a : b) * K + (e_down >> 1), !flip_down}};
  }

 private:
  int code(int x, int y, int z) const {
    return (z * side_[1] + y) * side_[0] + x;
  }

  int r_[3];     // offset bound per axis
  int side_[3];  // 2n - 1 coordinate differences per axis
  int center_ = 0;
  std::vector<int> rank_code_;
  std::vector<int> lookup_;  // code difference + center -> entry, or -1
};

// Tile (v, k) = node v's tile at offset k, numbered v * K + k.
struct TileCount {
  int64_t pairs = 0;
  int64_t remote_atoms = 0;
};

// One range of home layers [z0, z1) of the pair walk, with counters of its
// own.  remote_atoms grows whenever the tile that last counted a remote
// atom changes (Tile::remote_atoms).  A range starts every atom unstamped,
// so besides each atom's last tile it records, for the atoms an earlier
// range also touches, the first tile that counted them; stitch() then
// repairs the runs across the seam.
struct RangeCount {
  int z0 = 0, z1 = 0;
  // The slots the range can touch; the stamps cover only these.
  PairPass::Window window{};
  // Window offsets with a first-tile record: [0, low) is the range's first
  // layer, which the range before it also touches, and [high, size) is
  // layer 0, which the last range touches (wrapping) after range 0 did.
  int low = 0, high = 0;
  std::vector<TileCount> tiles;
  std::vector<int64_t> internal;
  std::vector<int> last;   // window offset -> last tile counting it, or -1
  std::vector<int> first;  // record -> first tile counting it, or -1
  std::exception_ptr error;

  int offset(int slot, int n) const {
    const int i = slot - window.begin;
    return i < 0 ? i + n : i;
  }
  int record(int offset) const {
    return offset < low ? offset : low + (offset - high);
  }
};

// Bit k is set where p[k] == v (kEqual) or p[k] > v, for k in [0, 64).
template <bool kEqual>
uint64_t word_bits(const int* p, int v) {
  const simd::VecI8 b = simd::VecI8::broadcast(v);
  uint64_t bits = 0;
  for (int q = 0; q < PairPass::kWord; q += simd::kLanesF) {
    const simd::VecI8 x = simd::VecI8::loadu(p + q);
    const simd::MaskF m = kEqual ? cmp_eq(x, b) : cmp_gt(x, b);
    bits |= static_cast<uint64_t>(m.bits()) << q;
  }
  return bits;
}

// Counts one range's pairs a hit word at a time.  Internal pairs are a
// popcount; the other hits are grouped by node, one tile lookup per group.
// The run count of Tile::remote_atoms is the serial walk's: a word's hits
// whose remote atom is t touch distinct stamps, so their order within the
// word does not matter, while those whose remote atom is s all share s's
// stamp and replay in slot order when they name several tiles.
class WordCount {
 public:
  WordCount(const PairPass& pass, const int* node, const TileIndex& index,
            RangeCount& r)
      : n_(pass.num_atoms()),
        atoms_(pass.slot_atoms()),
        node_(node),
        index_(index),
        r_(r),
        tiles_(r.tiles.data()),
        internal_(r.internal.data()),
        last_(r.last.data()),
        first_(r.first.data()) {}

  void operator()(int s, int t0, uint64_t word) {
    const int a = node_[s];
    const uint64_t local = word & word_bits<true>(node_ + t0, a);
    internal_[a] += std::popcount(local);
    if (local != word) remote(s, t0, word & ~local);
  }

 private:
  // Stamps `slot` with `tile`; returns 1 if that starts a new run, that is
  // if the tile that last counted the slot's atom is another one.
  int stamp(int slot, int tile) {
    const int i = r_.offset(slot, n_);
    int& st = last_[i];
    if (st < 0 && (i < r_.low || i >= r_.high)) first_[r_.record(i)] = tile;
    const int fresh = st != tile ? 1 : 0;
    st = tile;
    return fresh;
  }

  // The hits of slot s on other nodes, out of line: on a large home box
  // most words hold none.
  __attribute__((noinline)) void remote(int s, int t0, uint64_t rest) {
    const int a = node_[s];
    const int* nt = node_ + t0;
    // The hits whose remote atom is s, by tile: disjoint and non-empty, so
    // a word holds at most kWord runs.
    struct Run {
      int tile;
      uint64_t hits;
    };
    Run runs[PairPass::kWord];
    int nruns = 0;
    auto count = [&](const TileIndex::Place& p, bool remote_is_s,
                     uint64_t hits) {
      if (hits == 0) return;
      TileCount& tc = tiles_[p.tile];
      tc.pairs += std::popcount(hits);
      if (remote_is_s) {
        runs[nruns++] = {p.tile, hits};
        return;
      }
      int64_t fresh = 0;
      for (; hits != 0; hits &= hits - 1) {
        fresh += stamp(t0 + std::countr_zero(hits), p.tile);
      }
      tc.remote_atoms += fresh;
    };
    while (rest != 0) {
      const int b = nt[std::countr_zero(rest)];
      const uint64_t group = rest & word_bits<true>(nt, b);
      rest &= ~group;
      const TileIndex::Places e = index_.lookup(a, b);
      if (e.up.tile == e.down.tile) {
        count(e.up, e.up.remote_is_a, group);
      } else {
        // s holds the lower atom of the pairs whose t holds a greater one.
        const uint64_t up = group & word_bits<false>(atoms_ + t0, atoms_[s]);
        count(e.up, e.up.remote_is_a, up);
        count(e.down, e.down.remote_is_a, group & ~up);
      }
    }
    if (nruns == 1) {
      tiles_[runs[0].tile].remote_atoms += stamp(s, runs[0].tile);
      return;
    }
    uint64_t all = 0;
    for (int k = 0; k < nruns; ++k) all |= runs[k].hits;
    for (; all != 0; all &= all - 1) {
      const uint64_t bit = all & (~all + 1);
      int k = 0;
      while ((runs[k].hits & bit) == 0) ++k;
      tiles_[runs[k].tile].remote_atoms += stamp(s, runs[k].tile);
    }
  }

  int n_;
  const int* atoms_;
  const int* node_;
  const TileIndex& index_;
  RangeCount& r_;
  TileCount* tiles_;
  int64_t* internal_;
  int* last_;
  int* first_;
};

void count_range(const PairPass& pass, const int* node,
                 const TileIndex& index, RangeCount& r) {
  ANTON_HOT_NOALLOC();
  pass.for_each_word(r.z0, r.z1, WordCount(pass, node, index, r));
}

// The serial walk counts an atom's first stamp in `cur` as a new run only
// if it differs from the atom's last stamp before `cur`.  For the slots
// [s0, s1), `prev` is the only earlier range that can touch them, so that
// stamp is prev's final one, or none if prev did not touch the atom.
void stitch(const RangeCount& prev, const RangeCount& cur, int s0, int s1,
            int n, std::vector<TileCount>& tiles) {
  for (int s = s0; s < s1; ++s) {
    const int f = cur.first[static_cast<size_t>(cur.record(cur.offset(s, n)))];
    if (f >= 0 && prev.last[static_cast<size_t>(prev.offset(s, n))] == f) {
      tiles[static_cast<size_t>(f)].remote_atoms--;
    }
  }
}

struct PairCounts {
  std::vector<TileCount> tiles;
  std::vector<int64_t> internal;
};

// Counts every pair into its node's internal pairs or its tile, one range
// of layers per thread, and merges the ranges into exactly the serial
// walk's counts.
PairCounts count_pairs(const PairPass& pass, const int* node,
                       const TileIndex& index, int nodes, ThreadPool& pool) {
  const int n = pass.num_atoms();
  std::vector<int> bounds;
  pass.split(static_cast<int>(pool.size()), bounds);
  const size_t m = bounds.size() - 1;
  // Every buffer is allocated here, on the calling thread; the workers
  // allocate nothing.
  std::vector<RangeCount> ranges(m);
  for (size_t k = 0; k < m; ++k) {
    RangeCount& r = ranges[k];
    r.z0 = bounds[k];
    r.z1 = bounds[k + 1];
    r.window = pass.reach(r.z0, r.z1);
    const int size = r.window.end - r.window.begin;
    r.low = k > 0 ? pass.layer_start(r.z0 + 1) - pass.layer_start(r.z0) : 0;
    r.high = k > 0 && k == m - 1 ? size - pass.layer_start(1) : size;
    r.tiles.resize(static_cast<size_t>(nodes) * index.size());
    r.internal.assign(static_cast<size_t>(nodes), 0);
    r.last.assign(static_cast<size_t>(size), -1);
    r.first.assign(static_cast<size_t>(r.low + size - r.high), -1);
  }
  if (m == 1) {
    count_range(pass, node, index, ranges[0]);
  } else {
    pool.for_each_thread([&](unsigned t) {
      if (t >= m) return;
      try {
        count_range(pass, node, index, ranges[t]);
      } catch (...) {
        ranges[t].error = std::current_exception();
      }
    });
    for (const RangeCount& r : ranges) {
      if (r.error) std::rethrow_exception(r.error);
    }
  }
  RangeCount& total = ranges[0];
  for (size_t k = 1; k < m; ++k) {
    for (size_t i = 0; i < total.tiles.size(); ++i) {
      total.tiles[i].pairs += ranges[k].tiles[i].pairs;
      total.tiles[i].remote_atoms += ranges[k].tiles[i].remote_atoms;
    }
    for (size_t v = 0; v < total.internal.size(); ++v) {
      total.internal[v] += ranges[k].internal[v];
    }
  }
  // Range k's first layer is the layer after range k - 1's last one.
  for (size_t k = 1; k < m; ++k) {
    stitch(ranges[k - 1], ranges[k], pass.layer_start(ranges[k].z0),
           pass.layer_start(ranges[k].z0 + 1), n, total.tiles);
  }
  // Layer 0 is range 0's first layer and the last range's wrap.
  if (m > 1) {
    stitch(ranges[0], ranges[m - 1], 0, pass.layer_start(1), n, total.tiles);
  }
  return {std::move(total.tiles), std::move(total.internal)};
}

}  // namespace

Workload Workload::build(const System& system,
                         const arch::MachineConfig& config) {
  // All cores, except inside a chunk of a pool (a SweepRunner point),
  // whose pool already fills them.
  ThreadPool pool(ThreadPool::in_dispatch() ? 1 : 0);
  return build(system, config, pool);
}

Workload Workload::build(const System& system,
                         const arch::MachineConfig& config, ThreadPool& pool) {
  const double mesh_spacing = config.mesh_spacing;
  Workload w;
  const Box& box = system.box();
  const auto& nc = config.noc;
  w.decomp_ =
      std::make_unique<DomainDecomp>(box, nc.nx, nc.ny, nc.nz);
  const DomainDecomp& dd = *w.decomp_;
  const int P = dd.num_nodes();
  w.nodes_.assign(static_cast<size_t>(P), NodeWork{});
  w.total_atoms_ = system.num_atoms();

  const auto pos = system.positions();
  const double rc = config.machine_cutoff;
  // Rejects a cutoff beyond the minimum-image limit, an empty system and
  // non-finite positions before anything bins.
  const PairPass pass(box, pos, rc);

  // --- per-atom node assignment -------------------------------------------
  std::vector<int> owner(pos.size());
  for (size_t i = 0; i < pos.size(); ++i) {
    owner[i] = dd.node_of(pos[i]);
    w.nodes_[static_cast<size_t>(owner[i])].atoms++;
  }

  // --- exact pair counting with half-shell tile assignment ----------------
  const TileIndex index(dd, rc);
  const int K = index.size();
  // Node of each slot's atom, read in the pass's walk order, padded as
  // PairPass::slot_atoms() is so that a word's 64 slots can be loaded.
  std::vector<int> node(pos.size() + PairPass::kWord - 1, -1);
  for (size_t s = 0; s < pos.size(); ++s) {
    node[s] = owner[static_cast<size_t>(pass.atom(static_cast<int>(s)))];
  }
  const PairCounts counts = count_pairs(pass, node.data(), index, P, pool);
  const std::vector<TileCount>& tiles = counts.tiles;
  const std::vector<int64_t>& internal = counts.internal;

  // Canonical offset table (first use, nodes ascending) + per-node tiles.
  std::vector<int> offset_index(static_cast<size_t>(K), -1);
  for (int v = 0; v < P; ++v) {
    NodeWork& nd = w.nodes_[static_cast<size_t>(v)];
    nd.internal_pairs = internal[static_cast<size_t>(v)];
    for (int k = 0; k < K; ++k) {
      const TileCount& tc = tiles[static_cast<size_t>(v) * K + k];
      if (tc.pairs == 0) continue;
      int& idx = offset_index[static_cast<size_t>(k)];
      if (idx < 0) {
        idx = static_cast<int>(w.tile_offsets_.size());
        w.tile_offsets_.push_back(index.offset(k));
      }
      nd.tiles.push_back({idx, tc.pairs, tc.remote_atoms});
    }
  }

  // Position multicast destinations: node u needs v's positions when u owns
  // a tile whose offset points from u to v, i.e. v = u + offset.  Visiting
  // u in ascending order keeps every list sorted.
  for (int u = 0; u < P; ++u) {
    for (const auto& t : w.nodes_[static_cast<size_t>(u)].tiles) {
      const NodeOffset& off =
          w.tile_offsets_[static_cast<size_t>(t.offset_index)];
      const int v = dd.neighbor_rank(u, off);
      auto& dests = w.nodes_[static_cast<size_t>(v)].pos_destinations;
      if (v != u && (dests.empty() || dests.back() != u)) dests.push_back(u);
    }
  }

  // --- bonded terms (owner = node of first atom) --------------------------
  const Topology& top = system.topology();
  auto all_local = [&](std::initializer_list<int> atoms) {
    const int o = owner[static_cast<size_t>(*atoms.begin())];
    for (int a : atoms) {
      if (owner[static_cast<size_t>(a)] != o) return false;
    }
    return true;
  };
  for (const auto& b : top.bonds()) {
    auto& nd = w.nodes_[static_cast<size_t>(owner[static_cast<size_t>(b.i)])];
    (all_local({b.i, b.j}) ? nd.bonded_local : nd.bonded_boundary).bonds++;
  }
  for (const auto& a : top.angles()) {
    auto& nd = w.nodes_[static_cast<size_t>(owner[static_cast<size_t>(a.i)])];
    (all_local({a.i, a.j, a.k}) ? nd.bonded_local : nd.bonded_boundary)
        .angles++;
  }
  for (const auto& d : top.dihedrals()) {
    auto& nd = w.nodes_[static_cast<size_t>(owner[static_cast<size_t>(d.i)])];
    (all_local({d.i, d.j, d.k, d.l}) ? nd.bonded_local : nd.bonded_boundary)
        .dihedrals++;
  }
  for (const auto& p : top.pairs14()) {
    auto& nd = w.nodes_[static_cast<size_t>(owner[static_cast<size_t>(p.i)])];
    (all_local({p.i, p.j}) ? nd.bonded_local : nd.bonded_boundary).pairs14++;
  }
  for (const auto& c : top.constraints()) {
    w.nodes_[static_cast<size_t>(owner[static_cast<size_t>(c.i)])]
        .constraints++;
  }

  // --- mesh geometry -------------------------------------------------------
  // Nearest power of two (geometric rounding) keeps the realised spacing
  // close to the target instead of up to 2x finer.
  for (int axis = 0; axis < 3; ++axis) {
    const double l = box.lengths()[axis];
    const double want = std::max(4.0, l / mesh_spacing);
    const int up = next_power_of_two(static_cast<int>(std::ceil(want)));
    const int down = std::max(4, up / 2);
    w.mesh_dim_[axis] = (want / down <= up / want) ? down : up;
  }
  // The spreading Gaussian's width tracks the mesh spacing, so the support
  // is a fixed radius in cells.
  const int r = config.spread_support_cells;
  w.spread_support_points_ = (2 * r + 1) * (2 * r + 1) * (2 * r + 1);
  return w;
}

int64_t Workload::total_pairs() const {
  int64_t s = 0;
  for (const auto& n : nodes_) s += n.total_pairs();
  return s;
}

int Workload::max_atoms_per_node() const {
  int m = 0;
  for (const auto& n : nodes_) m = std::max(m, n.atoms);
  return m;
}

double Workload::spread_halo_bytes(const arch::MachineConfig& config) const {
  // Halo depth = spread radius in cells; each face exchanges
  // depth * (brick cross-section) mesh points.
  const int P = num_nodes();
  const double brick_points = static_cast<double>(mesh_points_total()) / P;
  const double cross_section = std::pow(brick_points, 2.0 / 3.0);
  const double depth =
      std::cbrt(static_cast<double>(spread_support_points_)) / 2.0;
  return depth * cross_section * config.bytes_per_mesh_point;
}

}  // namespace anton::core
