#include "core/workload.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <initializer_list>
#include <span>

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

// One thread's pair counters.  The totals are integer sums over the
// threads, so any schedule of the ranges gives the same ones.
struct ThreadCount {
  std::vector<TileCount> tiles;
  std::vector<int64_t> internal;
  std::exception_ptr error;
};

// One range of home layers [z0, z1) of the pair walk, with stamps of its
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
  std::vector<int> last;   // window offset -> last tile counting it, or -1
  std::vector<int> first;  // record -> first tile counting it, or -1

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

// Counts one range's pairs a hit word at a time into one thread's
// counters.  Internal pairs are a popcount; the other hits are grouped by
// node, one tile lookup per group.  The run count of Tile::remote_atoms is
// the serial walk's: a word's hits whose remote atom is t touch distinct
// stamps, so their order within the word does not matter, while those
// whose remote atom is s all share s's stamp and replay in slot order when
// they name several tiles.
class WordCount {
 public:
  WordCount(const PairPass& pass, const int* node, const TileIndex& index,
            ThreadCount& c, RangeCount& r)
      : n_(pass.num_atoms()),
        atoms_(pass.slot_atoms()),
        node_(node),
        index_(index),
        r_(r),
        tiles_(c.tiles.data()),
        internal_(c.internal.data()),
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
  const RangeCount& r_;
  TileCount* tiles_;
  int64_t* internal_;
  int* last_;
  int* first_;
};

void count_range(const PairPass& pass, const int* node,
                 const TileIndex& index, ThreadCount& c, RangeCount& r) {
  ANTON_HOT_NOALLOC();
  pass.for_each_word(r.z0, r.z1, WordCount(pass, node, index, c, r));
}

// Counts the ranges a thread takes, one ticket at a time, into its
// counters.
void count_tickets(const PairPass& pass, const int* node,
                   const TileIndex& index, std::span<RangeCount> ranges,
                   std::atomic<size_t>& next, ThreadCount& c) {
  ANTON_HOT_NOALLOC();
  for (;;) {
    const size_t k = next.fetch_add(1, std::memory_order_relaxed);
    if (k >= ranges.size()) return;
    count_range(pass, node, index, c, ranges[k]);
  }
}

// The serial walk counts an atom's first stamp in `cur` as a new run only
// if it differs from the atom's last stamp before `cur`.  For the slots
// [s0, s1), `prev` is the only earlier range that can touch them, so that
// stamp is prev's final one, or none if prev did not touch the atom.
void stitch(const RangeCount& prev, const RangeCount& cur, int s0, int s1,
            int n, TileCount* tiles) {
  for (int s = s0; s < s1; ++s) {
    const int f = cur.first[static_cast<size_t>(cur.record(cur.offset(s, n)))];
    if (f >= 0 && prev.last[static_cast<size_t>(prev.offset(s, n))] == f) {
      tiles[f].remote_atoms--;
    }
  }
}

// Stitches the seams a thread takes, one ticket at a time, into its
// counters.  With one range per layer, layer k is a seam of every range
// pair: range k's first layer and range k - 1's last, and layer 0 range
// 0's first and the last range's wrap.
void stitch_tickets(const PairPass& pass, std::span<const RangeCount> ranges,
                    std::atomic<size_t>& next, ThreadCount& c) {
  ANTON_HOT_NOALLOC();
  const size_t m = ranges.size();
  for (;;) {
    const size_t k = next.fetch_add(1, std::memory_order_relaxed);
    if (k >= m) return;
    const int z = static_cast<int>(k);
    stitch(ranges[k == 0 ? 0 : k - 1], ranges[k == 0 ? m - 1 : k],
           pass.layer_start(z), pass.layer_start(z + 1), pass.num_atoms(),
           c.tiles.data());
  }
}

struct PairCounts {
  std::vector<TileCount> tiles;
  std::vector<int64_t> internal;
};

// Counts every pair into its node's internal pairs or its tile, and
// merges the counts into exactly the serial walk's.  On a pool of one
// thread the walk is one range; on a larger pool it is one range per
// layer, which the threads take by ticket.
PairCounts count_pairs(const PairPass& pass, const int* node,
                       const TileIndex& index, int nodes, ThreadPool& pool) {
  const int layers = pass.num_layers();
  const size_t m = pool.size() == 1 ? 1 : static_cast<size_t>(layers);
  // Every buffer is allocated here, on the calling thread; the workers
  // allocate nothing.
  std::vector<RangeCount> ranges(m);
  for (size_t k = 0; k < m; ++k) {
    RangeCount& r = ranges[k];
    r.z0 = m == 1 ? 0 : static_cast<int>(k);
    r.z1 = m == 1 ? layers : r.z0 + 1;
    r.window = pass.reach(r.z0, r.z1);
    const int size = r.window.end - r.window.begin;
    r.low = k > 0 ? pass.layer_start(r.z0 + 1) - pass.layer_start(r.z0) : 0;
    r.high = k > 0 && k == m - 1 ? size - pass.layer_start(1) : size;
    r.last.assign(static_cast<size_t>(size), -1);
    r.first.assign(static_cast<size_t>(r.low + size - r.high), -1);
  }
  std::vector<ThreadCount> threads(std::min<size_t>(pool.size(), m));
  for (ThreadCount& c : threads) {
    c.tiles.resize(static_cast<size_t>(nodes) * index.size());
    c.internal.assign(static_cast<size_t>(nodes), 0);
  }
  if (m == 1) {
    count_range(pass, node, index, threads[0], ranges[0]);
  } else {
    std::atomic<size_t> next{0};
    pool.for_each_thread([&](unsigned t) {
      if (t >= threads.size()) return;
      try {
        count_tickets(pass, node, index, ranges, next, threads[t]);
      } catch (...) {
        threads[t].error = std::current_exception();
      }
    });
    for (const ThreadCount& c : threads) {
      if (c.error) std::rethrow_exception(c.error);
    }
    next = 0;
    pool.for_each_thread([&](unsigned t) {
      if (t < threads.size()) stitch_tickets(pass, ranges, next, threads[t]);
    });
  }
  ThreadCount& total = threads[0];
  for (size_t t = 1; t < threads.size(); ++t) {
    for (size_t i = 0; i < total.tiles.size(); ++i) {
      total.tiles[i].pairs += threads[t].tiles[i].pairs;
      total.tiles[i].remote_atoms += threads[t].tiles[i].remote_atoms;
    }
    for (size_t v = 0; v < total.internal.size(); ++v) {
      total.internal[v] += threads[t].internal[v];
    }
  }
  return {std::move(total.tiles), std::move(total.internal)};
}

// Thread t's share of `items`.
template <class Item>
std::span<const Item> chunk_of(std::span<const Item> items, unsigned t,
                               unsigned T) {
  const size_t b = ThreadPool::chunk_begin(items.size(), t, T);
  return items.subspan(b, ThreadPool::chunk_begin(items.size(), t + 1, T) - b);
}

// Assigns thread t's share of the atoms to nodes, counting them into
// `counts` (indexed by node).
void assign_atoms(const DomainDecomp& dd, std::span<const Vec3> pos,
                  unsigned t, unsigned T, int* owner, NodeWork* counts) {
  ANTON_HOT_NOALLOC();
  const size_t end = ThreadPool::chunk_begin(pos.size(), t + 1, T);
  for (size_t i = ThreadPool::chunk_begin(pos.size(), t, T); i < end; ++i) {
    owner[i] = dd.node_of(pos[i]);
    counts[owner[i]].atoms++;
  }
}

// Fills thread t's share of the slot -> node array.
void fill_slot_nodes(const PairPass& pass, const int* owner, unsigned t,
                     unsigned T, int* node) {
  ANTON_HOT_NOALLOC();
  const auto n = static_cast<size_t>(pass.num_atoms());
  const size_t end = ThreadPool::chunk_begin(n, t + 1, T);
  for (size_t s = ThreadPool::chunk_begin(n, t, T); s < end; ++s) {
    node[s] = owner[pass.atom(static_cast<int>(s))];
  }
}

// Counts thread t's share of the bonded terms (owner = node of first atom)
// into `counts`.
void tally_bonded(const Topology& top, const int* owner, unsigned t,
                  unsigned T, NodeWork* counts) {
  ANTON_HOT_NOALLOC();
  auto all_local = [&](std::initializer_list<int> atoms) {
    const int o = owner[*atoms.begin()];
    for (int a : atoms) {
      if (owner[a] != o) return false;
    }
    return true;
  };
  for (const auto& b : chunk_of(top.bonds(), t, T)) {
    NodeWork& nd = counts[owner[b.i]];
    (all_local({b.i, b.j}) ? nd.bonded_local : nd.bonded_boundary).bonds++;
  }
  for (const auto& a : chunk_of(top.angles(), t, T)) {
    NodeWork& nd = counts[owner[a.i]];
    (all_local({a.i, a.j, a.k}) ? nd.bonded_local : nd.bonded_boundary)
        .angles++;
  }
  for (const auto& d : chunk_of(top.dihedrals(), t, T)) {
    NodeWork& nd = counts[owner[d.i]];
    (all_local({d.i, d.j, d.k, d.l}) ? nd.bonded_local : nd.bonded_boundary)
        .dihedrals++;
  }
  for (const auto& p : chunk_of(top.pairs14(), t, T)) {
    NodeWork& nd = counts[owner[p.i]];
    (all_local({p.i, p.j}) ? nd.bonded_local : nd.bonded_boundary).pairs14++;
  }
  for (const auto& c : chunk_of(top.constraints(), t, T)) {
    counts[owner[c.i]].constraints++;
  }
}

void add(BondedCounts& to, const BondedCounts& from) {
  to.bonds += from.bonds;
  to.angles += from.angles;
  to.dihedrals += from.dihedrals;
  to.pairs14 += from.pairs14;
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
  const PairPass pass(box, pos, rc, &pool);

  // --- node assignment, slot -> node array, bonded tallies ----------------
  // Thread t counts into the nodes themselves (t = 0) or into its own
  // copies, whose counts are added to the nodes' afterwards.
  const unsigned T = pool.size();
  std::vector<NodeWork> copies(static_cast<size_t>(T - 1) * P);
  auto counts = [&](unsigned t) {
    return t == 0 ? w.nodes_.data()
                  : copies.data() + static_cast<size_t>(t - 1) * P;
  };
  std::vector<int> owner(pos.size());
  // Node of each slot's atom, read in the pass's walk order, padded as
  // PairPass::slot_atoms() is so that a word's 64 slots can be loaded.
  std::vector<int> node(pos.size() + PairPass::kWord - 1, -1);
  pool.for_each_thread([&](unsigned t) {
    assign_atoms(dd, pos, t, T, owner.data(), counts(t));
  });
  const Topology& top = system.topology();
  pool.for_each_thread([&](unsigned t) {
    fill_slot_nodes(pass, owner.data(), t, T, node.data());
    tally_bonded(top, owner.data(), t, T, counts(t));
  });
  for (unsigned t = 1; t < T; ++t) {
    for (int v = 0; v < P; ++v) {
      NodeWork& to = w.nodes_[static_cast<size_t>(v)];
      const NodeWork& from = counts(t)[v];
      to.atoms += from.atoms;
      add(to.bonded_local, from.bonded_local);
      add(to.bonded_boundary, from.bonded_boundary);
      to.constraints += from.constraints;
    }
  }

  // --- exact pair counting with half-shell tile assignment ----------------
  const TileIndex index(dd, rc);
  const int K = index.size();
  const PairCounts pair_counts =
      count_pairs(pass, node.data(), index, P, pool);
  const std::vector<TileCount>& tiles = pair_counts.tiles;
  const std::vector<int64_t>& internal = pair_counts.internal;

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
