// Verlet neighbour list with skin: the pairs of the pair pass
// (geom/pair_pass.h) at radius cutoff + skin, stored as a CSR.
//
// Pairs are stored half (each unordered pair once, under the lower index,
// each row ascending).  Topological exclusions are filtered at build time,
// so force loops never branch on exclusion.
//
// With a ThreadPool the pass's walk splits into one range of z-layers per
// thread (a shard).  Each shard counts its pairs per row, a counting pass
// turns the counts into disjoint slots of the CSR arrays, and each shard
// walks its pairs again to write them there, so no pair is stored twice
// and the fill is race-free.  Each row is then radix-sorted on the key
// j - i - 1 (8-bit LSD digits, as many as the atom count needs) and merged
// against the atom's sorted exclusion row, the rows split across the pool
// at equal cumulative-pair quantiles; the result is identical to the
// serial build bit for bit.  The pass and all scratch persist across
// builds, so steady-state rebuilds do not allocate once capacities settle.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "chem/topology.h"
#include "common/threadpool.h"
#include "common/vec3.h"
#include "geom/box.h"

namespace anton {

class PairPass;  // geom/pair_pass.h; only the .cc needs the definition

class NeighborList {
 public:
  NeighborList(double cutoff, double skin);
  ~NeighborList();  // out of line: pass_ is incomplete here

  double cutoff() const { return cutoff_; }
  double skin() const { return skin_; }
  double list_radius() const { return cutoff_ + skin_; }

  // Rebuilds from scratch; remembers positions for displacement tracking.
  // With a pool, the count, fill and sort run threaded; the resulting CSR
  // is identical to the serial build.  Rejects a list radius beyond
  // box.max_cutoff(), an empty system and a non-finite position with
  // anton::Error.
  void build(const Box& box, std::span<const Vec3> positions,
             const Topology& top, ThreadPool* pool = nullptr);

  // True once any atom has moved more than skin/2 since the last build.
  // With a pool the scan is parallelised and early-exits once any thread
  // finds a displaced atom.
  bool needs_rebuild(const Box& box, std::span<const Vec3> positions,
                     ThreadPool* pool = nullptr) const;

  // CSR access: neighbours j (all with j != i; each pair appears exactly
  // once, under the lower index, sorted ascending).
  std::span<const int> neighbors_of(int i) const {
    const auto b = starts_[static_cast<size_t>(i)];
    const auto e = starts_[static_cast<size_t>(i) + 1];
    return {list_.data() + b, list_.data() + e};
  }
  // Raw CSR offsets (size num_atoms()+1); consumers use these to balance
  // work by cumulative pair count.
  std::span<const int64_t> starts() const { return starts_; }
  int num_atoms() const { return static_cast<int>(starts_.size()) - 1; }
  int64_t num_pairs() const { return static_cast<int64_t>(list_.size()); }
  bool built() const { return !starts_.empty(); }

  // Always-on CSR well-formedness validator: starts_ is monotone and spans
  // list_ exactly; every neighbour j of atom i satisfies i < j < num_atoms()
  // (half list under the lower index) and each row is strictly ascending.
  // Throws anton::Error on violation.  build() runs this automatically when
  // ANTON_ENABLE_INVARIANTS is on (debug and sanitizer builds).
  void validate() const;

 private:
  void count_range(int z0, int z1, int* counts) const;
  void fill_range(int z0, int z1, int* cursors);
  void merge_shards(const Topology& top, unsigned nshards, ThreadPool* pool);

  double cutoff_;
  double skin_;
  std::vector<int> list_;
  std::vector<int64_t> starts_;
  std::vector<Vec3> ref_positions_;
  // Build scratch, persistent across builds.  The pass re-bins in its own
  // storage, so steady-state rebuilds touch no allocator.
  std::unique_ptr<PairPass> pass_;
  // Shard t walks the pass's layers [layer_bounds_[t], layer_bounds_[t+1]).
  std::vector<int> layer_bounds_;
  // Per shard and atom: its pair count, then its fill cursor (and shard
  // 0's, the row's length after the exclusion filter).
  std::vector<std::vector<int>> shards_;
};

}  // namespace anton
