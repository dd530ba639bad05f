// Verlet neighbour list with skin: the pairs of the pair pass
// (geom/pair_pass.h) at radius cutoff + skin, stored as a CSR in the
// pass's walk order.
//
// Row r belongs to row_atom(r), the pass's atom in slot r, and holds every
// pair that PairPass::for_each_word emits from slot r, in emission order.
// Each unordered pair is stored once, in the row of the slot the walk
// reaches it from, so a neighbour's index may lie below or above its row
// atom's.  Topological exclusions are dropped a hit word at a time at
// build time, through a per-build table of each slot's excluded partner
// slots in both directions, so force loops never branch on exclusion.
//
// With a ThreadPool the pass bins on the pool and its walk splits into one
// range of z-layers per thread (a shard).  A count walk adds each word's
// popcount to the row of the slot it came from, one prefix over the slots
// turns the counts into row offsets, and a fill walk writes each row
// contiguously.  A shard's words come only from the slots of its own
// layers, so every row is counted and written by one thread and the list
// is identical at every pool size.  Walking twice costs less than storing
// the pairs: per-shard pair buffers hold every pair twice (DESIGN.md, "The
// MD neighbour list on the pass").  The pass and all scratch persist
// across builds, so steady-state rebuilds do not allocate once capacities
// settle.
//
// validate() checks the layout in linear time but not that each pair is
// stored once, which needs a pair set: NeighborList.MatchesBruteForce
// compares the set with a brute-force one, NeighborList.GoldenCsrDigest
// pins it in the lower-index form the list used to store (rows by lower
// atom, each row ascending), and Workload.PairCountMatchesBruteForce holds
// the pair count to an O(N^2) count.
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
  // With a pool, the binning and both walks run threaded; the resulting
  // CSR is identical to the serial build.  Rejects a list radius beyond
  // box.max_cutoff(), an empty system and a non-finite position with
  // anton::Error.
  void build(const Box& box, std::span<const Vec3> positions,
             const Topology& top, ThreadPool* pool = nullptr);

  // True once any atom has moved more than skin/2 since the last build.
  // With a pool the scan is parallelised and early-exits once any thread
  // finds a displaced atom.
  bool needs_rebuild(const Box& box, std::span<const Vec3> positions,
                     ThreadPool* pool = nullptr) const;

  // Row r's neighbours j (all with j != row_atom(r)), in walk order.
  std::span<const int> row(int r) const {
    const auto b = starts_[static_cast<size_t>(r)];
    const auto e = starts_[static_cast<size_t>(r) + 1];
    return {list_.data() + b, list_.data() + e};
  }
  // The atom that owns row r; a permutation of the atoms over the rows.
  int row_atom(int r) const { return row_atoms_[static_cast<size_t>(r)]; }
  // Raw CSR offsets over the rows (size num_atoms()+1); consumers use these
  // to balance work by cumulative pair count.
  std::span<const int64_t> starts() const { return starts_; }
  int num_atoms() const { return static_cast<int>(starts_.size()) - 1; }
  int64_t num_pairs() const { return static_cast<int64_t>(list_.size()); }
  bool built() const { return !starts_.empty(); }

  // Always-on CSR well-formedness validator, linear in the list: starts_
  // is monotone from 0 and spans list_ exactly, row_atom is a permutation
  // of the atoms, every neighbour lies in [0, num_atoms()) and differs
  // from its row's atom, and no neighbour repeats within a row.  Throws
  // anton::Error on violation.  build() runs this automatically when
  // ANTON_ENABLE_INVARIANTS is on (debug and sanitizer builds).  Not
  // thread-safe: it marks atoms in the list's own scratch.
  void validate() const;

 private:
  void index_exclusions(const Topology& top);
  void count_range(int z0, int z1);
  void fill_range(int z0, int z1);

  double cutoff_;
  double skin_;
  std::vector<int> list_;
  std::vector<int64_t> starts_;
  std::vector<int> row_atoms_;
  std::vector<Vec3> ref_positions_;
  // Build scratch, persistent across builds and sized before list_ on the
  // first build (a small block allocated above a large freed one can keep
  // the heap from returning it).  The pass re-bins in its own storage, so
  // steady-state rebuilds touch no allocator.
  std::unique_ptr<PairPass> pass_;
  // Shard t walks the pass's layers [layer_bounds_[t], layer_bounds_[t+1]).
  std::vector<int> layer_bounds_;
  // atom -> slot, the inverse of row_atoms_.
  std::vector<int> slot_of_;
  // Slot s's excluded partner slots, both directions:
  // excl_[excl_start_[s] .. excl_start_[s + 1]).
  std::vector<int> excl_start_;
  std::vector<int> excl_;
  // validate()'s per-atom marks (the last row each atom was seen in), kept
  // so that validate() allocates nothing.
  mutable std::vector<int> seen_;
};

}  // namespace anton
