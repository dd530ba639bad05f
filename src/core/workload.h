// Workload mapping: decomposes a molecular system onto the machine's node
// grid and counts the work each node performs in one MD timestep.
//
// This is the quantitative bridge between the functional MD layer and the
// timing model: pairwise-interaction counts load the HTIS, bonded/mesh/
// integration counts load the geometry cores, and per-neighbour atom counts
// size the NoC messages.  Pair counting is exact (from the actual atom
// positions), using the same half-shell tile assignment the machine uses;
// the pairs come from PairPass (geom/pair_pass.h).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "arch/config.h"
#include "chem/system.h"
#include "geom/decomp.h"

namespace anton {
class ThreadPool;  // common/threadpool.h
}  // namespace anton

namespace anton::core {

struct BondedCounts {
  int64_t bonds = 0;
  int64_t angles = 0;
  int64_t dihedrals = 0;
  int64_t pairs14 = 0;

  int64_t total() const { return bonds + angles + dihedrals + pairs14; }
};

// One pairwise tile: interactions between the node's home box and the
// neighbour at `offset_index` (index into Workload::tile_offsets).
struct Tile {
  int offset_index;
  int64_t pairs;
  // Sizes the force-return message back to the neighbour.  It is NOT the
  // number of distinct remote atoms: walking the pairs in the PairPass
  // order, a remote atom is counted again every time the tile that last
  // touched it changes, so this is the number of such runs.  It lies
  // between the distinct count and `pairs`; at DHFR/512 it sums to about
  // 5.5x the distinct count.  It depends on the pair order, so a build
  // that splits the walk across threads repairs the runs at each seam
  // between ranges and gets the serial walk's value exactly.
  int64_t remote_atoms;
};

struct NodeWork {
  int atoms = 0;
  int64_t internal_pairs = 0;       // both atoms local
  std::vector<Tile> tiles;          // boundary tiles owned by this node
  std::vector<int> pos_destinations;  // ranks that need this node's positions
  BondedCounts bonded_local;        // all atoms on this node
  BondedCounts bonded_boundary;     // needs imported positions
  int64_t constraints = 0;

  int64_t boundary_pairs() const {
    int64_t s = 0;
    for (const auto& t : tiles) s += t.pairs;
    return s;
  }
  int64_t total_pairs() const { return internal_pairs + boundary_pairs(); }
};

class Workload {
 public:
  // Decomposes `system` onto the torus in `config` using the machine
  // cutoff and mesh spacing.  The node grid is config.noc dimensions.
  // The build runs on a pool of hardware_concurrency() threads made for
  // the call, or serially when the calling thread is running a ThreadPool
  // chunk, such as a SweepRunner point.  Rejects an empty system and a
  // non-finite position with anton::Error.
  static Workload build(const System& system,
                        const arch::MachineConfig& config);
  // The same on a borrowed pool, which runs every phase: binning, node
  // assignment, bonded tallies and the pair count, which on more than one
  // thread takes one range of z-layers per ticket.  Every field is
  // identical for every pool size.
  static Workload build(const System& system,
                        const arch::MachineConfig& config, ThreadPool& pool);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const NodeWork& node(int rank) const {
    return nodes_.at(static_cast<size_t>(rank));
  }
  const std::vector<NodeOffset>& tile_offsets() const { return tile_offsets_; }
  const DomainDecomp& decomp() const { return *decomp_; }

  int total_atoms() const { return total_atoms_; }
  int64_t total_pairs() const;
  double mean_atoms_per_node() const {
    return static_cast<double>(total_atoms_) / num_nodes();
  }
  // Max/mean atoms per node — load-imbalance diagnostics.
  int max_atoms_per_node() const;

  // Mesh geometry for the long-range phase.
  int mesh_dim(int axis) const { return mesh_dim_[axis]; }
  int64_t mesh_points_total() const {
    return static_cast<int64_t>(mesh_dim_[0]) * mesh_dim_[1] * mesh_dim_[2];
  }
  int64_t mesh_points_per_node() const {
    return (mesh_points_total() + num_nodes() - 1) / num_nodes();
  }
  int spread_support_points() const { return spread_support_points_; }
  // Bytes of mesh halo exchanged with each face neighbour after spreading.
  double spread_halo_bytes(const arch::MachineConfig& config) const;

 private:
  std::unique_ptr<DomainDecomp> decomp_;
  std::vector<NodeWork> nodes_;
  std::vector<NodeOffset> tile_offsets_;
  int total_atoms_ = 0;
  int mesh_dim_[3] = {0, 0, 0};
  int spread_support_points_ = 0;
};

}  // namespace anton::core
