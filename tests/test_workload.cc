#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <tuple>

#include "chem/builder.h"
#include "common/threadpool.h"
#include "core/decomposition_study.h"
#include "core/machine.h"
#include "core/workload.h"
#include "md/neighborlist.h"
#include "test_support.h"

namespace anton::core {
namespace {

using test_support::Digest;
using test_support::expect_error;

arch::MachineConfig tiny_machine(int nx, int ny, int nz, double cutoff) {
  arch::MachineConfig c = arch::MachineConfig::anton2(nx, ny, nz);
  c.machine_cutoff = cutoff;
  return c;
}

TEST(Workload, AtomCountsPartition) {
  const System sys = build_water_box(512, 41, -1);
  const auto cfg = tiny_machine(2, 2, 2, 6.0);
  const Workload w = Workload::build(sys, cfg);
  int total = 0;
  for (int v = 0; v < w.num_nodes(); ++v) total += w.node(v).atoms;
  EXPECT_EQ(total, sys.num_atoms());
  EXPECT_EQ(w.total_atoms(), sys.num_atoms());
}

int64_t brute_force_pairs(const System& sys, double rc) {
  int64_t n = 0;
  const auto pos = sys.positions();
  for (int i = 0; i < sys.num_atoms(); ++i) {
    for (int j = i + 1; j < sys.num_atoms(); ++j) {
      if (sys.box().distance2(pos[static_cast<size_t>(i)],
                              pos[static_cast<size_t>(j)]) < rc * rc) {
        ++n;
      }
    }
  }
  return n;
}

// A copy of `sys` with every atom moved by +-1 box length per axis, in a
// pattern that varies with the atom index: the same configuration, given
// unwrapped, as md::Simulation hands it to AntonMachine::run().
System unwrapped_copy(const System& sys) {
  System out = sys;
  const Vec3& l = sys.box().lengths();
  auto pos = out.positions();
  for (size_t i = 0; i < pos.size(); ++i) {
    pos[i].x += (i % 2 == 0 ? 1.0 : -1.0) * l.x;
    pos[i].y += (i % 3 == 0 ? -1.0 : 1.0) * l.y;
    pos[i].z += (i % 5 < 2 ? 1.0 : -1.0) * l.z;
  }
  return out;
}

// Pairs within rc by the MD neighbour list (skin 0), built on a copy of the
// topology with no exclusions.
int64_t neighbor_list_pairs(const System& sys, double rc) {
  const Topology& top = sys.topology();
  Topology bare(top.forcefield());
  for (int i = 0; i < top.num_atoms(); ++i) bare.add_atom(top.type(i), 0.0);
  bare.finalize();
  NeighborList nl(rc, 0.0);
  nl.build(sys.box(), sys.positions(), bare);
  return nl.num_pairs();
}

TEST(Workload, PairCountMatchesBruteForce) {
  // The workload counts *all* pairs within the cutoff (exclusions are a
  // force-field nicety the HTIS match units handle inline); compare against
  // a brute-force count, on wrapped and on unwrapped positions, with a cell
  // grid of at least 3 cells per axis (rc 6: the cell walk) and one under
  // it (rc 9: the all-pairs fallback).
  const System sys = build_water_box(343, 42, -1);
  const System unwrapped = unwrapped_copy(sys);
  for (double rc : {6.0, 9.0}) {
    const auto cfg = tiny_machine(2, 2, 2, rc);
    EXPECT_EQ(Workload::build(sys, cfg).total_pairs(),
              brute_force_pairs(sys, rc)) << "rc " << rc;
    EXPECT_EQ(Workload::build(unwrapped, cfg).total_pairs(),
              brute_force_pairs(unwrapped, rc)) << "unwrapped, rc " << rc;
  }
  // DHFR scale on 8^3 nodes, through the default (threaded) build, and the
  // MD neighbour list without exclusions.  Both walk the same pair pass, so
  // each is held to brute_force_pairs(dhfr, 9.0), computed once: it runs
  // 1.5 s optimised and far longer under the sanitizers.
  constexpr int64_t kDhfrPairs = 4'315'000;
  const System dhfr = build_benchmark_system(dhfr_spec(), 2014);
  const auto cfg = tiny_machine(8, 8, 8, 9.0);
  EXPECT_EQ(Workload::build(dhfr, cfg).total_pairs(), kDhfrPairs);
  EXPECT_EQ(Workload::build(unwrapped_copy(dhfr), cfg).total_pairs(),
            kDhfrPairs);
  EXPECT_EQ(neighbor_list_pairs(dhfr, 9.0), kDhfrPairs);
}

TEST(Workload, EveryPairCountedExactlyOnce) {
  // Internal + boundary tiles must partition the pair set: vary node grid,
  // the total must not change.
  const System sys = build_water_box(512, 43, -1);
  const auto w1 = Workload::build(sys, tiny_machine(1, 1, 1, 6.0));
  const auto w2 = Workload::build(sys, tiny_machine(2, 2, 2, 6.0));
  const auto w4 = Workload::build(sys, tiny_machine(4, 2, 2, 6.0));
  EXPECT_EQ(w1.total_pairs(), w2.total_pairs());
  EXPECT_EQ(w1.total_pairs(), w4.total_pairs());
  // Single node: all pairs internal.
  EXPECT_EQ(w1.node(0).internal_pairs, w1.total_pairs());
  EXPECT_TRUE(w1.node(0).tiles.empty());
}

bool positive_half(const NodeOffset& off) {
  return off.dz > 0 || (off.dz == 0 && off.dy > 0) ||
         (off.dz == 0 && off.dy == 0 && off.dx > 0);
}

TEST(Workload, TileOffsetsInPositiveHalfSpace) {
  const System sys = build_water_box(729, 44, -1);
  const auto w = Workload::build(sys, tiny_machine(3, 3, 3, 6.0));
  for (const auto& off : w.tile_offsets()) {
    EXPECT_TRUE(positive_half(off))
        << off.dx << "," << off.dy << "," << off.dz;
  }
}

TEST(Workload, RemoteAtomsBoundedByPairsAndNodeSize) {
  const System sys = build_water_box(729, 45, -1);
  const auto w = Workload::build(sys, tiny_machine(3, 3, 3, 6.0));
  for (int v = 0; v < w.num_nodes(); ++v) {
    for (const auto& t : w.node(v).tiles) {
      EXPECT_GT(t.remote_atoms, 0);
      EXPECT_LE(t.remote_atoms, t.pairs);
      EXPECT_LE(t.remote_atoms, sys.num_atoms());
    }
  }
}

// If u owns a tile with offset d, then node u+d must list u as a
// destination.
void expect_destinations_match_tiles(const Workload& w) {
  const auto& dd = w.decomp();
  for (int u = 0; u < w.num_nodes(); ++u) {
    for (const auto& t : w.node(u).tiles) {
      const auto& off = w.tile_offsets()[static_cast<size_t>(t.offset_index)];
      const int v = dd.neighbor_rank(u, off);
      const auto& dsts = w.node(v).pos_destinations;
      EXPECT_NE(std::find(dsts.begin(), dsts.end(), u), dsts.end())
          << "node " << v << " does not export to " << u;
    }
  }
}

TEST(Workload, PositionDestinationsMatchTiles) {
  const System sys = build_water_box(729, 46, -1);
  expect_destinations_match_tiles(
      Workload::build(sys, tiny_machine(3, 3, 3, 6.0)));
}

TEST(Workload, LongTorusOffsetsStayPositiveHalf) {
  // 256 nodes along z with a 12 A cutoff: tiles reach up to 124 home boxes
  // away, beyond any small fixed-width offset encoding.
  const System sys = build_water_box(512, 46, -1);
  const auto w = Workload::build(sys, tiny_machine(1, 1, 256, 12.0));
  int max_dz = 0;
  for (const auto& off : w.tile_offsets()) {
    EXPECT_TRUE(positive_half(off))
        << off.dx << "," << off.dy << "," << off.dz;
    max_dz = std::max(max_dz, off.dz);
  }
  EXPECT_GT(max_dz, 64);
  expect_destinations_match_tiles(w);
  EXPECT_EQ(w.total_pairs(),
            Workload::build(sys, tiny_machine(1, 1, 1, 12.0)).total_pairs());
}

// Periodic node-grid delta from a to b, wrapped into (-n/2, n/2].
int wrapped_delta(int a, int b, int n) {
  int d = (b - a) % n;
  if (d > n / 2) d -= n;
  if (d < -(n - 1) / 2) d += n;
  return d;
}

TEST(Workload, RemoteAtomsAtLeastDistinct) {
  // remote_atoms counts an atom again whenever the tile that last touched
  // it changes (see Tile::remote_atoms), so it can exceed the distinct
  // remote atoms of a tile, but never fall below them, and never exceed
  // the tile's pairs.  The distinct sets come from a brute-force pass with
  // the same half-shell assignment.
  const System sys = build_water_box(729, 45, -1);
  const double rc = 6.0;
  const auto w = Workload::build(sys, tiny_machine(3, 3, 3, rc));
  const auto& dd = w.decomp();
  const auto pos = sys.positions();
  std::vector<int> owner(pos.size());
  for (size_t i = 0; i < pos.size(); ++i) owner[i] = dd.node_of(pos[i]);
  // (owner node, dx, dy, dz) -> distinct remote atoms.
  std::map<std::tuple<int, int, int, int>, std::set<int>> distinct;
  for (int i = 0; i < sys.num_atoms(); ++i) {
    for (int j = i + 1; j < sys.num_atoms(); ++j) {
      if (sys.box().distance2(pos[static_cast<size_t>(i)],
                              pos[static_cast<size_t>(j)]) >= rc * rc) {
        continue;
      }
      const int a = owner[static_cast<size_t>(i)];
      const int b = owner[static_cast<size_t>(j)];
      if (a == b) continue;
      int ax, ay, az, bx, by, bz;
      dd.coords(a, &ax, &ay, &az);
      dd.coords(b, &bx, &by, &bz);
      NodeOffset off{wrapped_delta(ax, bx, dd.nx()),
                     wrapped_delta(ay, by, dd.ny()),
                     wrapped_delta(az, bz, dd.nz())};
      if (positive_half(off)) {
        distinct[{a, off.dx, off.dy, off.dz}].insert(j);
      } else {
        distinct[{b, -off.dx, -off.dy, -off.dz}].insert(i);
      }
    }
  }
  size_t tiles = 0;
  int64_t over_counted = 0;
  for (int v = 0; v < w.num_nodes(); ++v) {
    for (const auto& t : w.node(v).tiles) {
      const auto& off = w.tile_offsets()[static_cast<size_t>(t.offset_index)];
      const auto it = distinct.find({v, off.dx, off.dy, off.dz});
      ASSERT_NE(it, distinct.end()) << "node " << v << " tile "
                                    << t.offset_index << " has no pairs";
      const auto exact = static_cast<int64_t>(it->second.size());
      EXPECT_LE(exact, t.remote_atoms);
      EXPECT_LE(t.remote_atoms, t.pairs);
      if (t.remote_atoms > exact) ++over_counted;
      ++tiles;
    }
  }
  EXPECT_EQ(tiles, distinct.size());
  // The run count is not the distinct count on this system.
  EXPECT_GT(over_counted, 0);
}

TEST(Workload, BondedTermsPartition) {
  BuilderOptions o;
  o.total_atoms = 3000;
  o.solute_fraction = 0.2;
  o.seed = 47;
  o.temperature_k = -1;
  const System sys = build_solvated_system(o);
  const auto w = Workload::build(sys, tiny_machine(2, 2, 2, 6.0));
  BondedCounts total{};
  int64_t constraints = 0;
  for (int v = 0; v < w.num_nodes(); ++v) {
    const auto& n = w.node(v);
    total.bonds += n.bonded_local.bonds + n.bonded_boundary.bonds;
    total.angles += n.bonded_local.angles + n.bonded_boundary.angles;
    total.dihedrals +=
        n.bonded_local.dihedrals + n.bonded_boundary.dihedrals;
    total.pairs14 += n.bonded_local.pairs14 + n.bonded_boundary.pairs14;
    constraints += n.constraints;
  }
  const Topology& top = sys.topology();
  EXPECT_EQ(total.bonds, static_cast<int64_t>(top.bonds().size()));
  EXPECT_EQ(total.angles, static_cast<int64_t>(top.angles().size()));
  EXPECT_EQ(total.dihedrals, static_cast<int64_t>(top.dihedrals().size()));
  EXPECT_EQ(total.pairs14, static_cast<int64_t>(top.pairs14().size()));
  EXPECT_EQ(constraints, static_cast<int64_t>(top.constraints().size()));
}

TEST(Workload, MeshDimsArePowerOfTwo) {
  const System sys = build_water_box(512, 48, -1);
  auto cfg = tiny_machine(2, 2, 2, 6.0);
  cfg.mesh_spacing = 2.0;
  const Workload w = Workload::build(sys, cfg);
  for (int a = 0; a < 3; ++a) {
    const int d = w.mesh_dim(a);
    EXPECT_TRUE(d > 0 && (d & (d - 1)) == 0);
    EXPECT_GE(d * cfg.mesh_spacing, sys.box().lengths()[a] * 0.99);
  }
  EXPECT_GT(w.spread_support_points(), 26);
  EXPECT_GT(w.spread_halo_bytes(cfg), 0);
}

TEST(Workload, CutoffBeyondMinImageRejected) {
  const System sys = build_water_box(64, 49, -1);
  auto cfg = tiny_machine(2, 2, 2, 100.0);
  EXPECT_THROW(Workload::build(sys, cfg), Error);
}

// `sys` with atom `atom`'s z coordinate replaced by `z`.
System with_z(const System& sys, int atom, double z) {
  System out = sys;
  out.positions()[static_cast<size_t>(atom)].z = z;
  return out;
}

// A system with no atoms in `sys`'s box.
System empty_like(const System& sys) {
  auto top = std::make_shared<Topology>(sys.topology().forcefield());
  top->finalize();
  return System(top, sys.box(), {});
}

TEST(Workload, DegenerateInputRejected) {
  // A non-finite coordinate used to bin to a garbage node (an out-of-bounds
  // write), so did a finite but huge one (|z| ~ 1e18 Å wraps out of the
  // box), and an empty system estimated a finite rate.  These and a cutoff
  // beyond the minimum-image limit are all rejected before any binning, on
  // the path that Workload::build and analyze_decomposition share.
  const System water = build_water_box(300, 52, -1);
  const double inf = std::numeric_limits<double>::infinity();
  struct Row {
    const char* name;
    System sys;
    const char* message;
    double cutoff = 6.0;  // the machine cutoff, Å
  };
  const Row rows[] = {
      {"NaN", with_z(water, 17, std::nan("")), "atom 17 has a non-finite"},
      {"+Inf", with_z(water, 0, inf), "atom 0 has a non-finite"},
      {"-Inf", with_z(water, 899, -inf), "atom 899 has a non-finite"},
      {"4.49e18", with_z(water, 5, 4.49e18),
       "atom 5 has a non-finite or out-of-range"},
      {"-1.12e18", with_z(water, 9, -1.12e18),
       "atom 9 has a non-finite or out-of-range"},
      {"0 atoms", empty_like(water), "the system has no atoms"},
      {"cutoff just beyond L/2", water, "exceeds minimum-image limit",
       std::nextafter(water.box().max_cutoff(), inf)},
  };
  for (const Row& row : rows) {
    const auto cfg = tiny_machine(2, 2, 2, row.cutoff);
    expect_error([&] { Workload::build(row.sys, cfg); }, row.message,
                 std::string(row.name) + ", Workload::build");
    expect_error(
        [&] {
          analyze_decomposition(row.sys, cfg, DecompositionScheme::kHalfShell);
        },
        row.message, std::string(row.name) + ", analyze_decomposition");
    expect_error([&] { AntonMachine(cfg).estimate(row.sys); }, row.message,
                 std::string(row.name) + ", estimate");
  }
}

TEST(Workload, LoadBalanceReasonableForUniformSystem) {
  const System sys = build_water_box(4096, 50, -1);
  const auto w = Workload::build(sys, tiny_machine(4, 4, 4, 6.0));
  const double mean = w.mean_atoms_per_node();
  EXPECT_LT(w.max_atoms_per_node(), 1.6 * mean);
}

void add_bonded(Digest& d, const BondedCounts& b) {
  d.add(b.bonds);
  d.add(b.angles);
  d.add(b.dihedrals);
  d.add(b.pairs14);
}

// Every field Workload::build produces, in order.
uint64_t workload_digest(const Workload& w) {
  Digest d;
  d.add(static_cast<int64_t>(w.tile_offsets().size()));
  for (const auto& off : w.tile_offsets()) {
    d.add(off.dx);
    d.add(off.dy);
    d.add(off.dz);
  }
  d.add(w.num_nodes());
  for (int v = 0; v < w.num_nodes(); ++v) {
    const NodeWork& n = w.node(v);
    d.add(n.atoms);
    d.add(n.internal_pairs);
    d.add(static_cast<int64_t>(n.tiles.size()));
    for (const auto& t : n.tiles) {
      d.add(t.offset_index);
      d.add(t.pairs);
      d.add(t.remote_atoms);
    }
    d.add(static_cast<int64_t>(n.pos_destinations.size()));
    for (int r : n.pos_destinations) d.add(r);
    add_bonded(d, n.bonded_local);
    add_bonded(d, n.bonded_boundary);
    d.add(n.constraints);
  }
  return d.value();
}

struct DigestCase {
  std::string name;
  const System* sys;
  int nx, ny, nz;
  double rc;
  uint64_t golden;  // 0: no constant; compare with the 1-thread build
};

// The systems of the digest cases, built once.
struct DigestSystems {
  System solvated, dhfr, unwrapped, one_atom, slab;
};

const DigestSystems& digest_systems() {
  static const DigestSystems s = [] {
    BuilderOptions o;
    o.total_atoms = 3000;
    o.seed = 47;
    o.temperature_k = -1;
    System solvated = build_solvated_system(o);
    System unwrapped = unwrapped_copy(solvated);
    // One atom in the solvated system's box.
    auto top = std::make_shared<Topology>(solvated.topology().forcefield());
    top->add_atom(0, 0.0);
    top->finalize();
    System one_atom(top, solvated.box(), {Vec3{1.0, 2.0, 3.0}});
    // Water squeezed into the lower 40% of the box along z: most z-layers
    // of cells are empty, and the denser ones hold the range seams.
    System slab = build_water_box(512, 53, -1);
    for (Vec3& p : slab.positions()) p.z *= 0.4;
    return DigestSystems{std::move(solvated),
                         build_benchmark_system(dhfr_spec(), 2014),
                         std::move(unwrapped), std::move(one_atom),
                         std::move(slab)};
  }();
  return s;
}

// The Workload.GoldenDigest cases.  The rc 12 cases' grid has under 3 cells
// per axis and runs the all-pairs fallback; the unwrapped ones give the
// positions as AntonMachine::run() does and must map exactly as the
// wrapped ones.
std::vector<DigestCase> golden_cases() {
  const DigestSystems& s = digest_systems();
  return {
      {"solvated 2^3 rc 9", &s.solvated, 2, 2, 2, 9.0, 0x32C7687078E563CDULL},
      {"solvated 3^3 rc 9", &s.solvated, 3, 3, 3, 9.0, 0x95E972BCE57DCACCULL},
      {"dhfr 4^3 rc 9", &s.dhfr, 4, 4, 4, 9.0, 0x649892FB692B6059ULL},
      {"dhfr 8^3 rc 9", &s.dhfr, 8, 8, 8, 9.0, 0x7A68E498BAC2F2FBULL},
      {"solvated 3^3 rc 12", &s.solvated, 3, 3, 3, 12.0, 0x9B223FF76DB45322ULL},
      {"unwrapped 3^3 rc 9", &s.unwrapped, 3, 3, 3, 9.0, 0x95E972BCE57DCACCULL},
      {"unwrapped 3^3 rc 12", &s.unwrapped, 3, 3, 3, 12.0,
       0x9B223FF76DB45322ULL},
  };
}

TEST(Workload, GoldenDigest) {
  // Pins every NodeWork field and the tile-offset table bit for bit, so a
  // change to the pair pass must reproduce the order-dependent outputs
  // (tile order, remote_atoms) exactly.
  for (const DigestCase& c : golden_cases()) {
    const Workload w =
        Workload::build(*c.sys, tiny_machine(c.nx, c.ny, c.nz, c.rc));
    EXPECT_EQ(workload_digest(w), c.golden) << c.name;
  }
}

TEST(Workload, DigestIndependentOfThreadCount) {
  // The pair pass splits into one range of z-layers per thread and stitches
  // remote_atoms at the seams; every pool size must give the serial
  // build's fields bit for bit.  Beyond the golden cases: a single atom, a
  // single node, and a 1x1x7 torus over a slab with empty layers.
  const DigestSystems& s = digest_systems();
  std::vector<DigestCase> cases = golden_cases();
  cases.push_back({"one atom 2^3 rc 6", &s.one_atom, 2, 2, 2, 6.0, 0});
  cases.push_back({"solvated 1^3 rc 9", &s.solvated, 1, 1, 1, 9.0, 0});
  cases.push_back({"slab 1x1x7 rc 3", &s.slab, 1, 1, 7, 3.0, 0});
  for (DigestCase& c : cases) {
    if (c.golden == 0) {
      ThreadPool serial(1);
      c.golden = workload_digest(Workload::build(
          *c.sys, tiny_machine(c.nx, c.ny, c.nz, c.rc), serial));
    }
  }
  for (unsigned threads : {1u, 2u, 3u, 4u, 7u, 16u}) {
    ThreadPool pool(threads);
    for (const DigestCase& c : cases) {
      const Workload w =
          Workload::build(*c.sys, tiny_machine(c.nx, c.ny, c.nz, c.rc), pool);
      EXPECT_EQ(workload_digest(w), c.golden)
          << c.name << ", " << threads << " threads";
    }
  }
}

TEST(TorusDims, NearCubicFactorisation) {
  int x, y, z;
  core::torus_dims(512, &x, &y, &z);
  EXPECT_EQ(x * y * z, 512);
  EXPECT_EQ(x, 8);
  EXPECT_EQ(y, 8);
  EXPECT_EQ(z, 8);
  core::torus_dims(128, &x, &y, &z);
  EXPECT_EQ(x * y * z, 128);
  EXPECT_LE(std::max({x, y, z}), 8);
  core::torus_dims(1, &x, &y, &z);
  EXPECT_EQ(x * y * z, 1);
  core::torus_dims(7, &x, &y, &z);
  EXPECT_EQ(x * y * z, 7);
}

}  // namespace
}  // namespace anton::core
