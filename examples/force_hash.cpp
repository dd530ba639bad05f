// Prints bit-exact digests of the forces and energies of two force
// evaluations — one under deterministic_forces, and one with the default
// MdParams (the production path: tabulated pair kernel, double accumulation
// at the given thread count) — and of the positions and velocities after
// `steps` default-MdParams Simulation steps on the same pool (the stepped
// production path: forces, the threaded constraint phases, integration).
// Two builds that claim bitwise-identical physics — e.g. the AVX2 and
// scalar SIMD backends at one thread count, or different thread counts for
// the deterministic block — must print byte-identical blocks;
// scripts/check.sh and CI diff this across the two backend trees as the
// cross-configuration parity smoke test.
//
//   ./build/examples/force_hash [molecules=729] [threads=4] [seed=11]
//                               [steps=10]
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <span>
#include <vector>

#include "chem/builder.h"
#include "common/config.h"
#include "common/threadpool.h"
#include "md/engine.h"
#include "md/forces.h"

using namespace anton;

namespace {

// FNV-1a over the raw little-endian bytes of a double sequence.
struct Digest {
  uint64_t h = 1469598103934665603ull;
  void add(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
};

uint64_t bits_of(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// One ForceCompute evaluation (short + long range) of `sys` under `md`.
void print_digest(const char* title, const System& sys, const MdParams& md,
                  ThreadPool& pool) {
  md::ForceCompute fc(sys.topology_ptr(), sys.box(), md, &pool);
  std::vector<Vec3> forces(static_cast<size_t>(sys.num_atoms()), Vec3{});
  fc.warm(sys.positions());
  const EnergyReport e = fc.compute_all(sys.positions(), forces);

  Digest d;
  for (const Vec3& f : forces) {
    d.add(f.x);
    d.add(f.y);
    d.add(f.z);
  }
  std::printf("[%s]\n", title);
  std::printf("force_digest %016" PRIx64 "\n", d.h);
  std::printf("f0 %016" PRIx64 " %016" PRIx64 " %016" PRIx64 "\n",
              bits_of(forces[0].x), bits_of(forces[0].y),
              bits_of(forces[0].z));
  std::printf("e_lj %016" PRIx64 "\n", bits_of(e.lj));
  std::printf("e_coul_real %016" PRIx64 "\n", bits_of(e.coulomb_real));
  std::printf("e_coul_kspace %016" PRIx64 "\n", bits_of(e.coulomb_kspace));
  std::printf("e_coul_excl %016" PRIx64 "\n", bits_of(e.coulomb_excl));
}

void add_all(Digest& d, std::span<const Vec3> v) {
  for (const Vec3& x : v) {
    d.add(x.x);
    d.add(x.y);
    d.add(x.z);
  }
}

// `steps` Simulation steps of `sys` under the default MdParams.
void print_trajectory_digest(const System& sys, int steps, ThreadPool& pool) {
  md::Simulation sim(sys, MdParams{}, &pool);
  sim.step(steps);
  Digest pos, vel;
  add_all(pos, sim.system().positions());
  add_all(vel, sim.system().velocities());
  std::printf("[default MdParams, %d steps]\n", steps);
  std::printf("position_digest %016" PRIx64 "\n", pos.h);
  std::printf("velocity_digest %016" PRIx64 "\n", vel.h);
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  const int molecules = static_cast<int>(cfg.get_int("molecules", 729));
  const int threads = static_cast<int>(cfg.get_int("threads", 4));
  const uint64_t seed = static_cast<uint64_t>(cfg.get_int("seed", 11));
  const int steps = static_cast<int>(cfg.get_int("steps", 10));

  const System sys = build_water_box(molecules, seed);
  ThreadPool pool(static_cast<unsigned>(threads));
  std::printf("atoms %d threads %d\n", sys.num_atoms(), threads);

  MdParams deterministic;
  deterministic.deterministic_forces = true;
  print_digest("deterministic_forces", sys, deterministic, pool);
  print_digest("default MdParams", sys, MdParams{}, pool);
  print_trajectory_digest(sys, steps, pool);
  return 0;
}
