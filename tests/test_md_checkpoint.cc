#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>

#include "chem/builder.h"
#include "md/checkpoint.h"
#include "md/engine.h"
#include "test_support.h"

namespace anton::md {
namespace {

using test_support::expect_error;

MdParams params() {
  MdParams p;
  p.cutoff = 6.5;
  p.skin = 0.7;
  p.dt_fs = 1.0;
  p.long_range = LongRangeMethod::kMesh;
  return p;
}

TEST(Checkpoint, StreamRoundTripIsExact) {
  System sys = build_water_box(64, 71);
  const Checkpoint cp = capture(sys, 42);
  std::stringstream ss;
  save_checkpoint(ss, cp);
  const Checkpoint loaded = load_checkpoint(ss);
  EXPECT_EQ(loaded.step, 42);
  ASSERT_EQ(loaded.positions.size(), cp.positions.size());
  for (size_t i = 0; i < cp.positions.size(); ++i) {
    EXPECT_EQ(loaded.positions[i], cp.positions[i]);    // bitwise
    EXPECT_EQ(loaded.velocities[i], cp.velocities[i]);
  }
}

TEST(Checkpoint, RestartContinuesTrajectory) {
  // Run 10 steps; checkpoint at 5; restart from the checkpoint and compare
  // against the uninterrupted run.  The restarted engine rebuilds its
  // neighbour list from the restored positions, which reorders the
  // floating-point pair summation relative to the carried-over list — so
  // agreement is to rounding-amplified precision, not bitwise (exactly the
  // problem Anton's fixed-point accumulation hardware solves).
  System sys = build_water_box(125, 72);
  Simulation sim(std::move(sys), params());
  sim.step(5);
  const Checkpoint cp = capture(sim.system(), sim.step_count());
  sim.step(5);
  const std::vector<Vec3> reference(sim.system().positions().begin(),
                                    sim.system().positions().end());

  System sys2 = build_water_box(125, 72);
  restore(sys2, cp);
  Simulation sim2(std::move(sys2), params());
  sim2.step(5);
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_NEAR(norm(sim2.system().positions()[i] - reference[i]), 0.0,
                2e-2);
  }
}

TEST(Checkpoint, RestartFromSameStateIsBitwiseDeterministic) {
  // Two engines restored from the same checkpoint evolve identically — the
  // list-rebuild schedule is aligned, so determinism is exact.
  System sys = build_water_box(125, 76);
  Simulation warm(std::move(sys), params());
  warm.step(5);
  const Checkpoint cp = capture(warm.system(), warm.step_count());

  auto run = [&] {
    System s = build_water_box(125, 76);
    restore(s, cp);
    Simulation sim(std::move(s), params());
    sim.step(5);
    return std::vector<Vec3>(sim.system().positions().begin(),
                             sim.system().positions().end());
  };
  const auto a = run();
  const auto b = run();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);
  }
}

TEST(Checkpoint, FileRoundTrip) {
  System sys = build_water_box(27, 73);
  const std::string path = "/tmp/anton2sim_test_checkpoint.bin";
  save_checkpoint_file(path, capture(sys, 7));
  const Checkpoint cp = load_checkpoint_file(path);
  EXPECT_EQ(cp.step, 7);
  EXPECT_EQ(static_cast<int>(cp.positions.size()), sys.num_atoms());
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsGarbage) {
  // Layout: magic (8 bytes), version (4), step (8), atom count n (8), then n
  // positions and n velocities of sizeof(Vec3) each.
  constexpr size_t kCountAt = 20;
  constexpr size_t kHeader = 28;
  std::stringstream valid;
  save_checkpoint(valid, capture(build_water_box(27, 77), 3));
  const std::string bytes = valid.str();
  const size_t n = (bytes.size() - kHeader) / (2 * sizeof(Vec3));
  const size_t velocities_at = kHeader + n * sizeof(Vec3);
  {
    std::stringstream whole(bytes);
    ASSERT_EQ(load_checkpoint(whole).positions.size(), n);
  }

  // A header claiming 2^32 - 1 atoms over two atoms of payload must fail on
  // the missing bytes, not allocate the claimed count first.
  Checkpoint two;
  two.positions = {{1, 2, 3}, {4, 5, 6}};
  two.velocities = {{0.1, 0.2, 0.3}, {0.4, 0.5, 0.6}};
  std::stringstream two_ss;
  save_checkpoint(two_ss, two);
  std::string huge = two_ss.str();
  const uint64_t huge_n = (1ull << 32) - 1;
  std::memcpy(huge.data() + kCountAt, &huge_n, sizeof huge_n);

  struct Row {
    const char* name;
    std::string bytes;
    const char* message;
  };
  const Row rows[] = {
      {"garbage text", "this is not a checkpoint at all",
       "not an anton2sim checkpoint"},
      {"n = 2^32 - 1 over 2 atoms", huge, "truncated checkpoint"},
      {"cut inside the header", bytes.substr(0, kCountAt - 3),
       "truncated checkpoint"},
      {"cut inside the positions",
       bytes.substr(0, kHeader + 10 * sizeof(Vec3) + 5),
       "truncated checkpoint"},
      {"cut inside the velocities",
       bytes.substr(0, velocities_at + 3 * sizeof(Vec3) + 1),
       "truncated checkpoint"},
  };
  for (const Row& row : rows) {
    std::stringstream ss(row.bytes);
    expect_error([&] { load_checkpoint(ss); }, row.message, row.name);
  }
}

TEST(Checkpoint, RejectsAtomCountMismatch) {
  System big = build_water_box(64, 74);
  System small = build_water_box(27, 74);
  const Checkpoint cp = capture(big, 0);
  EXPECT_THROW(restore(small, cp), Error);
}

TEST(Checkpoint, XyzFrameFormat) {
  System sys = build_water_box(2, 75, -1);
  std::stringstream ss;
  append_xyz_frame(ss, sys, "frame 0");
  std::string line;
  std::getline(ss, line);
  EXPECT_EQ(line, "6");
  std::getline(ss, line);
  EXPECT_EQ(line, "frame 0");
  int atom_lines = 0;
  while (std::getline(ss, line)) {
    if (!line.empty()) ++atom_lines;
  }
  EXPECT_EQ(atom_lines, 6);
}

}  // namespace
}  // namespace anton::md
