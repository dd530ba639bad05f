#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "chem/builder.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "common/units.h"
#include "md/constraints.h"
#include "md/params.h"

namespace anton::md {
namespace {

// The classic SHAKE and RATTLE sweeps, the reference the group solver must
// agree with: one constraint at a time, Gauss–Seidel style, until the worst
// relative violation is within tol.
int gauss_seidel_shake(const Box& box, const Topology& top,
                       std::span<const Vec3> ref, std::span<Vec3> pos,
                       std::span<Vec3> vel, double dt, double tol) {
  const auto mass = top.masses();
  for (int sweep = 1; sweep <= 1000; ++sweep) {
    double worst = 0.0;
    for (const Constraint& c : top.constraints()) {
      const size_t i = static_cast<size_t>(c.i), j = static_cast<size_t>(c.j);
      const Vec3 p = box.min_image(pos[i], pos[j]);
      const double d2 = c.length * c.length;
      const double diff = norm2(p) - d2;
      worst = std::max(worst, std::abs(diff) / d2);
      if (std::abs(diff) / d2 <= tol) continue;
      const Vec3 r = box.min_image(ref[i], ref[j]);
      const double g =
          diff / (2.0 * (1.0 / mass[i] + 1.0 / mass[j]) * dot(p, r));
      const Vec3 dp_i = (-g / mass[i]) * r, dp_j = (g / mass[j]) * r;
      pos[i] += dp_i;
      pos[j] += dp_j;
      vel[i] += dp_i / dt;
      vel[j] += dp_j / dt;
    }
    if (worst <= tol) return sweep;
  }
  return -1;
}

int gauss_seidel_rattle(const Box& box, const Topology& top,
                        std::span<const Vec3> pos, std::span<Vec3> vel,
                        double tol) {
  const auto mass = top.masses();
  for (int sweep = 1; sweep <= 1000; ++sweep) {
    double worst = 0.0;
    for (const Constraint& c : top.constraints()) {
      const size_t i = static_cast<size_t>(c.i), j = static_cast<size_t>(c.j);
      const Vec3 r = box.min_image(pos[i], pos[j]);
      const double d2 = c.length * c.length;
      const double rv = dot(r, vel[i] - vel[j]);
      worst = std::max(worst, std::abs(rv) / d2);
      const double k = rv / ((1.0 / mass[i] + 1.0 / mass[j]) * d2);
      vel[i] -= (k / mass[i]) * r;
      vel[j] += (k / mass[j]) * r;
    }
    if (worst <= tol) return sweep;
  }
  return -1;
}

// One unconstrained drift step of the DHFR-class system (both group
// sizes: 7,023 rigid waters and 826 side-bead bonds) from its 300 K
// velocities, ready for SHAKE and then RATTLE.
struct DriftStep {
  System sys = build_benchmark_system(dhfr_spec());
  double dt = units::fs_to_internal(2.5);
  std::vector<Vec3> ref{sys.positions().begin(), sys.positions().end()};
  std::vector<Vec3> pos, vel{sys.velocities().begin(), sys.velocities().end()};

  DriftStep() {
    for (size_t i = 0; i < ref.size(); ++i) pos.push_back(ref[i] + dt * vel[i]);
  }
};

const DriftStep& dhfr_drift() {
  static const DriftStep* step = new DriftStep();
  return *step;
}

double max_abs_diff(const std::vector<Vec3>& a, const std::vector<Vec3>& b) {
  double d = 0.0;
  for (size_t i = 0; i < a.size(); ++i) d = std::max(d, norm(a[i] - b[i]));
  return d;
}

TEST(Shake, RestoresSingleBondLength) {
  ForceField ff = ForceField::standard();
  Topology top(ff);
  top.add_atom(ForceField::Std::kCB, 0.0);
  top.add_atom(ForceField::Std::kCB, 0.0);
  top.add_constraint({0, 1, 1.5});
  top.finalize();
  const Box box = Box::cube(20.0);

  std::vector<Vec3> ref{{5, 5, 5}, {6.5, 5, 5}};   // satisfied
  std::vector<Vec3> pos{{5, 5, 5}, {6.9, 5.2, 5}};  // violated after a step
  std::vector<Vec3> vel(2);
  const auto stats = shake(box, top, ref, pos, vel, 0.01, 1e-10, 100);
  EXPECT_TRUE(stats.converged);
  EXPECT_NEAR(box.distance(pos[0], pos[1]), 1.5, 1e-7);
}

TEST(Shake, PreservesCenterOfMass) {
  ForceField ff = ForceField::standard();
  Topology top(ff);
  const int a = top.add_atom(ForceField::Std::kOW, 0.0);  // mass 16
  const int b = top.add_atom(ForceField::Std::kHW, 0.0);  // mass 1
  top.add_constraint({a, b, 1.0});
  top.finalize();
  const Box box = Box::cube(20.0);

  std::vector<Vec3> ref{{5, 5, 5}, {6, 5, 5}};
  std::vector<Vec3> pos{{5, 5, 5}, {6.4, 5, 5}};
  const double m_o = top.mass(a), m_h = top.mass(b);
  const Vec3 com_before =
      (m_o * pos[0] + m_h * pos[1]) / (m_o + m_h);
  std::vector<Vec3> vel(2);
  shake(box, top, ref, pos, vel, 0.01, 1e-10, 100);
  const Vec3 com_after = (m_o * pos[0] + m_h * pos[1]) / (m_o + m_h);
  EXPECT_NEAR(norm(com_after - com_before), 0.0, 1e-10);
  // The light atom moves far more than the heavy one.
  EXPECT_GT(norm(pos[1] - Vec3{6.4, 5, 5}), 10 * norm(pos[0] - Vec3{5, 5, 5}));
}

TEST(Shake, WaterTriangleConverges) {
  // Distort a rigid water and let SHAKE restore all three constraints.
  const System sys = build_water_box(1, 40, -1);
  const Topology& top = sys.topology();
  std::vector<Vec3> ref(sys.positions().begin(), sys.positions().end());
  std::vector<Vec3> pos = ref;
  Rng rng(13, 0);
  for (auto& p : pos) p += 0.08 * rng.gaussian_vec3();
  std::vector<Vec3> vel(pos.size());
  const auto stats =
      shake(sys.box(), top, ref, pos, vel, 0.01, 1e-10, 500);
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(max_constraint_violation(sys.box(), top, pos), 1e-9);
}

TEST(Shake, VelocityCorrectionApplied) {
  ForceField ff = ForceField::standard();
  Topology top(ff);
  top.add_atom(ForceField::Std::kCB, 0.0);
  top.add_atom(ForceField::Std::kCB, 0.0);
  top.add_constraint({0, 1, 1.5});
  top.finalize();
  const Box box = Box::cube(20.0);
  const double dt = 0.01;

  std::vector<Vec3> ref{{5, 5, 5}, {6.5, 5, 5}};
  std::vector<Vec3> pos{{5, 5, 5}, {6.8, 5, 5}};
  std::vector<Vec3> pos_copy = pos;
  std::vector<Vec3> vel{{0, 0, 0}, {0, 0, 0}};
  shake(box, top, ref, pos, vel, dt, 1e-10, 100);
  // Δv = Δp/dt for each atom.
  for (int i = 0; i < 2; ++i) {
    const Vec3 dp = pos[static_cast<size_t>(i)] - pos_copy[static_cast<size_t>(i)];
    EXPECT_NEAR(vel[static_cast<size_t>(i)].x, dp.x / dt, 1e-9);
  }
}

TEST(Rattle, RemovesRadialVelocity) {
  ForceField ff = ForceField::standard();
  Topology top(ff);
  top.add_atom(ForceField::Std::kCB, 0.0);
  top.add_atom(ForceField::Std::kCB, 0.0);
  top.add_constraint({0, 1, 2.0});
  top.finalize();
  const Box box = Box::cube(20.0);

  std::vector<Vec3> pos{{5, 5, 5}, {7, 5, 5}};
  // Velocity with both radial (x) and tangential (y) components.
  std::vector<Vec3> vel{{1.0, 0.5, 0}, {-1.0, -0.5, 0}};
  const auto stats = rattle(box, top, pos, vel, 1e-12, 100);
  EXPECT_TRUE(stats.converged);
  const Vec3 r = pos[0] - pos[1];
  EXPECT_NEAR(dot(vel[0] - vel[1], r), 0.0, 1e-9);
  // Tangential motion preserved.
  EXPECT_NEAR(vel[0].y, 0.5, 1e-9);
}

TEST(Rattle, ConservesMomentum) {
  const System sys = build_water_box(8, 40, -1);
  std::vector<Vec3> pos(sys.positions().begin(), sys.positions().end());
  std::vector<Vec3> vel(pos.size());
  Rng rng(14, 0);
  for (auto& v : vel) v = rng.gaussian_vec3();
  const auto m = sys.topology().masses();
  Vec3 p_before{};
  for (size_t i = 0; i < vel.size(); ++i) p_before += m[i] * vel[i];
  rattle(sys.box(), sys.topology(), pos, vel, 1e-10, 200);
  Vec3 p_after{};
  for (size_t i = 0; i < vel.size(); ++i) p_after += m[i] * vel[i];
  EXPECT_NEAR(norm(p_after - p_before), 0.0, 1e-9);
}

TEST(Constraints, NoConstraintsIsNoOp) {
  ForceField ff = ForceField::standard();
  Topology top(ff);
  top.add_atom(ForceField::Std::kCB, 0.0);
  top.finalize();
  const Box box = Box::cube(10.0);
  std::vector<Vec3> pos{{1, 1, 1}};
  std::vector<Vec3> vel{{2, 2, 2}};
  const auto s1 = shake(box, top, pos, pos, vel, 0.01, 1e-10, 10);
  const auto s2 = rattle(box, top, pos, vel, 1e-10, 10);
  EXPECT_TRUE(s1.converged);
  EXPECT_TRUE(s2.converged);
  EXPECT_EQ(vel[0], Vec3(2, 2, 2));
}

TEST(Constraints, ViolationMetric) {
  ForceField ff = ForceField::standard();
  Topology top(ff);
  top.add_atom(ForceField::Std::kCB, 0.0);
  top.add_atom(ForceField::Std::kCB, 0.0);
  top.add_constraint({0, 1, 2.0});
  top.finalize();
  const Box box = Box::cube(20.0);
  std::vector<Vec3> ok{{0, 0, 0}, {2, 0, 0}};
  EXPECT_NEAR(max_constraint_violation(box, top, ok), 0.0, 1e-12);
  std::vector<Vec3> bad{{0, 0, 0}, {2.2, 0, 0}};
  // |r² - d²|/d² = |4.84-4|/4 = 0.21.
  EXPECT_NEAR(max_constraint_violation(box, top, bad), 0.21, 1e-10);
}

TEST(ConstraintSolver, GroupsAreConnectedComponentsInTopologyOrder) {
  const System& sys = dhfr_drift().sys;
  const Topology& top = sys.topology();
  const ConstraintSolver solver(sys.topology_ptr());
  EXPECT_EQ(solver.num_groups(), static_cast<int>(top.waters().size()) + 826);
  std::vector<int> seen(top.constraints().size(), 0);
  int waters = 0;
  for (int g = 0; g < solver.num_groups(); ++g) {
    const auto members = solver.group(g);
    ASSERT_TRUE(members.size() == 1 || members.size() == 3) << "group " << g;
    waters += members.size() == 3 ? 1 : 0;
    for (size_t k = 0; k < members.size(); ++k) {
      ++seen[static_cast<size_t>(members[k])];
      if (k > 0) {
        EXPECT_LT(members[k - 1], members[k]);
      }
      // Every member shares an atom with the group's first constraint.
      const Constraint& a = top.constraints()[static_cast<size_t>(members[0])];
      const Constraint& b = top.constraints()[static_cast<size_t>(members[k])];
      EXPECT_TRUE(a.i == b.i || a.i == b.j || a.j == b.i || a.j == b.j);
    }
    if (g > 0) {
      EXPECT_LT(solver.group(g - 1)[0], members[0]);
    }
  }
  EXPECT_EQ(waters, static_cast<int>(top.waters().size()));
  for (const int count : seen) EXPECT_EQ(count, 1);
}

TEST(ConstraintSolver, RejectsGroupOverTheCap) {
  // A chain of kMaxGroupSize + 1 constraints is one group, one too many.
  ForceField ff = ForceField::standard();
  auto top = std::make_shared<Topology>(ff);
  const int n = ConstraintSolver::kMaxGroupSize + 2;
  for (int a = 0; a < n; ++a) top->add_atom(ForceField::Std::kCB, 0.0);
  for (int a = 0; a + 1 < n; ++a) top->add_constraint({a, a + 1, 1.5});
  top->finalize();
  try {
    const ConstraintSolver solver(top);
    ADD_FAILURE() << "a group of " << n - 1 << " constraints was accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("group of 17 constraints at atom 0"), std::string::npos)
        << what;
  }
}

// At tol 1e-12 Newton on each group and the Gauss–Seidel sweep solve the
// same equations, so they land on the same positions and velocities.
TEST(ConstraintSolver, MatchesGaussSeidelOnDhfrDriftStep) {
  const DriftStep& d = dhfr_drift();
  const Box& box = d.sys.box();
  const Topology& top = d.sys.topology();
  constexpr double kTol = 1e-12;

  auto pos_gs = d.pos, vel_gs = d.vel;
  ASSERT_GT(gauss_seidel_shake(box, top, d.ref, pos_gs, vel_gs, d.dt, kTol), 0);
  auto pos = d.pos, vel = d.vel;
  const ShakeStats s = shake(box, top, d.ref, pos, vel, d.dt, kTol, 100);
  ASSERT_TRUE(s.converged);
  EXPECT_LE(s.max_violation, kTol);
  EXPECT_LT(max_abs_diff(pos, pos_gs), 1e-10);
  EXPECT_LT(max_abs_diff(vel, vel_gs), 1e-9);

  ASSERT_GT(gauss_seidel_rattle(box, top, pos_gs, vel_gs, kTol), 0);
  const ShakeStats r = rattle(box, top, pos, vel, kTol, 100);
  ASSERT_TRUE(r.converged);
  EXPECT_LT(max_abs_diff(vel, vel_gs), 1e-9);
}

TEST(ConstraintSolver, NewtonConvergesInFewIterations) {
  const DriftStep& d = dhfr_drift();
  const ConstraintSolver solver(d.sys.topology_ptr());
  const MdParams p;
  auto pos = d.pos, vel = d.vel;
  const ShakeStats s = solver.shake(d.sys.box(), d.ref, pos, vel, d.dt,
                                    p.shake_tol, p.shake_max_iter);
  ASSERT_TRUE(s.converged);
  EXPECT_LE(s.iterations, 6);
  const ShakeStats r = solver.rattle(d.sys.box(), pos, vel, p.shake_tol,
                                     p.shake_max_iter);
  ASSERT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 2);
}

// Each group is solved by one thread in a fixed order, so the split across
// a pool changes nothing, bit for bit.
TEST(ConstraintSolver, BitwiseAcrossThreadCounts) {
  const DriftStep& d = dhfr_drift();
  const ConstraintSolver solver(d.sys.topology_ptr());
  const MdParams p;
  auto run = [&](ThreadPool* pool) {
    std::vector<Vec3> pos = d.pos, vel = d.vel;
    const ShakeStats s = solver.shake(d.sys.box(), d.ref, pos, vel, d.dt,
                                      p.shake_tol, p.shake_max_iter, pool);
    const ShakeStats r = solver.rattle(d.sys.box(), pos, vel, p.shake_tol,
                                       p.shake_max_iter, pool);
    EXPECT_TRUE(s.converged && r.converged);
    pos.insert(pos.end(), vel.begin(), vel.end());
    return std::make_pair(pos, std::make_pair(s, r));
  };
  const auto serial = run(nullptr);
  for (const unsigned threads : {1u, 2u, 3u, 4u, 7u}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    const auto threaded = run(&pool);
    ASSERT_EQ(threaded.first.size(), serial.first.size());
    for (size_t i = 0; i < serial.first.size(); ++i) {
      ASSERT_EQ(serial.first[i].x, threaded.first[i].x) << i;
      ASSERT_EQ(serial.first[i].y, threaded.first[i].y) << i;
      ASSERT_EQ(serial.first[i].z, threaded.first[i].z) << i;
    }
    for (const auto& [a, b] : {std::make_pair(serial.second.first,
                                              threaded.second.first),
                               std::make_pair(serial.second.second,
                                              threaded.second.second)}) {
      EXPECT_EQ(a.iterations, b.iterations);
      EXPECT_EQ(a.max_violation, b.max_violation);
    }
  }
}

// A non-finite input must not read as converged: NaN compares false with
// every tolerance.
TEST(Constraints, NonFiniteInputIsUnconverged) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const System sys = build_water_box(8, 40, 300.0);
  const Topology& top = sys.topology();
  const std::vector<Vec3> ref(sys.positions().begin(), sys.positions().end());
  const std::vector<Vec3> v0(sys.velocities().begin(),
                             sys.velocities().end());
  const ConstraintSolver solver(sys.topology_ptr());
  ThreadPool pool(2);
  for (ThreadPool* tp : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(tp == nullptr ? "serial" : "pool");
    {
      SCOPED_TRACE("NaN position");
      std::vector<Vec3> pos = ref, vel = v0;
      pos[4].y = nan;
      const ShakeStats s =
          solver.shake(sys.box(), ref, pos, vel, 0.01, 1e-8, 50, tp);
      EXPECT_FALSE(s.converged);
      EXPECT_TRUE(std::isnan(s.max_violation));
    }
    {
      SCOPED_TRACE("NaN velocity");
      std::vector<Vec3> vel = v0;
      vel[7].z = nan;
      const ShakeStats r = solver.rattle(sys.box(), ref, vel, 1e-8, 50, tp);
      EXPECT_FALSE(r.converged);
      EXPECT_TRUE(std::isnan(r.max_violation));
    }
  }
  {
    SCOPED_TRACE("one-call forms");
    std::vector<Vec3> pos = ref, vel = v0;
    pos[4].y = nan;
    EXPECT_FALSE(
        shake(sys.box(), top, ref, pos, vel, 0.01, 1e-8, 50).converged);
    vel = v0;
    vel[7].z = nan;
    EXPECT_FALSE(rattle(sys.box(), top, ref, vel, 1e-8, 50).converged);
  }
}

}  // namespace
}  // namespace anton::md
