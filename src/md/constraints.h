// Holonomic bond-length constraints: SHAKE (positions) and RATTLE
// (velocities), solved one constraint group at a time.
//
// A group is a connected component of the constraint graph: a rigid 3-site
// water (3 constraints) or a single constrained side-bead bond.  Each
// group's own constraint equations are solved together by Newton iteration
// (M-SHAKE; Kräutler, van Gunsteren & Hünenberger 2001) — the same
// equations and tolerance as SHAKE, which sweeps the constraints one at a
// time, Gauss–Seidel style.  Newton converges in a few iterations where the
// sweep needs tens.  Groups share no atom, so they are split across a
// thread pool; each group is solved by one thread in a fixed order, and the
// results are bit-identical at any thread count.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "chem/topology.h"
#include "common/threadpool.h"
#include "common/vec3.h"
#include "geom/box.h"

namespace anton::md {

// Folded over groups: iterations and max_violation are the maxima (a NaN
// violation makes max_violation NaN), converged is true when every group
// converged.
struct ShakeStats {
  int iterations = 0;
  double max_violation = 0;  // relative, after the last iteration
  bool converged = false;
};

class ConstraintSolver {
 public:
  // Largest group, in constraints; a group's Newton system lives on the
  // stack.
  static constexpr int kMaxGroupSize = 16;

  // Finds the groups by union-find over the constraint graph.  Raises
  // anton::Error naming the group's size and first atom when a group has
  // more than kMaxGroupSize constraints.
  explicit ConstraintSolver(std::shared_ptr<const Topology> top);

  int num_groups() const { return static_cast<int>(start_.size()) - 1; }
  // Constraint indices of group g, in topology order.
  std::span<const int> group(int g) const {
    return {index_.data() + start_[static_cast<size_t>(g)],
            index_.data() + start_[static_cast<size_t>(g) + 1]};
  }

  // Adjusts `pos` so that every constraint is satisfied to |r²-d²|/d² <=
  // tol.  `ref` holds the positions *before* the unconstrained update:
  // corrections run along its bond vectors, as in standard SHAKE.  If `vel`
  // is non-empty and dt > 0, the position corrections are also applied to
  // velocities as Δp/dt (the velocity half of constrained velocity Verlet).
  // A group stops after max_iter Newton iterations; a violation that is not
  // <= tol (NaN included) or a singular Jacobian leaves it unconverged.
  // Groups are split across `pool`, serially when it is null.
  ShakeStats shake(const Box& box, std::span<const Vec3> ref,
                   std::span<Vec3> pos, std::span<Vec3> vel, double dt,
                   double tol, int max_iter, ThreadPool* pool = nullptr) const;

  // Projects velocity components along constrained bonds to zero (RATTLE
  // second stage) so that |v_ij · r_ij|/d² <= tol for every constraint.
  // The equations are linear in the multipliers: one solve per group, then
  // the tolerance check.
  ShakeStats rattle(const Box& box, std::span<const Vec3> pos,
                    std::span<Vec3> vel, double tol, int max_iter,
                    ThreadPool* pool = nullptr) const;

 private:
  std::shared_ptr<const Topology> top_;
  std::vector<int> start_;  // group g is index_[start_[g], start_[g + 1])
  std::vector<int> index_;  // constraint indices, grouped
};

// One-call serial forms: build a ConstraintSolver for `top` and run it.
// Callers that constrain the same topology repeatedly, or on a pool, keep a
// solver instead.
ShakeStats shake(const Box& box, const Topology& top,
                 std::span<const Vec3> ref, std::span<Vec3> pos,
                 std::span<Vec3> vel, double dt, double tol, int max_iter);
ShakeStats rattle(const Box& box, const Topology& top,
                  std::span<const Vec3> pos, std::span<Vec3> vel, double tol,
                  int max_iter);

// Max relative constraint violation of a configuration (diagnostics/tests).
double max_constraint_violation(const Box& box, const Topology& top,
                                std::span<const Vec3> pos);

}  // namespace anton::md
