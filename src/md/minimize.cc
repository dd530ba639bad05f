#include "md/minimize.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "md/constraints.h"
#include "md/forces.h"

namespace anton::md {

MinimizeResult minimize_energy(System& system, const MdParams& params,
                               int max_steps, double max_disp, double f_tol,
                               ThreadPool* pool) {
  ANTON_CHECK(max_steps >= 0 && max_disp > 0 && f_tol > 0);
  MinimizeResult result;

  // Use a cheap force setup: minimisation doesn't need k-space accuracy —
  // clashes are short-range phenomena.
  MdParams p = params;
  p.long_range = LongRangeMethod::kNone;
  ForceCompute force(system.topology_ptr(), system.box(), p, pool);
  const ConstraintSolver constraints(system.topology_ptr());

  const int n = system.num_atoms();
  std::vector<Vec3> f(static_cast<size_t>(n));
  std::vector<Vec3> ref(static_cast<size_t>(n));
  auto pos = system.positions();

  EnergyReport e = force.compute_short(pos, f);
  result.initial_energy = e.potential();
  double step_size = 0.2 * max_disp;
  double prev_energy = result.initial_energy;

  for (int iter = 0; iter < max_steps; ++iter) {
    double fmax = 0;
    for (const auto& fi : f) fmax = std::max(fmax, norm(fi));
    result.max_force = fmax;
    if (fmax < f_tol) break;

    // Move along the force; the most-stressed atom moves exactly step_size.
    std::copy(pos.begin(), pos.end(), ref.begin());
    const double scale = step_size / fmax;
    for (int i = 0; i < n; ++i) {
      pos[static_cast<size_t>(i)] += scale * f[static_cast<size_t>(i)];
    }
    constraints.shake(system.box(), ref, pos, {}, 0.0, params.shake_tol,
                      params.shake_max_iter, pool);

    e = force.compute_short(pos, f);
    const double energy = e.potential();
    if (energy < prev_energy) {
      step_size = std::min(step_size * 1.2, max_disp);
      prev_energy = energy;
    } else {
      // Backtrack: undo and shrink.
      std::copy(ref.begin(), ref.end(), pos.begin());
      e = force.compute_short(pos, f);
      step_size *= 0.5;
      if (step_size < 1e-6) break;
    }
    result.steps = iter + 1;
  }
  result.final_energy = prev_energy;
  return result;
}

}  // namespace anton::md
