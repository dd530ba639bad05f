// Trajectory analysis: radial distribution functions and transport
// observables.  Used by the validation tests (liquid-water structure is a
// sensitive end-to-end check of the force field + integrator + long-range
// solver) and by downstream users of the library.
#pragma once

#include <span>
#include <vector>

#include "chem/system.h"
#include "common/stats.h"

namespace anton::md {

// Accumulates g(r) between two atom index sets over trajectory frames.
class RdfAccumulator {
 public:
  // r range [0, r_max) with `bins` bins.
  RdfAccumulator(double r_max, int bins);

  // Adds one frame.  `group_a` and `group_b` are atom indices; every pair
  // (a in group_a, b in group_b) of distinct positions within r_max counts
  // once, so the same group passed twice gives a self-RDF.  The pairs come
  // from one pair pass (geom/pair_pass.h) over the union of the groups.
  // Rejects an out-of-range index, and a non-finite position of a group
  // atom, with anton::Error; the latter names the atom by its rank in the
  // union.
  void add_frame(const System& system, std::span<const int> group_a,
                 std::span<const int> group_b);

  // Normalised g(r): bin count / (ideal-gas count at the group-b density).
  std::vector<double> g_of_r() const;
  std::vector<double> r_centers() const;
  int frames() const { return frames_; }

  // Location of the first maximum of g(r) beyond r_min_search.
  double first_peak_r(double r_min_search = 1.0) const;

 private:
  double r_max_;
  int bins_;
  std::vector<double> counts_;
  double pair_norm_ = 0;  // accumulated N_a * rho_b per frame
  int frames_ = 0;
};

// Convenience: indices of all atoms of a given force-field type.
std::vector<int> atoms_of_type(const Topology& top, int type);

// Mean-squared displacement from a reference frame (diffusion diagnostics);
// positions must be unwrapped (the engine never wraps).
double mean_squared_displacement(std::span<const Vec3> reference,
                                 std::span<const Vec3> current);

}  // namespace anton::md
