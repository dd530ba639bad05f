#include "md/analysis.h"

#include <cmath>

#include "common/error.h"
#include "geom/pair_pass.h"

namespace anton::md {

namespace {

// How often each of the system's n atoms appears in `group`.
std::vector<int> multiplicity(std::span<const int> group, size_t n) {
  std::vector<int> m(n, 0);
  for (int i : group) {
    ANTON_CHECK_MSG(i >= 0 && static_cast<size_t>(i) < n,
                    "RDF group atom " << i << " out of range");
    ++m[static_cast<size_t>(i)];
  }
  return m;
}

}  // namespace

RdfAccumulator::RdfAccumulator(double r_max, int bins)
    : r_max_(r_max), bins_(bins), counts_(static_cast<size_t>(bins), 0.0) {
  ANTON_CHECK(r_max > 0 && bins > 0);
}

void RdfAccumulator::add_frame(const System& system,
                               std::span<const int> group_a,
                               std::span<const int> group_b) {
  const Box& box = system.box();
  ANTON_CHECK_MSG(r_max_ <= box.max_cutoff(),
                  "RDF range exceeds the minimum-image limit");
  const auto pos = system.positions();
  const double r_max2 = r_max_ * r_max_;

  // The pass walks the union of the two groups.
  const std::vector<int> in_a = multiplicity(group_a, pos.size());
  const std::vector<int> in_b = multiplicity(group_b, pos.size());
  std::vector<size_t> atoms;
  std::vector<Vec3> atom_pos;
  for (size_t i = 0; i < pos.size(); ++i) {
    if (in_a[i] + in_b[i] > 0) {
      atoms.push_back(i);
      atom_pos.push_back(pos[i]);
    }
  }

  // An unordered pair {a, b} stands for the (a in A, b in B) and the
  // (b in A, a in B) pairs: 2 for a self-RDF, 1 for disjoint groups.
  if (!atoms.empty()) {
    const PairPass pass(box, atom_pos, r_max_);
    pass.for_each([&](int s, int t) {
      const size_t a = atoms[static_cast<size_t>(pass.atom(s))];
      const size_t b = atoms[static_cast<size_t>(pass.atom(t))];
      const int weight = in_a[a] * in_b[b] + in_a[b] * in_b[a];
      if (weight == 0) return;
      const double r2 = box.distance2(pos[a], pos[b]);
      if (r2 < r_max2 && r2 > 1e-12) {
        int bin = static_cast<int>(std::sqrt(r2) / r_max_ * bins_);
        if (bin >= bins_) bin = bins_ - 1;
        counts_[static_cast<size_t>(bin)] += weight;
      }
    });
  }

  const double rho_b =
      static_cast<double>(group_b.size()) / box.volume();
  pair_norm_ += static_cast<double>(group_a.size()) * rho_b;
  ++frames_;
}

std::vector<double> RdfAccumulator::g_of_r() const {
  ANTON_CHECK_MSG(frames_ > 0, "no frames accumulated");
  std::vector<double> g(static_cast<size_t>(bins_));
  const double dr = r_max_ / bins_;
  for (int b = 0; b < bins_; ++b) {
    const double r_lo = b * dr, r_hi = (b + 1) * dr;
    const double shell =
        4.0 / 3.0 * M_PI * (r_hi * r_hi * r_hi - r_lo * r_lo * r_lo);
    const double ideal = pair_norm_ * shell;  // expected count, all frames
    g[static_cast<size_t>(b)] =
        ideal > 0 ? counts_[static_cast<size_t>(b)] / ideal : 0.0;
  }
  return g;
}

std::vector<double> RdfAccumulator::r_centers() const {
  std::vector<double> r(static_cast<size_t>(bins_));
  const double dr = r_max_ / bins_;
  for (int b = 0; b < bins_; ++b) {
    r[static_cast<size_t>(b)] = (b + 0.5) * dr;
  }
  return r;
}

double RdfAccumulator::first_peak_r(double r_min_search) const {
  const auto g = g_of_r();
  const auto r = r_centers();
  double best_r = 0, best_g = -1;
  for (size_t b = 0; b + 1 < g.size(); ++b) {
    if (r[b] < r_min_search) continue;
    if (g[b] > best_g) {
      best_g = g[b];
      best_r = r[b];
    } else if (best_g > 1.0 && g[b] < 0.8 * best_g) {
      break;  // well past the first peak
    }
  }
  return best_r;
}

std::vector<int> atoms_of_type(const Topology& top, int type) {
  std::vector<int> out;
  for (int i = 0; i < top.num_atoms(); ++i) {
    if (top.type(i) == type) out.push_back(i);
  }
  return out;
}

double mean_squared_displacement(std::span<const Vec3> reference,
                                 std::span<const Vec3> current) {
  ANTON_CHECK(reference.size() == current.size() && !reference.empty());
  double acc = 0;
  for (size_t i = 0; i < reference.size(); ++i) {
    acc += norm2(current[i] - reference[i]);
  }
  return acc / static_cast<double>(reference.size());
}

}  // namespace anton::md
