#include "md/constraints.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/error.h"

namespace anton::md {
namespace {

constexpr int kMax = ConstraintSolver::kMaxGroupSize;
// A Newton system whose pivot is not above this magnitude (NaN included) is
// singular; its group stays unconverged.
constexpr double kSingular = 1e-12;

// The larger of a and b, NaN when either is: a max that a NaN violation
// cannot fall out of, whatever the order of the fold.
double max_nan(double a, double b) { return (a > b || std::isnan(a)) ? a : b; }

void fold(ShakeStats& acc, const ShakeStats& s) {
  acc.iterations = std::max(acc.iterations, s.iterations);
  acc.max_violation = max_nan(acc.max_violation, s.max_violation);
  acc.converged = acc.converged && s.converged;
}

// fold() for ranges finishing on different threads.  Each fold is
// commutative, so the result does not depend on the finishing order.
class AtomicStats {
 public:
  void add(const ShakeStats& s) {
    int it = iterations_.load(std::memory_order_relaxed);
    while (it < s.iterations &&
           !iterations_.compare_exchange_weak(it, s.iterations,
                                              std::memory_order_relaxed)) {
    }
    double v = max_violation_.load(std::memory_order_relaxed);
    for (;;) {
      const double want = max_nan(v, s.max_violation);
      if (std::isnan(v) || want == v) break;
      if (max_violation_.compare_exchange_weak(v, want,
                                               std::memory_order_relaxed)) {
        break;
      }
    }
    if (!s.converged) converged_.store(false, std::memory_order_relaxed);
  }
  ShakeStats result() const {
    return {iterations_.load(std::memory_order_relaxed),
            max_violation_.load(std::memory_order_relaxed),
            converged_.load(std::memory_order_relaxed)};
  }

 private:
  std::atomic<int> iterations_{0};
  std::atomic<double> max_violation_{0.0};
  std::atomic<bool> converged_{true};
};

// One group's constraints, gathered from the topology for one solve.
struct Group {
  int m;
  size_t i[kMax], j[kMax];
  double d2[kMax], inv_d2[kMax];
  double wi[kMax], wj[kMax];  // inverse masses of atoms i and j
  // c[k][l]: how a correction along constraint l moves constraint k's bond,
  // Σ over shared atoms a of ±1/m_a (+ when a sits at the same end of
  // both constraints).
  double c[kMax][kMax];

  Group(std::span<const int> idx, std::span<const Constraint> cons,
        std::span<const double> mass)
      : m(static_cast<int>(idx.size())) {
    for (int k = 0; k < m; ++k) {
      const Constraint& con = cons[static_cast<size_t>(idx[k])];
      i[k] = static_cast<size_t>(con.i);
      j[k] = static_cast<size_t>(con.j);
      d2[k] = con.length * con.length;
      inv_d2[k] = 1.0 / d2[k];
      wi[k] = 1.0 / mass[i[k]];
      wj[k] = 1.0 / mass[j[k]];
    }
    for (int k = 0; k < m; ++k) {
      for (int l = 0; l < m; ++l) {
        double ckl = 0.0;
        if (i[k] == i[l]) ckl += wi[k];
        if (i[k] == j[l]) ckl -= wi[k];
        if (j[k] == i[l]) ckl -= wj[k];
        if (j[k] == j[l]) ckl += wj[k];
        c[k][l] = ckl;
      }
    }
  }
};

// Solves a x = b for the leading m×m block by Gaussian elimination with
// partial pivoting; x overwrites b.  Returns false when the system is
// singular.
bool solve_dense(int m, double (&a)[kMax][kMax], double (&b)[kMax]) {
  double inv_pivot[kMax];
  for (int col = 0; col < m; ++col) {
    int piv = col;
    for (int r = col + 1; r < m; ++r) {
      if (std::abs(a[r][col]) > std::abs(a[piv][col])) piv = r;
    }
    if (!(std::abs(a[piv][col]) > kSingular)) return false;
    if (piv != col) {
      for (int c = col; c < m; ++c) std::swap(a[piv][c], a[col][c]);
      std::swap(b[piv], b[col]);
    }
    inv_pivot[col] = 1.0 / a[col][col];
    for (int r = col + 1; r < m; ++r) {
      const double f = a[r][col] * inv_pivot[col];
      for (int c = col + 1; c < m; ++c) a[r][c] -= f * a[col][c];
      b[r] -= f * b[col];
    }
  }
  for (int r = m - 1; r >= 0; --r) {
    double x = b[r];
    for (int c = r + 1; c < m; ++c) x -= a[r][c] * b[c];
    b[r] = x * inv_pivot[r];
  }
  return true;
}

// Newton on f_k(g) = |p_k(g)|² - d_k² = 0, where p_k is constraint k's bond
// vector after corrections g_l along the reference bond vectors s_l:
// J_kl = ∂f_k/∂g_l = 2 c_kl (p_k · s_l).
ShakeStats shake_group(const Group& g, const Box& box,
                       std::span<const Vec3> ref, std::span<Vec3> pos,
                       std::span<Vec3> vel, double dt, double tol,
                       int max_iter) {
  const int m = g.m;
  const bool fix_vel = !vel.empty() && dt > 0;
  const double inv_dt = fix_vel ? 1.0 / dt : 0.0;
  // Reference bond vectors, and the periodic image shift of each current
  // bond vector, which corrections far smaller than the box cannot change.
  Vec3 s[kMax], p[kMax], shift[kMax];
  for (int k = 0; k < m; ++k) {
    const Vec3& a = pos[g.i[k]];
    const Vec3& b = pos[g.j[k]];
    s[k] = box.min_image(ref[g.i[k]], ref[g.j[k]]);
    shift[k] = box.min_image(a, b) - (a - b);
  }

  ShakeStats st;
  for (int iter = 0; iter < max_iter; ++iter) {
    double f[kMax];
    bool ok = true;
    st.max_violation = 0.0;
    for (int k = 0; k < m; ++k) {
      p[k] = (pos[g.i[k]] - pos[g.j[k]]) + shift[k];
      f[k] = norm2(p[k]) - g.d2[k];
      const double viol = std::abs(f[k]) * g.inv_d2[k];
      ok = ok && viol <= tol;
      st.max_violation = max_nan(st.max_violation, viol);
    }
    st.iterations = iter + 1;
    if (ok) {
      st.converged = true;
      return st;
    }
    double jac[kMax][kMax];
    for (int k = 0; k < m; ++k) {
      for (int l = 0; l < m; ++l) {
        jac[k][l] = 2.0 * g.c[k][l] * dot(p[k], s[l]);
      }
    }
    if (!solve_dense(m, jac, f)) return st;
    for (int l = 0; l < m; ++l) {
      const Vec3 dp_i = (-f[l] * g.wi[l]) * s[l];
      const Vec3 dp_j = (f[l] * g.wj[l]) * s[l];
      pos[g.i[l]] += dp_i;
      pos[g.j[l]] += dp_j;
      if (fix_vel) {
        vel[g.i[l]] += inv_dt * dp_i;
        vel[g.j[l]] += inv_dt * dp_j;
      }
    }
  }
  return st;
}

// The velocity constraints p_k · v_k = 0 are linear in the multipliers μ_l
// of corrections along the bond vectors p_l: K_kl = c_kl (p_k · p_l).
ShakeStats rattle_group(const Group& g, const Box& box,
                        std::span<const Vec3> pos, std::span<Vec3> vel,
                        double tol, int max_iter) {
  const int m = g.m;
  Vec3 p[kMax];
  for (int k = 0; k < m; ++k) p[k] = box.min_image(pos[g.i[k]], pos[g.j[k]]);

  ShakeStats st;
  for (int iter = 0; iter < max_iter; ++iter) {
    double rv[kMax];
    bool ok = true;
    st.max_violation = 0.0;
    for (int k = 0; k < m; ++k) {
      rv[k] = dot(p[k], vel[g.i[k]] - vel[g.j[k]]);
      // Relative measure: bond-length rate over (length/unit time).
      const double viol = std::abs(rv[k]) * g.inv_d2[k];
      ok = ok && viol <= tol;
      st.max_violation = max_nan(st.max_violation, viol);
    }
    st.iterations = iter + 1;
    if (ok) {
      st.converged = true;
      return st;
    }
    double k_mat[kMax][kMax];
    for (int k = 0; k < m; ++k) {
      for (int l = 0; l < m; ++l) {
        k_mat[k][l] = g.c[k][l] * dot(p[k], p[l]);
      }
    }
    if (!solve_dense(m, k_mat, rv)) return st;
    for (int l = 0; l < m; ++l) {
      vel[g.i[l]] -= (rv[l] * g.wi[l]) * p[l];
      vel[g.j[l]] += (rv[l] * g.wj[l]) * p[l];
    }
  }
  return st;
}

// Runs solve(g) over every group: serially when pool is null, otherwise on
// contiguous ranges of groups balanced by constraint count, one per pool
// thread.  Groups share no atom, so the ranges write disjoint atoms.
template <class Solve>
ShakeStats for_each_group(std::span<const int> start, ThreadPool* pool,
                          const Solve& solve) {
  AtomicStats total;
  const auto run_range = [&](int g0, int g1) {
    ShakeStats acc;
    acc.converged = true;
    for (int g = g0; g < g1; ++g) fold(acc, solve(g));
    total.add(acc);
  };
  if (pool == nullptr) {
    run_range(0, static_cast<int>(start.size()) - 1);
    return total.result();
  }
  const int64_t parts = pool->size();
  const int64_t constraints = start.back();
  // The first group starting at or after constraint t·constraints/parts.
  const auto boundary = [&](int64_t t) {
    return static_cast<int>(
        std::lower_bound(start.begin(), start.end(),
                         t * constraints / parts) -
        start.begin());
  };
  pool->for_each_thread(
      [&](unsigned t) { run_range(boundary(t), boundary(t + 1)); });
  return total.result();
}

// A handle that does not own `top`, for a solver that lives only for the
// call borrowing it (shared_ptr's aliasing constructor, empty owner).
std::shared_ptr<const Topology> borrow(const Topology& top) {
  return {std::shared_ptr<const Topology>(), &top};
}

}  // namespace

ConstraintSolver::ConstraintSolver(std::shared_ptr<const Topology> top)
    : top_(std::move(top)) {
  ANTON_CHECK(top_ != nullptr);
  const auto cons = top_->constraints();
  index_.resize(cons.size());
  // Union-find over atoms; a component's root is its lowest atom.
  std::vector<int> parent(static_cast<size_t>(top_->num_atoms()));
  std::iota(parent.begin(), parent.end(), 0);
  const auto find = [&parent](int a) {
    while (parent[static_cast<size_t>(a)] != a) {
      a = parent[static_cast<size_t>(a)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(a)])];
    }
    return a;
  };
  for (const Constraint& c : cons) {
    const int a = find(c.i), b = find(c.j);
    parent[static_cast<size_t>(std::max(a, b))] = std::min(a, b);
  }

  // Number the groups in order of their first constraint; `parent` turns
  // into the map from a root atom to its group.
  std::vector<int> group_of(cons.size());
  for (size_t k = 0; k < cons.size(); ++k) group_of[k] = find(cons[k].i);
  std::fill(parent.begin(), parent.end(), -1);
  int groups = 0;
  for (int& g : group_of) {
    int& label = parent[static_cast<size_t>(g)];
    if (label < 0) label = groups++;
    g = label;
  }

  // Count, then scatter in topology order so that each group lists its
  // constraints in it; the scatter leaves start_[g] at group g's end.
  start_.assign(static_cast<size_t>(groups) + 1, 0);
  for (const int g : group_of) ++start_[static_cast<size_t>(g) + 1];
  std::partial_sum(start_.begin(), start_.end(), start_.begin());
  for (size_t k = 0; k < cons.size(); ++k) {
    index_[static_cast<size_t>(start_[static_cast<size_t>(group_of[k])]++)] =
        static_cast<int>(k);
  }
  std::copy_backward(start_.begin(), start_.end() - 1, start_.end());
  start_[0] = 0;

  for (int g = 0; g < groups; ++g) {
    const auto members = group(g);
    ANTON_CHECK_MSG(static_cast<int>(members.size()) <= kMaxGroupSize,
                    "constraint group of "
                        << members.size() << " constraints at atom "
                        << cons[static_cast<size_t>(members[0])].i
                        << " exceeds the solver's limit of " << kMaxGroupSize);
  }
}

ShakeStats ConstraintSolver::shake(const Box& box, std::span<const Vec3> ref,
                                   std::span<Vec3> pos, std::span<Vec3> vel,
                                   double dt, double tol, int max_iter,
                                   ThreadPool* pool) const {
  ANTON_HOT_NOALLOC();
  const auto cons = top_->constraints();
  const auto mass = top_->masses();
  return for_each_group(start_, pool, [&](int g) {
    return shake_group(Group(group(g), cons, mass), box, ref, pos, vel, dt,
                       tol, max_iter);
  });
}

ShakeStats ConstraintSolver::rattle(const Box& box, std::span<const Vec3> pos,
                                    std::span<Vec3> vel, double tol,
                                    int max_iter, ThreadPool* pool) const {
  ANTON_HOT_NOALLOC();
  const auto cons = top_->constraints();
  const auto mass = top_->masses();
  return for_each_group(start_, pool, [&](int g) {
    return rattle_group(Group(group(g), cons, mass), box, pos, vel, tol,
                        max_iter);
  });
}

ShakeStats shake(const Box& box, const Topology& top,
                 std::span<const Vec3> ref, std::span<Vec3> pos,
                 std::span<Vec3> vel, double dt, double tol, int max_iter) {
  return ConstraintSolver(borrow(top))
      .shake(box, ref, pos, vel, dt, tol, max_iter);
}

ShakeStats rattle(const Box& box, const Topology& top,
                  std::span<const Vec3> pos, std::span<Vec3> vel, double tol,
                  int max_iter) {
  return ConstraintSolver(borrow(top)).rattle(box, pos, vel, tol, max_iter);
}

double max_constraint_violation(const Box& box, const Topology& top,
                                std::span<const Vec3> pos) {
  double max_viol = 0.0;
  for (const auto& c : top.constraints()) {
    const Vec3 p = box.min_image(pos[static_cast<size_t>(c.i)],
                                 pos[static_cast<size_t>(c.j)]);
    const double d2 = c.length * c.length;
    max_viol = max_nan(max_viol, std::abs(norm2(p) - d2) / d2);
  }
  return max_viol;
}

}  // namespace anton::md
