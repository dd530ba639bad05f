#include "chem/topology.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace anton {

int Topology::add_atom(int type, double charge) {
  ANTON_CHECK_MSG(!finalized_, "cannot add atoms after finalize()");
  ANTON_CHECK(type >= 0 && type < ff_.num_types());
  type_.push_back(type);
  charge_.push_back(charge);
  mass_.push_back(ff_.type(type).mass);
  return num_atoms() - 1;
}

namespace {
void check_index(int i, int n) {
  ANTON_CHECK_MSG(i >= 0 && i < n, "atom index " << i << " out of range [0,"
                                                 << n << ")");
}
}  // namespace

void Topology::add_bond(const BondTerm& b) {
  ANTON_CHECK(!finalized_);
  check_index(b.i, num_atoms());
  check_index(b.j, num_atoms());
  ANTON_CHECK_MSG(b.i != b.j, "self bond");
  bonds_.push_back(b);
}

void Topology::add_angle(const AngleTerm& a) {
  ANTON_CHECK(!finalized_);
  check_index(a.i, num_atoms());
  check_index(a.j, num_atoms());
  check_index(a.k, num_atoms());
  angles_.push_back(a);
}

void Topology::add_dihedral(const DihedralTerm& d) {
  ANTON_CHECK(!finalized_);
  check_index(d.i, num_atoms());
  check_index(d.j, num_atoms());
  check_index(d.k, num_atoms());
  check_index(d.l, num_atoms());
  dihedrals_.push_back(d);
}

void Topology::add_constraint(const Constraint& c) {
  ANTON_CHECK(!finalized_);
  check_index(c.i, num_atoms());
  check_index(c.j, num_atoms());
  ANTON_CHECK_MSG(c.i != c.j && std::isfinite(c.length) && c.length > 0,
                  "bad constraint {" << c.i << ", " << c.j << ", " << c.length
                                     << "}: needs two atoms and a finite "
                                        "positive length");
  constraints_.push_back(c);
}

void Topology::add_water(const WaterGroup& w) {
  ANTON_CHECK(!finalized_);
  check_index(w.o, num_atoms());
  check_index(w.h1, num_atoms());
  check_index(w.h2, num_atoms());
  waters_.push_back(w);
}

void Topology::add_position_restraint(const PositionRestraint& r) {
  check_index(r.atom, num_atoms());
  ANTON_CHECK(r.k >= 0);
  pos_restraints_.push_back(r);
}

void Topology::add_distance_restraint(const DistanceRestraint& r) {
  check_index(r.i, num_atoms());
  check_index(r.j, num_atoms());
  ANTON_CHECK(r.i != r.j && r.k >= 0 && r.r0 >= 0);
  dist_restraints_.push_back(r);
}

void Topology::end_molecule() {
  ANTON_CHECK(!finalized_);
  ANTON_CHECK_MSG(num_atoms() > molecule_starts_.back(),
                  "empty molecule");
  molecule_starts_.push_back(num_atoms());
}

void Topology::finalize() {
  ANTON_CHECK_MSG(!finalized_, "finalize() called twice");
  if (molecule_starts_.back() != num_atoms()) end_molecule();

  const int n = num_atoms();
  // Adjacency from bonds and constraints (constrained pairs behave like
  // bonds for exclusion purposes; water H-H constraints connect the pair).
  std::vector<std::vector<int>> adj(static_cast<size_t>(n));
  auto link = [&](int i, int j) {
    adj[static_cast<size_t>(i)].push_back(j);
    adj[static_cast<size_t>(j)].push_back(i);
  };
  for (const auto& b : bonds_) link(b.i, b.j);
  for (const auto& c : constraints_) link(c.i, c.j);
  for (auto& a : adj) {
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
  }

  // Breadth-first to graph distance 3 from each atom.  Distance 1-2 ->
  // excluded; distance 3 -> excluded from the plain loop but added to the
  // scaled 1-4 list.  Flat vectors + one sort per atom: multi-million-atom
  // systems finalise in seconds.
  std::vector<std::vector<int>> excl(static_cast<size_t>(n));
  std::vector<std::pair<int, int>> p14;
  std::vector<int> dist(static_cast<size_t>(n), -1);
  std::vector<int> touched;
  for (int s = 0; s < n; ++s) {
    touched.clear();
    dist[static_cast<size_t>(s)] = 0;
    touched.push_back(s);
    std::vector<int> frontier{s};
    for (int d = 1; d <= 3; ++d) {
      std::vector<int> next;
      for (int u : frontier) {
        for (int v : adj[static_cast<size_t>(u)]) {
          if (dist[static_cast<size_t>(v)] != -1) continue;
          dist[static_cast<size_t>(v)] = d;
          touched.push_back(v);
          next.push_back(v);
          if (v > s) {
            excl[static_cast<size_t>(s)].push_back(v);
            if (d == 3) p14.push_back({s, v});
          }
        }
      }
      frontier = std::move(next);
    }
    for (int t : touched) dist[static_cast<size_t>(t)] = -1;
    std::sort(excl[static_cast<size_t>(s)].begin(),
              excl[static_cast<size_t>(s)].end());
  }

  // BFS visits each (s, v) at most once per source, so lists are already
  // duplicate-free; p14 inherits the (sorted-by-s) order.
  pairs14_.clear();
  pairs14_.reserve(p14.size());
  for (const auto& [i, j] : p14) pairs14_.push_back({i, j});

  // CSR-ify.
  excl_starts_.assign(static_cast<size_t>(n) + 1, 0);
  size_t total = 0;
  for (int i = 0; i < n; ++i) {
    total += excl[static_cast<size_t>(i)].size();
    excl_starts_[static_cast<size_t>(i) + 1] = static_cast<int>(total);
  }
  excl_.clear();
  excl_.reserve(total);
  for (int i = 0; i < n; ++i) {
    for (int j : excl[static_cast<size_t>(i)]) excl_.push_back(j);
  }

  finalized_ = true;
  validate();
}

bool Topology::excluded(int i, int j) const {
  if (i == j) return true;
  if (i > j) std::swap(i, j);
  const auto ex = exclusions_of(i);
  return std::binary_search(ex.begin(), ex.end(), j);
}

double Topology::total_charge() const {
  double q = 0;
  for (double c : charge_) q += c;
  return q;
}

double Topology::total_mass() const {
  double m = 0;
  for (double x : mass_) m += x;
  return m;
}

int Topology::degrees_of_freedom() const {
  return 3 * num_atoms() - static_cast<int>(constraints_.size());
}

void Topology::validate() const {
  ANTON_CHECK(finalized_);
  const int n = num_atoms();
  for (const auto& b : bonds_) {
    check_index(b.i, n);
    check_index(b.j, n);
    ANTON_CHECK(std::isfinite(b.k) && std::isfinite(b.r0) && b.r0 > 0);
  }
  for (const auto& a : angles_) {
    ANTON_CHECK(std::isfinite(a.k_theta) && a.theta0 > 0 && a.theta0 <= M_PI);
  }
  for (const auto& d : dihedrals_) {
    ANTON_CHECK(std::isfinite(d.k_phi) && d.n >= 1 && d.n <= 6);
  }
  for (int i = 0; i < n; ++i) {
    const auto ex = exclusions_of(i);
    ANTON_CHECK(std::is_sorted(ex.begin(), ex.end()));
    for (int j : ex) ANTON_CHECK(j > i && j < n);
  }
  ANTON_CHECK(molecule_starts_.front() == 0 &&
              molecule_starts_.back() == n);
  ANTON_CHECK(std::is_sorted(molecule_starts_.begin(), molecule_starts_.end()));
}

}  // namespace anton
