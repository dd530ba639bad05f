#include "core/decomposition_study.h"

#include <unordered_set>

#include "common/error.h"
#include "geom/decomp.h"
#include "geom/pair_pass.h"

namespace anton::core {

namespace {

// Pair-ownership rules.
int half_shell_owner(int node_i, int node_j) {
  // Deterministic representative: lower of the pair after periodic
  // canonicalisation; the workload mapper's positive-half rule is
  // equivalent for counting purposes.
  return std::min(node_i, node_j);
}

int nt_owner(const DomainDecomp& dd, int node_i, int node_j) {
  // Node owning (x_i, y_i, z_j): the i-atom's column meets the j-atom's
  // slab.
  int xi, yi, zi, xj, yj, zj;
  dd.coords(node_i, &xi, &yi, &zi);
  dd.coords(node_j, &xj, &yj, &zj);
  return dd.rank(xi, yi, zj);
}

}  // namespace

ImportStats analyze_decomposition(const System& system,
                                  const arch::MachineConfig& config,
                                  DecompositionScheme scheme) {
  const Box& box = system.box();
  const auto& nc = config.noc;
  DomainDecomp dd(box, nc.nx, nc.ny, nc.nz);
  const int P = dd.num_nodes();
  const double rc = config.machine_cutoff;

  const auto pos = system.positions();
  // Rejects an empty system and non-finite positions before anything bins.
  const PairPass pass(box, pos, rc);
  std::vector<int> owner(pos.size());
  for (size_t i = 0; i < pos.size(); ++i) owner[i] = dd.node_of(pos[i]);

  // imports[v] = distinct remote atoms whose positions node v needs.
  std::vector<std::unordered_set<int>> imports(static_cast<size_t>(P));
  int64_t total_pairs = 0;

  pass.for_each([&](int s, int t) {
    const int i = pass.atom(s);
    const int j = pass.atom(t);
    ++total_pairs;
    const int a = owner[static_cast<size_t>(i)];
    const int b = owner[static_cast<size_t>(j)];
    const int o = scheme == DecompositionScheme::kHalfShell
                      ? half_shell_owner(a, b)
                      : nt_owner(dd, a, b);
    if (o != a) imports[static_cast<size_t>(o)].insert(i);
    if (o != b) imports[static_cast<size_t>(o)].insert(j);
  });

  ImportStats stats;
  stats.scheme = scheme;
  stats.nodes = P;
  stats.total_pairs = total_pairs;
  // Export copies: how many (atom, destination) sends occur — the transpose
  // of the import sets.
  std::vector<int64_t> exports(static_cast<size_t>(P), 0);
  for (int v = 0; v < P; ++v) {
    stats.imported_atoms.add(
        static_cast<double>(imports[static_cast<size_t>(v)].size()));
    // Iteration order is irrelevant here: integer increments commute
    // exactly, so the unordered walk cannot perturb the result.
    // anton-lint: allow(unordered-iter)
    for (int atom : imports[static_cast<size_t>(v)]) {
      exports[static_cast<size_t>(owner[static_cast<size_t>(atom)])]++;
    }
    stats.total_import_bytes +=
        static_cast<double>(imports[static_cast<size_t>(v)].size()) *
        config.bytes_per_position;
  }
  for (int v = 0; v < P; ++v) {
    stats.exported_copies.add(static_cast<double>(exports[static_cast<size_t>(v)]));
  }
  return stats;
}

}  // namespace anton::core
