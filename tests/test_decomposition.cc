#include <gtest/gtest.h>

#include <cstdint>

#include "chem/builder.h"
#include "core/decomposition_study.h"
#include "test_support.h"

namespace anton::core {
namespace {

using test_support::Digest;

arch::MachineConfig machine(int n, double cutoff) {
  auto cfg = arch::MachineConfig::anton2(n, n, n);
  cfg.machine_cutoff = cutoff;
  return cfg;
}

TEST(DecompositionStudy, SchemesCoverIdenticalPairSets) {
  const System sys = build_water_box(729, 401, -1);
  const auto cfg = machine(3, 6.0);
  const auto hs =
      analyze_decomposition(sys, cfg, DecompositionScheme::kHalfShell);
  const auto nt =
      analyze_decomposition(sys, cfg, DecompositionScheme::kNeutralTerritory);
  EXPECT_EQ(hs.total_pairs, nt.total_pairs);
  EXPECT_GT(hs.total_pairs, 0);
}

TEST(DecompositionStudy, SingleNodeNeedsNoImports) {
  const System sys = build_water_box(216, 402, -1);
  const auto cfg = machine(1, 6.0);
  const auto hs =
      analyze_decomposition(sys, cfg, DecompositionScheme::kHalfShell);
  EXPECT_DOUBLE_EQ(hs.mean_import_per_node(), 0.0);
  EXPECT_DOUBLE_EQ(hs.total_import_bytes, 0.0);
}

TEST(DecompositionStudy, ImportExportBalance) {
  // Total copies exported must equal total copies imported.
  const System sys = build_water_box(729, 403, -1);
  const auto cfg = machine(3, 6.0);
  for (auto scheme : {DecompositionScheme::kHalfShell,
                      DecompositionScheme::kNeutralTerritory}) {
    const auto s = analyze_decomposition(sys, cfg, scheme);
    EXPECT_NEAR(s.imported_atoms.sum(), s.exported_copies.sum(), 1e-9);
  }
}

TEST(DecompositionStudy, NtWinsAtFineDecomposition) {
  // Home boxes much smaller than the cutoff: the NT tower+plate import
  // volume beats the half-shell import.
  BuilderOptions o;
  o.total_atoms = 12000;
  o.solute_fraction = 0;
  o.temperature_k = -1;
  o.seed = 404;
  const System sys = build_solvated_system(o);  // box ~49 Å
  const auto cfg = machine(6, 9.0);             // home boxes ~8.2 Å < cutoff
  const auto hs =
      analyze_decomposition(sys, cfg, DecompositionScheme::kHalfShell);
  const auto nt =
      analyze_decomposition(sys, cfg, DecompositionScheme::kNeutralTerritory);
  EXPECT_LT(nt.mean_import_per_node(), hs.mean_import_per_node());
}

TEST(DecompositionStudy, HalfShellWinsAtCoarseDecomposition) {
  const System sys = build_water_box(1000, 405, -1);  // box ~31 Å
  const auto cfg = machine(2, 6.0);  // home boxes 15.5 Å >> cutoff
  const auto hs =
      analyze_decomposition(sys, cfg, DecompositionScheme::kHalfShell);
  const auto nt =
      analyze_decomposition(sys, cfg, DecompositionScheme::kNeutralTerritory);
  EXPECT_LE(hs.mean_import_per_node(), nt.mean_import_per_node());
}

TEST(DecompositionStudy, ImportBytesScaleWithPositionSize) {
  const System sys = build_water_box(729, 406, -1);
  auto cfg = machine(3, 6.0);
  cfg.bytes_per_position = 8.0;
  const auto a =
      analyze_decomposition(sys, cfg, DecompositionScheme::kHalfShell);
  cfg.bytes_per_position = 16.0;
  const auto b =
      analyze_decomposition(sys, cfg, DecompositionScheme::kHalfShell);
  EXPECT_NEAR(b.total_import_bytes, 2.0 * a.total_import_bytes, 1e-6);
}

void add(Digest& d, const RunningStat& s) {
  d.add(s.count());
  d.add_bits(s.mean());
  d.add_bits(s.variance());
  d.add_bits(s.sum());
  d.add_bits(s.min());
  d.add_bits(s.max());
}

uint64_t stats_digest(const ImportStats& s) {
  Digest d;
  d.add(static_cast<uint64_t>(s.scheme));
  d.add(static_cast<uint64_t>(s.nodes));
  d.add(static_cast<uint64_t>(s.total_pairs));
  add(d, s.imported_atoms);
  add(d, s.exported_copies);
  d.add_bits(s.total_import_bytes);
  return d.value();
}

TEST(DecompositionStudy, GoldenDigest) {
  // Pins both schemes' statistics bit for bit on the cell walk and on the
  // all-pairs fallback (the last case: under 3 cells per axis).
  BuilderOptions o;
  o.total_atoms = 3000;
  o.seed = 47;
  o.temperature_k = -1;
  const System solvated = build_solvated_system(o);
  const System dhfr = build_benchmark_system(dhfr_spec(), 2014);
  struct Case {
    const System* sys;
    int n;
    double rc;
    uint64_t half_shell, neutral_territory;
  };
  const Case cases[] = {
      {&solvated, 2, 9.0, 0x624DA27574C1988FULL, 0x5FDEA774AB87732AULL},
      {&solvated, 3, 9.0, 0x40921C891FBC60AEULL, 0x1B406DC8DC4781FAULL},
      {&dhfr, 4, 9.0, 0x8CE1E8F60AF53C08ULL, 0x47472B9E3E136D3CULL},
      {&dhfr, 8, 9.0, 0x332C274EFF47B079ULL, 0x655FCE09E7379E61ULL},
      {&solvated, 3, 12.0, 0x26941F625E2CC4F0ULL, 0xB077B79DF891A367ULL},
  };
  for (const Case& c : cases) {
    const auto cfg = machine(c.n, c.rc);
    EXPECT_EQ(stats_digest(analyze_decomposition(
                  *c.sys, cfg, DecompositionScheme::kHalfShell)),
              c.half_shell)
        << c.sys->num_atoms() << " atoms on " << c.n << "^3, rc " << c.rc;
    EXPECT_EQ(stats_digest(analyze_decomposition(
                  *c.sys, cfg, DecompositionScheme::kNeutralTerritory)),
              c.neutral_territory)
        << c.sys->num_atoms() << " atoms on " << c.n << "^3, rc " << c.rc;
  }
}

}  // namespace
}  // namespace anton::core
