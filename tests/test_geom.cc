#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "geom/box.h"
#include "geom/cells.h"
#include "geom/decomp.h"
#include "geom/pair_pass.h"

namespace anton {
namespace {

TEST(Box, WrapIntoPrimaryCell) {
  const Box box({10, 20, 30});
  const Vec3 w = box.wrap({-1, 25, 61});
  EXPECT_NEAR(w.x, 9, 1e-12);
  EXPECT_NEAR(w.y, 5, 1e-12);
  EXPECT_NEAR(w.z, 1, 1e-12);
}

TEST(Box, WrapIsIdempotent) {
  const Box box({7.5, 7.5, 7.5});
  Rng rng(1, 0);
  for (int i = 0; i < 1000; ++i) {
    const Vec3 p{rng.uniform(-100, 100), rng.uniform(-100, 100),
                 rng.uniform(-100, 100)};
    const Vec3 w = box.wrap(p);
    EXPECT_GE(w.x, 0);
    EXPECT_LT(w.x, 7.5);
    const Vec3 w2 = box.wrap(w);
    EXPECT_NEAR(w.x, w2.x, 1e-12);
    EXPECT_NEAR(w.y, w2.y, 1e-12);
    EXPECT_NEAR(w.z, w2.z, 1e-12);
  }
}

TEST(Box, MinImageShorterThanHalfBox) {
  const Box box({10, 10, 10});
  Rng rng(2, 0);
  for (int i = 0; i < 2000; ++i) {
    const Vec3 a = rng.uniform_in_box(box.lengths());
    const Vec3 b = rng.uniform_in_box(box.lengths());
    const Vec3 d = box.min_image(a, b);
    EXPECT_LE(std::abs(d.x), 5.0 + 1e-12);
    EXPECT_LE(std::abs(d.y), 5.0 + 1e-12);
    EXPECT_LE(std::abs(d.z), 5.0 + 1e-12);
  }
}

TEST(Box, MinImageCrossesBoundary) {
  const Box box({10, 10, 10});
  const Vec3 d = box.min_image({9.5, 0, 0}, {0.5, 0, 0});
  EXPECT_NEAR(d.x, -1.0, 1e-12);  // through the boundary, not across the box
  EXPECT_NEAR(box.distance({9.5, 0, 0}, {0.5, 0, 0}), 1.0, 1e-12);
}

TEST(Box, MinImageInvariantUnderWrapping) {
  const Box box({13, 17, 19});
  Rng rng(3, 0);
  for (int i = 0; i < 500; ++i) {
    const Vec3 a{rng.uniform(-50, 50), rng.uniform(-50, 50),
                 rng.uniform(-50, 50)};
    const Vec3 b{rng.uniform(-50, 50), rng.uniform(-50, 50),
                 rng.uniform(-50, 50)};
    EXPECT_NEAR(box.distance(a, b), box.distance(box.wrap(a), box.wrap(b)),
                1e-9);
  }
}

TEST(Box, MaxCutoff) {
  EXPECT_DOUBLE_EQ(Box({10, 20, 30}).max_cutoff(), 5.0);
}

TEST(Box, RejectsNonPositive) {
  EXPECT_THROW(Box({0, 1, 1}), Error);
  EXPECT_THROW(Box({1, -2, 1}), Error);
}

TEST(CellGrid, DimsRespectMinCell) {
  const Box box({30, 30, 30});
  CellGrid grid(box, 4.5);
  EXPECT_EQ(grid.nx(), 6);  // 30/4.5 = 6.67 -> 6 cells of 5.0
  EXPECT_GE(grid.cell_lengths().x, 4.5);
}

TEST(CellGrid, BinningIsComplete) {
  const Box box({20, 20, 20});
  CellGrid grid(box, 5.0);
  Rng rng(4, 0);
  std::vector<Vec3> pos;
  for (int i = 0; i < 500; ++i) pos.push_back(rng.uniform_in_box(box.lengths()));
  grid.bin(pos);
  std::set<int> seen;
  for (int c = 0; c < grid.num_cells(); ++c) {
    for (int a : grid.cell_atoms(c)) {
      EXPECT_TRUE(seen.insert(a).second) << "atom binned twice";
      EXPECT_EQ(grid.cell_of(pos[static_cast<size_t>(a)]), c);
    }
  }
  EXPECT_EQ(seen.size(), pos.size());
}

TEST(CellGrid, StencilUnique) {
  const Box box({40, 40, 40});
  CellGrid grid(box, 5.0);  // 8x8x8 cells
  const auto s = grid.stencil(grid.index(3, 3, 3));
  EXPECT_EQ(s.size(), 27u);
  int cells[14];
  Vec3 shifts[14];
  EXPECT_EQ(grid.half_stencil_shifts(grid.index(3, 3, 3), cells, shifts), 14);
}

TEST(CellGrid, HalfStencilCoversAllPairsOnce) {
  // Every unordered pair of nearby cells must appear exactly once across all
  // half-stencils.
  const Box box({20, 20, 20});
  CellGrid grid(box, 5.0);  // 4x4x4
  std::multiset<std::pair<int, int>> covered;
  int cells[14];
  Vec3 shifts[14];
  for (int c = 0; c < grid.num_cells(); ++c) {
    const int k = grid.half_stencil_shifts(c, cells, shifts);
    for (int e = 0; e < k; ++e) {
      covered.insert({std::min(c, cells[e]), std::max(c, cells[e])});
    }
  }
  // Each adjacent distinct cell pair appears exactly once.
  for (const auto& p : covered) {
    if (p.first != p.second) {
      EXPECT_EQ(covered.count(p), 1u) << p.first << "," << p.second;
    }
  }
}

// Every pair i < j with Box::distance2 < rc^2.
std::set<std::pair<int, int>> brute_force_pairs(const Box& box,
                                                const std::vector<Vec3>& pos,
                                                double rc) {
  std::set<std::pair<int, int>> out;
  for (size_t i = 0; i < pos.size(); ++i) {
    for (size_t j = i + 1; j < pos.size(); ++j) {
      if (box.distance2(pos[i], pos[j]) < rc * rc) {
        out.emplace(static_cast<int>(i), static_cast<int>(j));
      }
    }
  }
  return out;
}

// The pass's pairs equal the brute-force ones, each emitted once with the
// lower atom first, and for_each is the bit-by-bit expansion of
// for_each_word in walk order.
void expect_brute_force_pairs(const Box& box, const std::vector<Vec3>& pos,
                              double rc, const std::string& what) {
  const PairPass pass(box, pos, rc);
  std::vector<std::pair<int, int>> pairs;
  pass.for_each([&](int s, int t) {
    pairs.emplace_back(pass.atom(s), pass.atom(t));
  });
  std::vector<std::pair<int, int>> from_words;
  pass.for_each_word(0, pass.num_layers(), [&](int s, int t0, uint64_t word) {
    EXPECT_NE(word, 0u) << what;
    for (; word != 0; word &= word - 1) {
      const int t = t0 + std::countr_zero(word);
      ASSERT_LT(t, pass.num_atoms()) << what;
      const int i = pass.atom(s), j = pass.atom(t);
      from_words.emplace_back(std::min(i, j), std::max(i, j));
    }
  });
  EXPECT_EQ(pairs, from_words) << what;
  for (const auto& [i, j] : pairs) EXPECT_LT(i, j) << what;
  const std::set<std::pair<int, int>> unique(pairs.begin(), pairs.end());
  EXPECT_EQ(unique.size(), pairs.size()) << what << ": a pair emitted twice";
  EXPECT_EQ(unique, brute_force_pairs(box, pos, rc)) << what;
}

TEST(PairPass, BoundaryPairsMatchBruteForce) {
  // rc 3 in a 12 Å box: 4 cells of 3 Å per axis.  Each pair is a, b with
  // b - a = (1, 2, 2), exactly rc, crossing a cell face, an edge, a corner
  // or the periodic boundary; then b moves along x by +-1 and +-4 units of
  // 2^-48, one ulp below 32.  The unwrapped copies shift a and b by
  // opposite box lengths, which keeps every coordinate and difference below
  // 32 in magnitude, so both frames compute each difference exactly, and
  // the float filter's band hands each pair to the exact test.
  const double rc = 3.0;
  const Box box({12, 12, 12});
  struct Geometry {
    const char* name;
    Vec3 a;
  };
  const Geometry geometries[] = {
      {"face", {2.5, 0.5, 0.5}},
      {"edge", {2.5, 2.5, 0.5}},
      {"corner", {2.5, 2.5, 2.5}},
      {"periodic image", {11.5, 0.5, 0.5}},
  };
  for (const Geometry& g : geometries) {
    for (int k : {0, -1, 1, -4, 4}) {
      Vec3 b = box.wrap(g.a + Vec3{1, 2, 2});
      b.x += k * 0x1p-48;
      const std::string what =
          std::string(g.name) + ", " + std::to_string(k) + " ulp";
      expect_brute_force_pairs(box, {g.a, b}, rc, what + ", wrapped");
      expect_brute_force_pairs(
          box, {g.a + Vec3{-12, 12, -12}, b + Vec3{12, -12, 12}}, rc,
          what + ", unwrapped");
    }
  }
  // The nudges decide: 1 unit inside rc is a pair, 1 outside is not.
  const Vec3 a{2.5, 2.5, 2.5};
  const Vec3 inside{3.5 - 0x1p-48, 4.5, 4.5};
  const Vec3 outside{3.5 + 0x1p-48, 4.5, 4.5};
  EXPECT_EQ(brute_force_pairs(box, {a, inside}, rc).size(), 1u);
  EXPECT_EQ(brute_force_pairs(box, {a, outside}, rc).size(), 0u);
}

TEST(PairPass, CullIsExactAtTheBand) {
  // Atom 0 in cell (0, 0, 0); the face neighbour (1, 0, 0) holds atom 1 at
  // a squared distance just beyond or just inside the band's upper edge
  // rc^2 (1 + kBand), and a farther atom 2.  Beyond, the segment is
  // culled; inside, it is filtered (and the exact test rejects the pair).
  const double rc = 3.0;
  const Box box({12, 12, 12});
  const CellGrid grid(box, rc);
  for (const double rel : {0x1p-16, -0x1p-16}) {
    const double r = rc * std::sqrt((1 + PairPass::kBand) * (1 + rel));
    const std::vector<Vec3> pos = {
        {1.5, 1.5, 1.5}, {1.5 + r, 1.5, 1.5}, {5.5, 2.5, 2.5}};
    const PairPass pass(box, pos, rc);
    int slot = 0;
    while (pass.atom(slot) != 0) ++slot;
    EXPECT_EQ(pass.culls(slot, grid.cell_of(pos[1])), rel > 0)
        << "relative offset " << rel;
    expect_brute_force_pairs(box, pos, rc, "cull test");
  }
}

TEST(PairPass, DenseCloudMatchesBruteForce) {
  // About 78 atoms per cell, so a segment spans two hit words; the same
  // cloud with atoms shifted by -2 to 2 box lengths; and a 2-cell box that
  // takes the all-pairs fallback.
  const double rc = 3.0;
  Rng rng(6, 0);
  const Box box({12, 12, 12});
  std::vector<Vec3> pos, unwrapped;
  for (int i = 0; i < 5000; ++i) {
    const Vec3 p = rng.uniform_in_box(box.lengths());
    pos.push_back(p);
    unwrapped.push_back(p + box.lengths() * static_cast<double>(i % 5 - 2));
  }
  expect_brute_force_pairs(box, pos, rc, "dense, wrapped");
  expect_brute_force_pairs(box, unwrapped, rc, "dense, unwrapped");
  const Box small({8, 8, 8});
  std::vector<Vec3> few;
  for (int i = 0; i < 300; ++i) {
    few.push_back(rng.uniform_in_box(small.lengths()));
  }
  expect_brute_force_pairs(small, few, rc, "all-pairs fallback");
}

TEST(DomainDecomp, RanksAndCoordsRoundTrip) {
  const Box box({80, 80, 80});
  DomainDecomp dd(box, 4, 2, 8);
  EXPECT_EQ(dd.num_nodes(), 64);
  for (int r = 0; r < dd.num_nodes(); ++r) {
    int x, y, z;
    dd.coords(r, &x, &y, &z);
    EXPECT_EQ(dd.rank(x, y, z), r);
  }
}

TEST(DomainDecomp, NodeAssignmentsPartition) {
  const Box box({64, 64, 64});
  DomainDecomp dd(box, 4, 4, 4);
  Rng rng(5, 0);
  std::vector<Vec3> pos;
  for (int i = 0; i < 4000; ++i) pos.push_back(rng.uniform_in_box(box.lengths()));
  const auto counts = dd.counts(pos);
  int total = 0;
  for (int c : counts) total += c;
  EXPECT_EQ(total, 4000);
  // Uniform positions: every node gets something close to the mean.
  for (int c : counts) {
    EXPECT_GT(c, 20);
    EXPECT_LT(c, 120);
  }
}

TEST(DomainDecomp, ImportOffsetsFaceOnly) {
  // Home box 16 Å, cutoff 10 Å < 16: only the 26 surrounding boxes.
  const Box box({128, 128, 128});
  DomainDecomp dd(box, 8, 8, 8);
  const auto full = dd.import_offsets(10.0, ImportShell::kFull);
  EXPECT_EQ(full.size(), 26u);
  const auto half = dd.import_offsets(10.0, ImportShell::kHalf);
  EXPECT_EQ(half.size(), 13u);
}

TEST(DomainDecomp, ImportOffsetsGrowWithCutoff) {
  const Box box({128, 128, 128});
  DomainDecomp dd(box, 8, 8, 8);  // 16 Å home boxes
  const auto near = dd.import_offsets(10.0, ImportShell::kFull);
  const auto far = dd.import_offsets(20.0, ImportShell::kFull);
  EXPECT_GT(far.size(), near.size());
  // 20 Å reaches boxes two away along an axis (gap = 16 < 20) but not the
  // far corners (gap = sqrt(3)*16 = 27.7 > 20).
  const auto has = [&](int x, int y, int z) {
    return std::find(far.begin(), far.end(), NodeOffset{x, y, z}) != far.end();
  };
  EXPECT_TRUE(has(2, 0, 0));
  EXPECT_FALSE(has(2, 2, 2));
}

TEST(DomainDecomp, HalfShellIsExactComplement) {
  const Box box({96, 96, 96});
  DomainDecomp dd(box, 6, 6, 6);
  const auto full = dd.import_offsets(12.0, ImportShell::kFull);
  const auto half = dd.import_offsets(12.0, ImportShell::kHalf);
  EXPECT_EQ(full.size(), 2 * half.size());
  for (const auto& off : half) {
    const NodeOffset neg{-off.dx, -off.dy, -off.dz};
    EXPECT_NE(std::find(full.begin(), full.end(), neg), full.end());
    EXPECT_EQ(std::count(half.begin(), half.end(), neg), 0);
  }
}

TEST(DomainDecomp, NeighborRankWraps) {
  const Box box({40, 40, 40});
  DomainDecomp dd(box, 4, 4, 4);
  const int r = dd.rank(3, 0, 0);
  EXPECT_EQ(dd.neighbor_rank(r, {1, 0, 0}), dd.rank(0, 0, 0));
  EXPECT_EQ(dd.neighbor_rank(r, {0, -1, 0}), dd.rank(3, 3, 0));
}

}  // namespace
}  // namespace anton
