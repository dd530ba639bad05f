#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "geom/box.h"
#include "geom/cells.h"
#include "geom/decomp.h"

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
