#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <vector>

#include "common/config.h"
#include "common/error.h"
#include "common/fixed_point.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/threadpool.h"
#include "common/units.h"
#include "common/vec3.h"

namespace anton {
namespace {

TEST(Vec3, Arithmetic) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, Vec3(5, 7, 9));
  EXPECT_EQ(b - a, Vec3(3, 3, 3));
  EXPECT_EQ(2.0 * a, Vec3(2, 4, 6));
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_EQ(cross(Vec3(1, 0, 0), Vec3(0, 1, 0)), Vec3(0, 0, 1));
  EXPECT_DOUBLE_EQ(norm(Vec3(3, 4, 0)), 5.0);
}

TEST(Vec3, NormalizedHandlesZero) {
  EXPECT_EQ(normalized(Vec3{}), Vec3{});
  const Vec3 v = normalized(Vec3{0, 0, 2});
  EXPECT_DOUBLE_EQ(norm(v), 1.0);
}

TEST(Vec3, Indexing) {
  Vec3 v{7, 8, 9};
  EXPECT_DOUBLE_EQ(v[0], 7);
  EXPECT_DOUBLE_EQ(v[1], 8);
  EXPECT_DOUBLE_EQ(v[2], 9);
  v[1] = 42;
  EXPECT_DOUBLE_EQ(v.y, 42);
}

TEST(FixedPoint, RoundTrip) {
  for (double v : {0.0, 1.0, -1.0, 3.14159, -123.456, 1e-6}) {
    const auto f = Fixed<32>::from_double(v);
    EXPECT_NEAR(f.to_double(), v, Fixed<32>::resolution());
  }
}

TEST(FixedPoint, AssociativeAccumulation) {
  // The whole point: permuting the accumulation order changes nothing.
  Rng rng(7, 0);
  std::vector<Vec3> contributions;
  for (int i = 0; i < 500; ++i) {
    contributions.push_back(100.0 * rng.gaussian_vec3());
  }
  ForceFixed fwd{}, rev{};
  for (const auto& c : contributions) fwd.accumulate(c);
  for (auto it = contributions.rbegin(); it != contributions.rend(); ++it) {
    rev.accumulate(*it);
  }
  EXPECT_EQ(fwd, rev);  // bitwise identical
}

TEST(FixedPoint, DoubleAccumulationIsNotAssociative) {
  // Sanity check that the test above is meaningful: plain doubles do differ.
  Rng rng(7, 0);
  std::vector<double> xs;
  for (int i = 0; i < 2000; ++i) xs.push_back(1e8 * rng.gaussian());
  double fwd = 0, rev = 0;
  for (double x : xs) fwd += x;
  for (auto it = xs.rbegin(); it != xs.rend(); ++it) rev += *it;
  EXPECT_NE(fwd, rev);
}

TEST(FixedPoint, RoundsHalfAwayFromZero) {
  // from_double rounds to nearest with ties away from zero, matching the
  // symmetric rounding of a hardware datapath.
  const double r = Fixed<32>::resolution();
  EXPECT_EQ(Fixed<32>::from_double(0.5 * r).raw(), 1);
  EXPECT_EQ(Fixed<32>::from_double(-0.5 * r).raw(), -1);
  EXPECT_EQ(Fixed<32>::from_double(0.49 * r).raw(), 0);
  EXPECT_EQ(Fixed<32>::from_double(-0.49 * r).raw(), 0);
  EXPECT_EQ(Fixed<32>::from_double(1.5 * r).raw(), 2);
  EXPECT_EQ(Fixed<32>::from_double(-1.5 * r).raw(), -2);
}

TEST(FixedPoint, NegativeValuesRoundTripSymmetrically) {
  for (double v : {1e-7, 0.25, 3.14159, 1234.5678}) {
    const auto pos = Fixed<32>::from_double(v);
    const auto neg = Fixed<32>::from_double(-v);
    EXPECT_EQ(pos.raw(), -neg.raw()) << v;
    EXPECT_NEAR(neg.to_double(), -v, Fixed<32>::resolution()) << v;
  }
}

TEST(FixedPoint, FromDoubleSaturatesAtRails) {
  // Casting an out-of-range double to int64_t is UB; from_double must clamp
  // to the rails instead (like the hardware datapath it models).
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(Fixed<32>::from_double(1e300).raw(), kMax);
  EXPECT_EQ(Fixed<32>::from_double(-1e300).raw(), kMin);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Fixed<32>::from_double(inf).raw(), kMax);
  EXPECT_EQ(Fixed<32>::from_double(-inf).raw(), kMin);
  // Just past max_magnitude saturates; comfortably below it converts.
  EXPECT_EQ(Fixed<32>::from_double(2.0 * Fixed<32>::max_magnitude()).raw(),
            kMax);
  const double safe = 0.5 * Fixed<32>::max_magnitude();
  EXPECT_NEAR(Fixed<32>::from_double(safe).to_double(), safe, 1.0);
}

TEST(FixedPoint, NanMapsToZero) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(Fixed<32>::from_double(nan).raw(), 0);
  EXPECT_EQ(Fixed<32>::from_double(-nan).raw(), 0);
}

TEST(FixedPoint, AdditionWrapsLikeHardware) {
  // Overflow wraps mod 2^64 (defined behaviour, computed in unsigned
  // arithmetic internally) rather than invoking signed-overflow UB.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  auto a = Fixed<32>::from_raw(kMax);
  a += Fixed<32>::from_raw(1);
  EXPECT_EQ(a.raw(), kMin);
  auto b = Fixed<32>::from_raw(kMin);
  b -= Fixed<32>::from_raw(1);
  EXPECT_EQ(b.raw(), kMax);
  // Wrap in one direction is undone by the opposite contribution: the sum of
  // a balanced set is exact even when partial sums overflow.
  auto c = Fixed<32>::from_raw(kMax);
  c += Fixed<32>::from_raw(kMax);
  c -= Fixed<32>::from_raw(kMax);
  EXPECT_EQ(c.raw(), kMax);
}

TEST(FixedPoint, RawRoundTripsThroughConversion) {
  for (int64_t raw : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{1} << 40,
                      -(int64_t{1} << 40)}) {
    const auto f = Fixed<32>::from_raw(raw);
    EXPECT_EQ(Fixed<32>::from_double(f.to_double()).raw(), raw) << raw;
  }
}

TEST(Rng, Deterministic) {
  Rng a(42, 3), b(42, 3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, StreamsDiffer) {
  Rng a(42, 0), b(42, 1), c(43, 0);
  EXPECT_NE(a.next_u64(), b.next_u64());
  Rng a2(42, 0);
  EXPECT_NE(a2.next_u64(), c.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(1, 0);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(2026, 0);
  RunningStat s;
  for (int i = 0; i < 200000; ++i) s.add(rng.gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.01);
  EXPECT_NEAR(s.stddev(), 1.0, 0.01);
}

TEST(Rng, UnitVectorIsUnit) {
  Rng rng(5, 0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NEAR(norm(rng.unit_vector()), 1.0, 1e-12);
  }
}

TEST(Rng, UniformU64Bounds) {
  Rng rng(9, 0);
  std::set<uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.uniform_u64(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit
}

TEST(RunningStat, Basics) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_EQ(s.count(), 8u);
}

TEST(RunningStat, Merge) {
  RunningStat a, b, all;
  Rng rng(11, 0);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.gaussian() * 3 + 1;
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_EQ(a.count(), all.count());
}

TEST(Histogram, BinningAndQuantile) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) h.add(i / 10.0);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_EQ(h.count(0), 10u);
  EXPECT_NEAR(h.quantile(0.5), 5.0, 0.2);
  // Out-of-range clamps.
  h.add(-5);
  h.add(100);
  EXPECT_EQ(h.count(0), 11u);
  EXPECT_EQ(h.count(9), 11u);
}

TEST(Histogram, QuantileExactBinBoundary) {
  // 4 samples in bin 0 and 4 in bin 1: the median target (q*total = 4) is
  // satisfied exactly at the end of bin 0, so the result must be the shared
  // bin edge — computed from bin 0's top, never by sliding into bin 1.
  Histogram h(0.0, 1000.0, 10);
  for (int i = 0; i < 4; ++i) h.add(10.0);
  for (int i = 0; i < 4; ++i) h.add(110.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 200.0);
}

TEST(Histogram, QuantileFinalPopulatedBinNotHi) {
  // Regression: when the last populated bin holds the target mass and the
  // floating-point comparison misses by an ulp, the old implementation fell
  // through and returned hi_ — far beyond any data.  The quantile of a
  // distribution confined to bin 5 of [0, 10) must never exceed that bin's
  // top edge (6.0), for ANY q, including awkward fractions like 1/3 whose
  // product with the count is inexact.
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 7; ++i) h.add(5.5);
  for (double q : {1.0 / 3.0, 0.7, 0.999999999, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, 5.0) << "q=" << q;
    EXPECT_LE(v, 6.0) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 6.0);
}

TEST(Histogram, TailQuantileBoundaryIsExact) {
  // 99 samples in bin 0 and one in the top bin: p99's target mass
  // (0.99 * 100 = 99) is satisfied exactly at the end of bin 0, so p99 must
  // be bin 0's top edge — not slide into the outlier's bin — while any
  // q > 0.99 must land inside the outlier's bin.  This is the service's
  // latency-tail shape: a dense fast mode plus rare slow evaluations.
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 99; ++i) h.add(0.5);
  h.add(99.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 1.0);
  EXPECT_GE(h.quantile(0.995), 99.0);
  EXPECT_LE(h.quantile(0.995), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.5 * 100.0 / 99.0);
}

TEST(Histogram, QuantilesAreMonotoneInQ) {
  Histogram h(0.0, 50.0, 25);
  for (int i = 0; i < 1000; ++i) h.add((i * 7 % 500) / 10.0);
  double prev = h.quantile(0.0);
  for (double q : {0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
}

TEST(Histogram, OutOfRangeAndNonFiniteClamp) {
  Histogram h(0.0, 10.0, 4);
  h.add(-1e308);
  h.add(-std::numeric_limits<double>::infinity());
  h.add(1e308);
  h.add(std::numeric_limits<double>::infinity());
  h.add(std::numeric_limits<double>::quiet_NaN());  // falls into the first bin
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count(0), 3u);
  EXPECT_EQ(h.count(3), 2u);
  for (double q : {0.0, 0.5, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 10.0);
  }
}

TEST(RunningStat, MergeMatchesSinglePassAnySplit) {
  // Property: merging any random partition of a stream must reproduce the
  // single-pass statistics to near machine precision.
  Rng rng(2014, 0);
  for (int trial = 0; trial < 20; ++trial) {
    const int parts = 1 + static_cast<int>(rng.uniform(0.0, 7.0));
    std::vector<RunningStat> split(static_cast<size_t>(parts));
    RunningStat whole;
    for (int i = 0; i < 500; ++i) {
      const double v = rng.gaussian() * 10 + rng.uniform(-3.0, 3.0);
      whole.add(v);
      split[static_cast<size_t>(rng.uniform(0.0, parts)) % split.size()]
          .add(v);
    }
    RunningStat merged;
    for (const auto& s : split) merged.merge(s);
    EXPECT_EQ(merged.count(), whole.count());
    EXPECT_NEAR(merged.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(merged.variance(), whole.variance(), 1e-9 * whole.variance());
    EXPECT_NEAR(merged.sum(), whole.sum(), 1e-9 * std::abs(whole.sum()) + 1e-9);
    EXPECT_DOUBLE_EQ(merged.min(), whole.min());
    EXPECT_DOUBLE_EQ(merged.max(), whole.max());
  }
}

TEST(Config, GnuStyleFlags) {
  // The example binaries accept --key value / --key=value / bare --flag in
  // addition to key=value, so telemetry runs read naturally:
  //   quickstart atoms=4000 --trace out.json --metrics m.json
  const Config c = Config::from_tokens(
      {"--trace", "out.json", "--metrics=m.json", "--verbose", "atoms=5"});
  EXPECT_EQ(c.get_string("trace", ""), "out.json");
  EXPECT_EQ(c.get_string("metrics", ""), "m.json");
  EXPECT_TRUE(c.get_bool("verbose", false));
  EXPECT_EQ(c.get_int("atoms", 0), 5);
}

TEST(Config, ParsesTypedValues) {
  const Config c = Config::from_tokens(
      {"nodes=512", "cutoff=9.5", "event_driven=true", "name=dhfr"});
  EXPECT_EQ(c.get_int("nodes", 0), 512);
  EXPECT_DOUBLE_EQ(c.get_double("cutoff", 0), 9.5);
  EXPECT_TRUE(c.get_bool("event_driven", false));
  EXPECT_EQ(c.get_string("name", ""), "dhfr");
  EXPECT_EQ(c.get_int("missing", 7), 7);
}

TEST(Config, RejectsMalformed) {
  EXPECT_THROW(Config::from_tokens({"oops"}), Error);
  const Config c = Config::from_tokens({"x=notanumber"});
  EXPECT_THROW(c.get_int("x", 0), Error);
  EXPECT_THROW(c.get_bool("x", false), Error);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<int> hits(10000, 0);
  pool.parallel_for(hits.size(), [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) hits[i]++;
  });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ThreadPool, ForEachThreadRunsOncePerThread) {
  ThreadPool pool(3);
  std::vector<int> marks(pool.size(), 0);
  pool.for_each_thread([&](unsigned t) { marks[t]++; });
  for (int m : marks) EXPECT_EQ(m, 1);
}

TEST(ThreadPool, EmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Units, TimeConversionRoundTrip) {
  EXPECT_NEAR(units::internal_to_fs(units::fs_to_internal(2.5)), 2.5, 1e-12);
}

TEST(Units, UsPerDay) {
  // One 2.5 fs step every 2.5 μs of wall time = 86.4 μs/day... check:
  // steps/day = 86400/2.5e-6 = 3.456e10; fs/day = 8.64e10 fs = 86.4 μs.
  EXPECT_NEAR(units::us_per_day(2.5, 2.5e-6), 86.4, 1e-9);
}

TEST(Error, CheckMacros) {
  EXPECT_NO_THROW(ANTON_CHECK(1 + 1 == 2));
  EXPECT_THROW(ANTON_CHECK(false), Error);
  try {
    ANTON_CHECK_MSG(false, "ctx " << 42);
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("ctx 42"), std::string::npos);
  }
}

TEST(TextTable, FormatsAligned) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", TextTable::fmt(1.5)});
  t.add_row({"beta", TextTable::fmt_int(42)});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.50"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
}

}  // namespace
}  // namespace anton
