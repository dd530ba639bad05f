// Unit tests for the portable SIMD wrapper (src/common/simd.h).
//
// Every operation is checked lane-by-lane against a plain scalar reference
// that encodes the documented per-lane semantics (Intel min/max, half-even
// rounding, correctly-rounded fma, ordered compares).  On an AVX2 build this
// certifies the intrinsics match the scalar model; on a scalar build it
// pins the fallback to the same contract.  Inputs include randomized lanes,
// NaN/infinity/denormal specials, unaligned loads and ragged-tail masks.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "common/simd.h"

namespace anton::simd {
namespace {

constexpr int W = kLanesD;

uint64_t bits_of(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// Bitwise equality, except any-NaN matches any-NaN (payloads may differ
// between a hardware op and libm).
void expect_lane(double got, double want, const char* what, int lane) {
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got)) << what << " lane " << lane;
  } else {
    EXPECT_EQ(bits_of(got), bits_of(want))
        << what << " lane " << lane << ": got " << got << " want " << want;
  }
}

VecD make(const double* p) { return VecD::loadu(p); }

void check_all_lanes(VecD got, const double* want, const char* what) {
  double g[W];
  got.storeu(g);
  for (int l = 0; l < W; ++l) expect_lane(g[l], want[l], what, l);
}

// A pool of interesting doubles: specials, denormals, exact halves (rounding
// ties), large/small magnitudes and a few ordinary values.
std::vector<double> special_doubles() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return {0.0,
          -0.0,
          1.0,
          -1.0,
          0.5,
          -0.5,
          1.5,
          2.5,
          -2.5,
          1.0 / 3.0,
          -7.25,
          1e308,
          -1e308,
          1e-308,
          std::numeric_limits<double>::denorm_min(),
          -std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::min(),
          std::numeric_limits<double>::epsilon(),
          inf,
          -inf,
          nan};
}

// Random finite doubles over a wide exponent range.
std::vector<double> random_doubles(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> mant(-1.0, 1.0);
  std::uniform_int_distribution<int> expo(-60, 60);
  std::vector<double> out(n);
  for (double& v : out) v = std::ldexp(mant(rng), expo(rng));
  return out;
}

// All pairwise (a, b) lane combinations from a value pool, packed W at a
// time, exercising fn(vec_a, vec_b) against ref(lane_a, lane_b).
template <class VecFn, class RefFn>
void check_binary(const std::vector<double>& pool, VecFn&& fn, RefFn&& ref,
                  const char* what) {
  std::vector<double> as, bs;
  for (double a : pool) {
    for (double b : pool) {
      as.push_back(a);
      bs.push_back(b);
    }
  }
  while (as.size() % W != 0) {
    as.push_back(0.0);
    bs.push_back(0.0);
  }
  for (size_t i = 0; i < as.size(); i += W) {
    const VecD va = make(&as[i]);
    const VecD vb = make(&bs[i]);
    double want[W];
    for (int l = 0; l < W; ++l) {
      want[l] = ref(as[i + static_cast<size_t>(l)],
                    bs[i + static_cast<size_t>(l)]);
    }
    check_all_lanes(fn(va, vb), want, what);
  }
}

TEST(Simd, BackendReportsFixedLaneModel) {
  EXPECT_EQ(kLanesD, 4);
  EXPECT_EQ(kLanesF, 8);
  EXPECT_STREQ(kBackendName, kAvx2 ? "avx2" : "scalar");
}

TEST(Simd, LoadStoreLaneRoundTripUnaligned) {
  // Deliberately offset buffer so loadu/storeu hit unaligned addresses.
  alignas(32) double raw[W + 3] = {};
  double* p = raw + 1;
  const auto xs = random_doubles(W, 1);
  for (int l = 0; l < W; ++l) p[l] = xs[static_cast<size_t>(l)];
  const VecD v = VecD::loadu(p);
  for (int l = 0; l < W; ++l) {
    EXPECT_EQ(bits_of(v.lane(l)), bits_of(p[l]));
  }
  double out[W + 1];
  v.storeu(out + 1);
  for (int l = 0; l < W; ++l) {
    EXPECT_EQ(bits_of(out[l + 1]), bits_of(p[l]));
  }
  const VecD b = VecD::broadcast(3.25);
  for (int l = 0; l < W; ++l) EXPECT_EQ(b.lane(l), 3.25);
  const VecD z = VecD::zero();
  for (int l = 0; l < W; ++l) EXPECT_EQ(bits_of(z.lane(l)), 0u);
}

TEST(Simd, ArithmeticMatchesScalarReferencePerLane) {
  auto pool = special_doubles();
  const auto rnd = random_doubles(12, 2);
  pool.insert(pool.end(), rnd.begin(), rnd.end());
  check_binary(
      pool, [](VecD a, VecD b) { return a + b; },
      [](double a, double b) { return a + b; }, "add");
  check_binary(
      pool, [](VecD a, VecD b) { return a - b; },
      [](double a, double b) { return a - b; }, "sub");
  check_binary(
      pool, [](VecD a, VecD b) { return a * b; },
      [](double a, double b) { return a * b; }, "mul");
  check_binary(
      pool, [](VecD a, VecD b) { return a / b; },
      [](double a, double b) { return a / b; }, "div");
  check_binary(
      pool, [](VecD a, VecD) { return -a; },
      [](double a, double) { return 0.0 - a; }, "neg");
}

TEST(Simd, SqrtAndRoundMatchReference) {
  auto pool = special_doubles();
  const auto rnd = random_doubles(40, 3);
  pool.insert(pool.end(), rnd.begin(), rnd.end());
  while (pool.size() % W != 0) pool.push_back(0.0);
  for (size_t i = 0; i < pool.size(); i += W) {
    const VecD v = make(&pool[i]);
    double want_sqrt[W], want_round[W];
    for (int l = 0; l < W; ++l) {
      want_sqrt[l] = std::sqrt(pool[i + static_cast<size_t>(l)]);
      want_round[l] = std::nearbyint(pool[i + static_cast<size_t>(l)]);
    }
    check_all_lanes(sqrt(v), want_sqrt, "sqrt");
    check_all_lanes(round_nearest(v), want_round, "round_nearest");
  }
}

TEST(Simd, RoundNearestIsHalfToEven) {
  const double in[W] = {0.5, 1.5, 2.5, -0.5};
  const double want[W] = {0.0, 2.0, 2.0, -0.0};
  check_all_lanes(round_nearest(make(in)), want, "half-even");
  const double in2[W] = {-1.5, -2.5, 3.5, 4.5};
  const double want2[W] = {-2.0, -2.0, 4.0, 4.0};
  check_all_lanes(round_nearest(make(in2)), want2, "half-even-2");
}

TEST(Simd, FmaIsSingleRounding) {
  auto pool = special_doubles();
  const auto rnd = random_doubles(9, 4);
  pool.insert(pool.end(), rnd.begin(), rnd.end());
  std::mt19937_64 rng(5);
  std::uniform_int_distribution<size_t> pick(0, pool.size() - 1);
  for (int rep = 0; rep < 200; ++rep) {
    double a[W], b[W], c[W], want[W];
    for (int l = 0; l < W; ++l) {
      a[l] = pool[pick(rng)];
      b[l] = pool[pick(rng)];
      c[l] = pool[pick(rng)];
      want[l] = std::fma(a[l], b[l], c[l]);
    }
    check_all_lanes(fma(make(a), make(b), make(c)), want, "fma");
  }
  // A case where fused and unfused rounding genuinely differ, proving the
  // wrapper (and the -ffp-contract=off build) really uses one rounding.
  const double x = 1.0 + std::ldexp(1.0, -30);
  const double fused = std::fma(x, x, -1.0);
  const double unfused = x * x - 1.0;
  ASSERT_NE(bits_of(fused), bits_of(unfused));
  const VecD r = fma(VecD::broadcast(x), VecD::broadcast(x),
                     VecD::broadcast(-1.0));
  for (int l = 0; l < W; ++l) EXPECT_EQ(bits_of(r.lane(l)), bits_of(fused));
}

TEST(Simd, MinMaxUseIntelSemantics) {
  auto pool = special_doubles();
  // Intel semantics: a OP b ? a : b — a NaN in `a` selects b, a NaN in `b`
  // propagates, and min(+0,-0) = -0 / max(+0,-0) = -0 (second operand).
  check_binary(
      pool, [](VecD a, VecD b) { return min(a, b); },
      [](double a, double b) { return a < b ? a : b; }, "min");
  check_binary(
      pool, [](VecD a, VecD b) { return max(a, b); },
      [](double a, double b) { return a > b ? a : b; }, "max");
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const VecD vn = VecD::broadcast(nan);
  const VecD v1 = VecD::broadcast(1.0);
  EXPECT_EQ(min(vn, v1).lane(0), 1.0);       // NaN in a selects b
  EXPECT_TRUE(std::isnan(min(v1, vn).lane(0)));
  EXPECT_EQ(max(vn, v1).lane(0), 1.0);
  EXPECT_TRUE(std::isnan(max(v1, vn).lane(0)));
}

TEST(Simd, ComparesAreOrderedExceptNe) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto pool = special_doubles();
  auto check_cmp = [&](auto fn, auto ref, const char* what) {
    for (double a : pool) {
      for (double b : pool) {
        const MaskD m = fn(VecD::broadcast(a), VecD::broadcast(b));
        for (int l = 0; l < W; ++l) {
          EXPECT_EQ(m.lane(l), ref(a, b)) << what << " a=" << a << " b=" << b;
        }
      }
    }
  };
  check_cmp([](VecD a, VecD b) { return cmp_lt(a, b); },
            [](double a, double b) { return a < b; }, "lt");
  check_cmp([](VecD a, VecD b) { return cmp_le(a, b); },
            [](double a, double b) { return a <= b; }, "le");
  check_cmp([](VecD a, VecD b) { return cmp_gt(a, b); },
            [](double a, double b) { return a > b; }, "gt");
  check_cmp([](VecD a, VecD b) { return cmp_ge(a, b); },
            [](double a, double b) { return a >= b; }, "ge");
  check_cmp([](VecD a, VecD b) { return cmp_eq(a, b); },
            [](double a, double b) { return a == b; }, "eq");
  // cmp_ne is the unordered complement of eq: NaN != anything is true.
  check_cmp([](VecD a, VecD b) { return cmp_ne(a, b); },
            [](double a, double b) { return !(a == b); }, "ne");
  EXPECT_TRUE(cmp_ne(VecD::broadcast(nan), VecD::broadcast(nan)).all());
  EXPECT_FALSE(cmp_eq(VecD::broadcast(nan), VecD::broadcast(nan)).any());
}

TEST(Simd, MaskOpsAndRaggedTails) {
  for (int n = 0; n <= W; ++n) {
    const MaskD m = MaskD::first_n(n);
    for (int l = 0; l < W; ++l) EXPECT_EQ(m.lane(l), l < n) << "n=" << n;
    EXPECT_EQ(m.any(), n > 0);
    EXPECT_EQ(m.all(), n == W);
    EXPECT_EQ(m.bits(), (1 << n) - 1);
  }
  EXPECT_FALSE(MaskD::none().any());
  const MaskD a = MaskD::first_n(3);
  const MaskD b = MaskD::first_n(1);
  EXPECT_EQ((a & b).bits(), 0b0001);
  EXPECT_EQ((a | b).bits(), 0b0111);
  EXPECT_EQ(andnot(a, b).bits(), 0b0110);  // a & ~b
}

TEST(Simd, BlendSelectsPerLane) {
  const double av[W] = {1.0, 2.0, 3.0, 4.0};
  const double bv[W] = {-1.0, -2.0, -3.0, -4.0};
  for (int n = 0; n <= W; ++n) {
    const VecD r = blend(MaskD::first_n(n), make(av), make(bv));
    for (int l = 0; l < W; ++l) {
      EXPECT_EQ(r.lane(l), l < n ? av[l] : bv[l]);
    }
  }
  // Blend driven by a compare mask, the kernel's cutoff idiom.
  const double xs[W] = {0.5, 2.0, 1.0, 9.0};
  const MaskD in = cmp_lt(make(xs), VecD::broadcast(1.5));
  const VecD r = blend(in, make(av), VecD::zero());
  const double want[W] = {1.0, 0.0, 3.0, 0.0};
  check_all_lanes(r, want, "blend-cmp");
}

TEST(Simd, GatherAndMaskGather) {
  std::vector<double> table = random_doubles(64, 6);
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<int> pick(0, 63);
  for (int rep = 0; rep < 100; ++rep) {
    int idx[W];
    for (int& k : idx) k = pick(rng);
    const VecI vi = VecI::loadu(idx);
    const VecD g = VecD::gather(table.data(), vi);
    for (int l = 0; l < W; ++l) {
      EXPECT_EQ(bits_of(g.lane(l)),
                bits_of(table[static_cast<size_t>(idx[l])]));
    }
    for (int n = 0; n <= W; ++n) {
      const VecD mg = VecD::mask_gather(table.data(), vi, MaskD::first_n(n));
      for (int l = 0; l < W; ++l) {
        const double want = l < n ? table[static_cast<size_t>(idx[l])] : 0.0;
        EXPECT_EQ(bits_of(mg.lane(l)), bits_of(want));
      }
    }
  }
}

TEST(Simd, LoadFields4TransposesRecordsBitwise) {
  // 4-double records at arbitrary (possibly duplicated) offsets: field j of
  // output vector f_j, lane l must be bitwise base[idx[l] + j] — the AVX2
  // backend is pure data movement (loads + unpack/permute transpose), the
  // scalar backend per-lane loads, so both are exact.
  std::vector<double> table = random_doubles(32 * 4, 11);
  std::mt19937_64 rng(13);
  std::uniform_int_distribution<int> pick(0, 31);
  for (int rep = 0; rep < 100; ++rep) {
    int idx[W];
    for (int& k : idx) k = pick(rng) * 4;
    idx[W - 1] = idx[0];  // duplicated offsets must be fine
    VecD f0, f1, f2, f3;
    load_fields4(table.data(), VecI::loadu(idx), f0, f1, f2, f3);
    const VecD* f[4] = {&f0, &f1, &f2, &f3};
    for (int j = 0; j < 4; ++j) {
      for (int l = 0; l < W; ++l) {
        EXPECT_EQ(bits_of(f[j]->lane(l)),
                  bits_of(table[static_cast<size_t>(idx[l] + j)]));
      }
    }
  }
  // Special values survive the transpose unmodified (no arithmetic).
  const double specials[8] = {-0.0,
                              std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::denorm_min(),
                              1.0,
                              -2.5,
                              0.0,
                              -1e308};
  const int at[W] = {0, 4, 0, 4};
  VecD g0, g1, g2, g3;
  load_fields4(specials, VecI::loadu(at), g0, g1, g2, g3);
  const VecD* g[4] = {&g0, &g1, &g2, &g3};
  for (int j = 0; j < 4; ++j) {
    for (int l = 0; l < W; ++l) {
      EXPECT_EQ(bits_of(g[j]->lane(l)),
                bits_of(specials[static_cast<size_t>(at[l] + j)]));
    }
  }
}

TEST(Simd, PrefetchIsAdvisoryOnly) {
  // prefetch must accept any address (including one past the end) without
  // faulting or altering data; it is a pure hint on both backends.
  std::vector<double> buf = random_doubles(8, 17);
  const std::vector<double> before = buf;
  prefetch(buf.data());
  prefetch(buf.data() + buf.size());
  for (size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(bits_of(buf[i]), bits_of(before[i]));
  }
}

TEST(Simd, TruncateAndFromInt) {
  const double in[W] = {2.9, -2.9, 0.49, -0.49};
  const int want[W] = {2, -2, 0, 0};
  const VecI t = truncate(make(in));
  for (int l = 0; l < W; ++l) EXPECT_EQ(t.lane(l), want[l]);
  // Large in-range magnitudes.
  const double big[W] = {2147483000.0, -2147483000.0, 1e6 + 0.999, -7.0};
  const VecI tb = truncate(make(big));
  const int wantb[W] = {2147483000, -2147483000, 1000000, -7};
  for (int l = 0; l < W; ++l) EXPECT_EQ(tb.lane(l), wantb[l]);
  // Round trip through from_int is exact for int32.
  const int ivals[W] = {0, -1, 123456789, -2147483647};
  const VecD d = VecD::from_int(VecI::loadu(ivals));
  for (int l = 0; l < W; ++l) {
    EXPECT_EQ(d.lane(l), static_cast<double>(ivals[l]));
  }
}

TEST(Simd, VecIOps) {
  const int av[W] = {1, -5, 100000, 7};
  const int bv[W] = {3, 2, -4, 7};
  const VecI a = VecI::loadu(av);
  const VecI b = VecI::loadu(bv);
  const VecI s = a + b;
  const VecI p = a * b;
  const VecI mn = min(a, b);
  const VecI mx = max(a, b);
  for (int l = 0; l < W; ++l) {
    EXPECT_EQ(s.lane(l), av[l] + bv[l]);
    EXPECT_EQ(p.lane(l), av[l] * bv[l]);
    EXPECT_EQ(mn.lane(l), std::min(av[l], bv[l]));
    EXPECT_EQ(mx.lane(l), std::max(av[l], bv[l]));
  }
  int out[W];
  VecI::broadcast(42).storeu(out);
  for (int l = 0; l < W; ++l) EXPECT_EQ(out[l], 42);
  // Integer gather.
  std::vector<int> tab(32);
  for (int i = 0; i < 32; ++i) tab[static_cast<size_t>(i)] = i * i - 7;
  const int idx[W] = {0, 31, 5, 17};
  const VecI g = VecI::gather(tab.data(), VecI::loadu(idx));
  for (int l = 0; l < W; ++l) {
    EXPECT_EQ(g.lane(l), tab[static_cast<size_t>(idx[l])]);
  }
}

TEST(Simd, ReduceOrderedIsStrictlyLeftToRight) {
  // Pick lanes where summation order changes the result, and pin the exact
  // ((l0+l1)+l2)+l3 order.
  const double lanes[W] = {1e16, 1.0, -1e16, 1.0};
  const double want = ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
  const double other = ((lanes[0] + lanes[2]) + lanes[1]) + lanes[3];
  ASSERT_NE(bits_of(want), bits_of(other));
  EXPECT_EQ(bits_of(make(lanes).reduce_ordered()), bits_of(want));
  const auto rnd = random_doubles(4 * 50, 8);
  for (size_t i = 0; i < rnd.size(); i += W) {
    const double w = ((rnd[i] + rnd[i + 1]) + rnd[i + 2]) + rnd[i + 3];
    EXPECT_EQ(bits_of(make(&rnd[i]).reduce_ordered()), bits_of(w));
  }
}

TEST(Simd, CmulMatchesNaiveComplexFormula) {
  const auto rnd = random_doubles(4 * 100, 9);
  for (size_t i = 0; i < rnd.size(); i += W) {
    const VecD a = make(&rnd[i]);
    double b_raw[W];
    for (int l = 0; l < W; ++l) {
      b_raw[l] = rnd[(i + static_cast<size_t>(l) + 7) % rnd.size()];
    }
    const VecD b = make(b_raw);
    const VecD r = cmul(a, b);
    for (int p = 0; p < W; p += 2) {
      const double ar = a.lane(p), ai = a.lane(p + 1);
      const double br = b.lane(p), bi = b.lane(p + 1);
      expect_lane(r.lane(p), ar * br - ai * bi, "cmul-re", p);
      expect_lane(r.lane(p + 1), ai * br + ar * bi, "cmul-im", p);
      // Also bitwise what std::complex multiplication produces for finite
      // non-NaN results (the FFT's former inner loop).
      const std::complex<double> want =
          std::complex<double>{ar, ai} * std::complex<double>{br, bi};
      if (!std::isnan(want.real()) && !std::isnan(want.imag())) {
        EXPECT_EQ(bits_of(r.lane(p)), bits_of(want.real()));
        EXPECT_EQ(bits_of(r.lane(p + 1)), bits_of(want.imag()));
      }
    }
  }
}

// --- float lane checks (lighter: the MD kernels are double, VecF exists for
// future single-precision paths) --------------------------------------------

TEST(Simd, FloatLanesMatchScalarReference) {
  std::mt19937 rng(10);
  std::uniform_real_distribution<float> dist(-100.0f, 100.0f);
  constexpr int WF = kLanesF;
  for (int rep = 0; rep < 100; ++rep) {
    float a[WF], b[WF], c[WF];
    for (int l = 0; l < WF; ++l) {
      a[l] = dist(rng);
      b[l] = dist(rng);
      c[l] = dist(rng);
    }
    const VecF va = VecF::loadu(a);
    const VecF vb = VecF::loadu(b);
    const VecF vc = VecF::loadu(c);
    const VecF sum = va + vb;
    const VecF diff = va - vb;
    const VecF prod = va * vb;
    const VecF quot = va / vb;
    const VecF fm = fma(va, vb, vc);
    const VecF mn = min(va, vb);
    const VecF mx = max(va, vb);
    for (int l = 0; l < WF; ++l) {
      EXPECT_EQ(sum.lane(l), a[l] + b[l]);
      EXPECT_EQ(diff.lane(l), a[l] - b[l]);
      EXPECT_EQ(prod.lane(l), a[l] * b[l]);
      EXPECT_EQ(quot.lane(l), a[l] / b[l]);
      EXPECT_EQ(fm.lane(l), std::fma(a[l], b[l], c[l]));
      EXPECT_EQ(mn.lane(l), a[l] < b[l] ? a[l] : b[l]);
      EXPECT_EQ(mx.lane(l), a[l] > b[l] ? a[l] : b[l]);
    }
    const MaskF lt = cmp_lt(va, vb);
    const MaskF ge = cmp_ge(va, vb);
    const VecF bl = blend(lt, va, vb);
    for (int l = 0; l < WF; ++l) {
      EXPECT_EQ(lt.lane(l), a[l] < b[l]);
      EXPECT_EQ(ge.lane(l), a[l] >= b[l]);
      EXPECT_EQ(bl.lane(l), a[l] < b[l] ? a[l] : b[l]);
      EXPECT_EQ((lt.bits() >> l) & 1, a[l] < b[l] ? 1 : 0);
      EXPECT_EQ((ge.bits() >> l) & 1, a[l] >= b[l] ? 1 : 0);
    }
    EXPECT_EQ(lt.bits() & ~0xFF, 0);
    float acc = a[0];
    for (int l = 1; l < WF; ++l) acc += a[l];
    EXPECT_EQ(va.reduce_ordered(), acc);
  }
  for (int n = 0; n <= kLanesF; ++n) {
    const MaskF m = MaskF::first_n(n);
    for (int l = 0; l < kLanesF; ++l) EXPECT_EQ(m.lane(l), l < n);
    EXPECT_EQ(m.any(), n > 0);
    EXPECT_EQ(m.all(), n == kLanesF);
    EXPECT_EQ(m.bits(), (1 << n) - 1);
  }
}

TEST(Simd, IntLaneComparesMatchScalarReference) {
  // The 8-lane int32 equal and greater masks, lane by lane and through
  // MaskF::bits(), on random lanes drawn from a small range (so that equal
  // lanes are common) and on the extremes.
  std::mt19937 rng(11);
  std::uniform_int_distribution<int> dist(-3, 3);
  const int big = std::numeric_limits<int>::max();
  const int small = std::numeric_limits<int>::min();
  for (int rep = 0; rep < 200; ++rep) {
    int a[kLanesF], b[kLanesF];
    for (int l = 0; l < kLanesF; ++l) {
      a[l] = dist(rng);
      b[l] = dist(rng);
    }
    if (rep == 0) {
      const int extremes[kLanesF] = {big, small, big, small, 0, -1, big, 1};
      for (int l = 0; l < kLanesF; ++l) {
        a[l] = extremes[l];
        b[l] = extremes[(l + 1) % kLanesF];
      }
    }
    const VecI8 va = VecI8::loadu(a);
    const VecI8 vb = VecI8::loadu(b);
    const MaskF eq = cmp_eq(va, vb);
    const MaskF gt = cmp_gt(va, vb);
    const MaskF eq_b = cmp_eq(va, VecI8::broadcast(b[0]));
    for (int l = 0; l < kLanesF; ++l) {
      EXPECT_EQ(va.lane(l), a[l]);
      EXPECT_EQ(eq.lane(l), a[l] == b[l]) << "lane " << l;
      EXPECT_EQ(gt.lane(l), a[l] > b[l]) << "lane " << l;
      EXPECT_EQ((eq.bits() >> l) & 1, a[l] == b[l] ? 1 : 0) << "lane " << l;
      EXPECT_EQ((gt.bits() >> l) & 1, a[l] > b[l] ? 1 : 0) << "lane " << l;
      EXPECT_EQ(eq_b.lane(l), a[l] == b[0]) << "lane " << l;
    }
  }
}

}  // namespace
}  // namespace anton::simd
