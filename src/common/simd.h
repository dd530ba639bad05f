// Portable SIMD abstraction for the hot MD kernels.
//
// Anton 2's pairwise point interaction pipelines and geometry cores are wide
// vector machines; the commodity baseline mirrors that with a small,
// fixed-width vector wrapper.  Every kernel is written once against this
// header; the backend is chosen at configure time (ANTON_SIMD=avx2|scalar,
// auto-detected by default) and raw intrinsics never leak outside this file
// (enforced by the anton-lint `raw-intrinsics` rule).
//
// Lane-model contract — the foundation of the cross-backend bitwise parity
// the deterministic mode certifies:
//
//   * Both backends expose the SAME width (4 double lanes, 8 float lanes),
//     so the chunking, masking and lane order of a kernel are identical no
//     matter which backend is compiled in.
//   * Every wrapper op performs the same correctly-rounded IEEE-754
//     operation per lane in both backends.  Where an AVX2 instruction has
//     non-obvious scalar semantics the scalar backend reproduces those
//     semantics exactly:
//       - min/max follow the Intel definition `a OP b ? a : b` (so a NaN in
//         `a` selects `b`, unlike std::min/std::max);
//       - round_nearest() is round-half-to-even in the default FP
//         environment (std::nearbyint <-> _mm256_round_pd NEAREST_INT);
//       - truncate() matches _mm256_cvttpd_epi32 / static_cast<int> for
//         in-range values;
//       - fma() is a single correctly-rounded fused multiply-add (std::fma
//         <-> vfmadd).
//   * Builds keep FP contraction off globally (-ffp-contract=off in the top
//     CMakeLists), so the compiler cannot fuse the scalar backend's mul+add
//     chains into fmas and break parity with the explicit vector ops.
//   * reduce_ordered() folds lanes strictly left to right
//     (((l0+l1)+l2)+l3), giving a single fixed summation order that is
//     independent of backend and thread count.
//
// Tail policy: kernels process full W-lane chunks and handle the ragged tail
// with mask_first_n(); inactive lanes are blended to exact 0.0 before any
// accumulation and skipped in scatter loops, so they never contribute and
// never read or write out-of-range memory (gather indices for inactive lanes
// must still be in-range — duplicate a valid index into the padding).
//
// Adding a backend (e.g. NEON or AVX-512): provide the same types with the
// same lane counts and per-lane semantics under a new preprocessor branch,
// then extend tests/test_simd.cc's reference checks — the unit tests compare
// every op against the scalar reference, so a semantics mismatch fails
// immediately.
#pragma once

#include <cmath>
#include <cstdint>

#if defined(ANTON_SIMD_AVX2)
#include <immintrin.h>
#endif

namespace anton::simd {

inline constexpr int kLanesD = 4;  // double lanes per VecD
inline constexpr int kLanesF = 8;  // float lanes per VecF

#if defined(ANTON_SIMD_AVX2)
inline constexpr bool kAvx2 = true;
inline constexpr const char* kBackendName = "avx2";
#else
inline constexpr bool kAvx2 = false;
inline constexpr const char* kBackendName = "scalar";
#endif

#if defined(ANTON_SIMD_AVX2)

// ---------------------------------------------------------------------------
// AVX2 + FMA backend
// ---------------------------------------------------------------------------

// Comparison-result mask over 4 double lanes (all-ones / all-zeros bits).
struct MaskD {
  __m256d m;

  static MaskD none() { return {_mm256_setzero_pd()}; }
  // True in the first n lanes, false in the rest (n clamped to [0, 4]).
  static MaskD first_n(int n) {
    alignas(32) double lanes[kLanesD];
    for (int l = 0; l < kLanesD; ++l) {
      lanes[l] = l < n ? -1.0 : 0.0;  // sign bit set where active
    }
    const __m256d v = _mm256_load_pd(lanes);
    return {_mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_LT_OQ)};
  }

  bool any() const { return _mm256_movemask_pd(m) != 0; }
  bool all() const { return _mm256_movemask_pd(m) == 0xF; }
  bool lane(int i) const { return (_mm256_movemask_pd(m) >> i) & 1; }
  // Bitmask of active lanes (bit l = lane l).
  int bits() const { return _mm256_movemask_pd(m); }

  friend MaskD operator&(MaskD a, MaskD b) {
    return {_mm256_and_pd(a.m, b.m)};
  }
  friend MaskD operator|(MaskD a, MaskD b) {
    return {_mm256_or_pd(a.m, b.m)};
  }
  friend MaskD andnot(MaskD a, MaskD b) {  // a & ~b
    return {_mm256_andnot_pd(b.m, a.m)};
  }
};

// 4 int32 lanes (gather indices and table offsets).
struct VecI {
  __m128i v;

  static VecI broadcast(int x) { return {_mm_set1_epi32(x)}; }
  static VecI loadu(const int* p) {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  void storeu(int* p) const {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  int lane(int i) const {
    alignas(16) int lanes[kLanesD];
    _mm_store_si128(reinterpret_cast<__m128i*>(lanes), v);
    return lanes[i];
  }
  // lanes[l] = base[idx.lane(l)]; every index must be in-range.
  static VecI gather(const int* base, VecI idx) {
    return {_mm_i32gather_epi32(base, idx.v, 4)};
  }

  friend VecI operator+(VecI a, VecI b) { return {_mm_add_epi32(a.v, b.v)}; }
  friend VecI operator*(VecI a, VecI b) {
    return {_mm_mullo_epi32(a.v, b.v)};
  }
  friend VecI min(VecI a, VecI b) { return {_mm_min_epi32(a.v, b.v)}; }
  friend VecI max(VecI a, VecI b) { return {_mm_max_epi32(a.v, b.v)}; }
};

// 4 double lanes.
struct VecD {
  __m256d v;

  static VecD zero() { return {_mm256_setzero_pd()}; }
  static VecD broadcast(double x) { return {_mm256_set1_pd(x)}; }
  static VecD loadu(const double* p) { return {_mm256_loadu_pd(p)}; }
  void storeu(double* p) const { _mm256_storeu_pd(p, v); }
  double lane(int i) const {
    alignas(32) double lanes[kLanesD];
    _mm256_store_pd(lanes, v);
    return lanes[i];
  }

  // lanes[l] = base[idx.lane(l)]; every index must be in-range.
  // The masked form with a zero source and an all-ones mask is the same
  // instruction as _mm256_i32gather_pd, whose undefined source GCC 12
  // reports as maybe-uninitialized.
  static VecD gather(const double* base, VecI idx) {
    return {_mm256_mask_i32gather_pd(
        _mm256_setzero_pd(), base, idx.v,
        _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8)};
  }
  // Gather where m is set, exact 0.0 elsewhere.  Inactive lanes are not
  // dereferenced, but their indices must still be in-range for the masked
  // instruction's address computation.
  static VecD mask_gather(const double* base, VecI idx, MaskD m) {
    return {_mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, idx.v, m.m,
                                     8)};
  }

  friend VecD operator+(VecD a, VecD b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend VecD operator-(VecD a, VecD b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend VecD operator*(VecD a, VecD b) { return {_mm256_mul_pd(a.v, b.v)}; }
  friend VecD operator/(VecD a, VecD b) { return {_mm256_div_pd(a.v, b.v)}; }
  friend VecD operator-(VecD a) {
    return {_mm256_sub_pd(_mm256_setzero_pd(), a.v)};
  }

  // a*b + c, single rounding per lane.
  friend VecD fma(VecD a, VecD b, VecD c) {
    return {_mm256_fmadd_pd(a.v, b.v, c.v)};
  }
  friend VecD sqrt(VecD a) { return {_mm256_sqrt_pd(a.v)}; }
  // Intel semantics: a < b ? a : b (NaN in a selects b).
  friend VecD min(VecD a, VecD b) { return {_mm256_min_pd(a.v, b.v)}; }
  friend VecD max(VecD a, VecD b) { return {_mm256_max_pd(a.v, b.v)}; }
  // Round half to even (the default FP environment's nearbyint).
  friend VecD round_nearest(VecD a) {
    return {_mm256_round_pd(a.v,
                            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC)};
  }

  friend MaskD cmp_lt(VecD a, VecD b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)};
  }
  friend MaskD cmp_le(VecD a, VecD b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ)};
  }
  friend MaskD cmp_gt(VecD a, VecD b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)};
  }
  friend MaskD cmp_ge(VecD a, VecD b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)};
  }
  friend MaskD cmp_eq(VecD a, VecD b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_EQ_OQ)};
  }
  friend MaskD cmp_ne(VecD a, VecD b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_NEQ_UQ)};
  }

  // m ? a : b, per lane.
  friend VecD blend(MaskD m, VecD a, VecD b) {
    return {_mm256_blendv_pd(b.v, a.v, m.m)};
  }

  // Strict left-to-right lane sum: ((l0 + l1) + l2) + l3.  The one
  // deterministic reduction order shared by every backend.
  double reduce_ordered() const {
    alignas(32) double lanes[kLanesD];
    _mm256_store_pd(lanes, v);
    return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
  }

  // Truncate toward zero to int32 (matches static_cast<int> in range).
  friend VecI truncate(VecD a) { return {_mm256_cvttpd_epi32(a.v)}; }
  static VecD from_int(VecI a) { return {_mm256_cvtepi32_pd(a.v)}; }
};

// Best-effort prefetch hint into L1; purely advisory, never observable in
// results.  Kernels that compute gather/record indices ahead of use (e.g.
// the segmented pair kernel) issue these to hide the table-miss latency of
// a working set larger than L2.
inline void prefetch(const void* p) {
  _mm_prefetch(static_cast<const char*>(p), _MM_HINT_T0);
}

// Record load for tables of 4-double records: for each lane l, reads the 4
// consecutive doubles at base + idx.lane(l) and transposes them so that
// fk.lane(l) == base[idx.lane(l) + k].  Pure data movement — bitwise
// identical in both backends — but on AVX2 it replaces 4 hardware gathers
// (serialized, ~10+ cycles each) with 4 contiguous loads and an in-register
// 4x4 transpose, which is what makes the record-structured table lookups in
// the pair kernel profitable.  Every idx lane must leave idx+3 in-range.
inline void load_fields4(const double* base, VecI idx, VecD& f0, VecD& f1,
                         VecD& f2, VecD& f3) {
  alignas(16) int ib[kLanesD];
  idx.storeu(ib);
  const __m256d r0 = _mm256_loadu_pd(base + ib[0]);
  const __m256d r1 = _mm256_loadu_pd(base + ib[1]);
  const __m256d r2 = _mm256_loadu_pd(base + ib[2]);
  const __m256d r3 = _mm256_loadu_pd(base + ib[3]);
  const __m256d t0 = _mm256_unpacklo_pd(r0, r1);  // [r00 r10 | r02 r12]
  const __m256d t1 = _mm256_unpackhi_pd(r0, r1);  // [r01 r11 | r03 r13]
  const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
  const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
  f0 = {_mm256_permute2f128_pd(t0, t2, 0x20)};
  f1 = {_mm256_permute2f128_pd(t1, t3, 0x20)};
  f2 = {_mm256_permute2f128_pd(t0, t2, 0x31)};
  f3 = {_mm256_permute2f128_pd(t1, t3, 0x31)};
}

// Complex multiply over two interleaved complex<double> lanes
// [re0, im0, re1, im1]: per pair (ar*br - ai*bi, ar*bi + ai*br), each
// component two products and one add/sub — bitwise what the naive scalar
// formula computes for finite values.
inline VecD cmul(VecD a, VecD b) {
  const __m256d br = _mm256_movedup_pd(b.v);                  // [br, br]
  const __m256d bi = _mm256_permute_pd(b.v, 0xF);             // [bi, bi]
  const __m256d a_sw = _mm256_permute_pd(a.v, 0x5);           // [ai, ar]
  // addsub(a*br, a_sw*bi): lane0 ar*br - ai*bi, lane1 ai*br + ar*bi.
  return {_mm256_addsub_pd(_mm256_mul_pd(a.v, br),
                           _mm256_mul_pd(a_sw, bi))};
}

// 8 float lanes.
struct MaskF {
  __m256 m;

  static MaskF first_n(int n) {
    alignas(32) float lanes[kLanesF];
    for (int l = 0; l < kLanesF; ++l) lanes[l] = l < n ? -1.0f : 0.0f;
    const __m256 v = _mm256_load_ps(lanes);
    return {_mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_LT_OQ)};
  }
  bool any() const { return _mm256_movemask_ps(m) != 0; }
  bool all() const { return _mm256_movemask_ps(m) == 0xFF; }
  bool lane(int i) const { return (_mm256_movemask_ps(m) >> i) & 1; }
  // Bitmask of active lanes (bit l = lane l).
  int bits() const { return _mm256_movemask_ps(m); }
  friend MaskF operator&(MaskF a, MaskF b) {
    return {_mm256_and_ps(a.m, b.m)};
  }
  friend MaskF operator|(MaskF a, MaskF b) {
    return {_mm256_or_ps(a.m, b.m)};
  }
};

struct VecF {
  __m256 v;

  static VecF zero() { return {_mm256_setzero_ps()}; }
  static VecF broadcast(float x) { return {_mm256_set1_ps(x)}; }
  static VecF loadu(const float* p) { return {_mm256_loadu_ps(p)}; }
  void storeu(float* p) const { _mm256_storeu_ps(p, v); }
  float lane(int i) const {
    alignas(32) float lanes[kLanesF];
    _mm256_store_ps(lanes, v);
    return lanes[i];
  }

  friend VecF operator+(VecF a, VecF b) { return {_mm256_add_ps(a.v, b.v)}; }
  friend VecF operator-(VecF a, VecF b) { return {_mm256_sub_ps(a.v, b.v)}; }
  friend VecF operator*(VecF a, VecF b) { return {_mm256_mul_ps(a.v, b.v)}; }
  friend VecF operator/(VecF a, VecF b) { return {_mm256_div_ps(a.v, b.v)}; }
  friend VecF fma(VecF a, VecF b, VecF c) {
    return {_mm256_fmadd_ps(a.v, b.v, c.v)};
  }
  friend VecF sqrt(VecF a) { return {_mm256_sqrt_ps(a.v)}; }
  friend VecF min(VecF a, VecF b) { return {_mm256_min_ps(a.v, b.v)}; }
  friend VecF max(VecF a, VecF b) { return {_mm256_max_ps(a.v, b.v)}; }
  friend MaskF cmp_lt(VecF a, VecF b) {
    return {_mm256_cmp_ps(a.v, b.v, _CMP_LT_OQ)};
  }
  friend MaskF cmp_ge(VecF a, VecF b) {
    return {_mm256_cmp_ps(a.v, b.v, _CMP_GE_OQ)};
  }
  friend VecF blend(MaskF m, VecF a, VecF b) {
    return {_mm256_blendv_ps(b.v, a.v, m.m)};
  }
  float reduce_ordered() const {
    alignas(32) float lanes[kLanesF];
    _mm256_store_ps(lanes, v);
    float acc = lanes[0];
    for (int l = 1; l < kLanesF; ++l) acc += lanes[l];
    return acc;
  }
};

// 8 int32 lanes, compared into a MaskF (slot and node indices).
struct VecI8 {
  __m256i v;

  static VecI8 broadcast(int x) { return {_mm256_set1_epi32(x)}; }
  static VecI8 loadu(const int* p) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  int lane(int i) const {
    alignas(32) int lanes[kLanesF];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
    return lanes[i];
  }
  friend MaskF cmp_eq(VecI8 a, VecI8 b) {
    return {_mm256_castsi256_ps(_mm256_cmpeq_epi32(a.v, b.v))};
  }
  friend MaskF cmp_gt(VecI8 a, VecI8 b) {
    return {_mm256_castsi256_ps(_mm256_cmpgt_epi32(a.v, b.v))};
  }
};

#else  // !ANTON_SIMD_AVX2

// ---------------------------------------------------------------------------
// Scalar fallback backend: the same 4/8-lane model executed one lane at a
// time with the exact per-lane semantics documented above.
// ---------------------------------------------------------------------------

struct MaskD {
  bool m[kLanesD];

  static MaskD none() { return {{false, false, false, false}}; }
  static MaskD first_n(int n) {
    MaskD r;
    for (int l = 0; l < kLanesD; ++l) r.m[l] = l < n;
    return r;
  }
  bool any() const {
    for (bool b : m) {
      if (b) return true;
    }
    return false;
  }
  bool all() const {
    for (bool b : m) {
      if (!b) return false;
    }
    return true;
  }
  bool lane(int i) const { return m[i]; }
  int bits() const {
    int r = 0;
    for (int l = 0; l < kLanesD; ++l) r |= (m[l] ? 1 : 0) << l;
    return r;
  }
  friend MaskD operator&(MaskD a, MaskD b) {
    MaskD r;
    for (int l = 0; l < kLanesD; ++l) r.m[l] = a.m[l] && b.m[l];
    return r;
  }
  friend MaskD operator|(MaskD a, MaskD b) {
    MaskD r;
    for (int l = 0; l < kLanesD; ++l) r.m[l] = a.m[l] || b.m[l];
    return r;
  }
  friend MaskD andnot(MaskD a, MaskD b) {
    MaskD r;
    for (int l = 0; l < kLanesD; ++l) r.m[l] = a.m[l] && !b.m[l];
    return r;
  }
};

struct VecI {
  int v[kLanesD];

  static VecI broadcast(int x) { return {{x, x, x, x}}; }
  static VecI loadu(const int* p) { return {{p[0], p[1], p[2], p[3]}}; }
  void storeu(int* p) const {
    for (int l = 0; l < kLanesD; ++l) p[l] = v[l];
  }
  int lane(int i) const { return v[i]; }
  static VecI gather(const int* base, VecI idx) {
    VecI r;
    for (int l = 0; l < kLanesD; ++l) r.v[l] = base[idx.v[l]];
    return r;
  }
  friend VecI operator+(VecI a, VecI b) {
    VecI r;
    for (int l = 0; l < kLanesD; ++l) r.v[l] = a.v[l] + b.v[l];
    return r;
  }
  friend VecI operator*(VecI a, VecI b) {
    VecI r;
    for (int l = 0; l < kLanesD; ++l) r.v[l] = a.v[l] * b.v[l];
    return r;
  }
  friend VecI min(VecI a, VecI b) {
    VecI r;
    for (int l = 0; l < kLanesD; ++l) {
      r.v[l] = a.v[l] < b.v[l] ? a.v[l] : b.v[l];
    }
    return r;
  }
  friend VecI max(VecI a, VecI b) {
    VecI r;
    for (int l = 0; l < kLanesD; ++l) {
      r.v[l] = a.v[l] > b.v[l] ? a.v[l] : b.v[l];
    }
    return r;
  }
};

struct VecD {
  double v[kLanesD];

  static VecD zero() { return {{0.0, 0.0, 0.0, 0.0}}; }
  static VecD broadcast(double x) { return {{x, x, x, x}}; }
  static VecD loadu(const double* p) { return {{p[0], p[1], p[2], p[3]}}; }
  void storeu(double* p) const {
    for (int l = 0; l < kLanesD; ++l) p[l] = v[l];
  }
  double lane(int i) const { return v[i]; }

  static VecD gather(const double* base, VecI idx) {
    VecD r;
    for (int l = 0; l < kLanesD; ++l) r.v[l] = base[idx.v[l]];
    return r;
  }
  static VecD mask_gather(const double* base, VecI idx, MaskD m) {
    VecD r;
    for (int l = 0; l < kLanesD; ++l) r.v[l] = m.m[l] ? base[idx.v[l]] : 0.0;
    return r;
  }

  friend VecD operator+(VecD a, VecD b) {
    VecD r;
    for (int l = 0; l < kLanesD; ++l) r.v[l] = a.v[l] + b.v[l];
    return r;
  }
  friend VecD operator-(VecD a, VecD b) {
    VecD r;
    for (int l = 0; l < kLanesD; ++l) r.v[l] = a.v[l] - b.v[l];
    return r;
  }
  friend VecD operator*(VecD a, VecD b) {
    VecD r;
    for (int l = 0; l < kLanesD; ++l) r.v[l] = a.v[l] * b.v[l];
    return r;
  }
  friend VecD operator/(VecD a, VecD b) {
    VecD r;
    for (int l = 0; l < kLanesD; ++l) r.v[l] = a.v[l] / b.v[l];
    return r;
  }
  friend VecD operator-(VecD a) {
    VecD r;
    for (int l = 0; l < kLanesD; ++l) r.v[l] = 0.0 - a.v[l];
    return r;
  }

  friend VecD fma(VecD a, VecD b, VecD c) {
    VecD r;
    for (int l = 0; l < kLanesD; ++l) r.v[l] = std::fma(a.v[l], b.v[l],
                                                        c.v[l]);
    return r;
  }
  friend VecD sqrt(VecD a) {
    VecD r;
    for (int l = 0; l < kLanesD; ++l) r.v[l] = std::sqrt(a.v[l]);
    return r;
  }
  // Intel min/max semantics, not std::min: a OP b ? a : b.
  friend VecD min(VecD a, VecD b) {
    VecD r;
    for (int l = 0; l < kLanesD; ++l) {
      r.v[l] = a.v[l] < b.v[l] ? a.v[l] : b.v[l];
    }
    return r;
  }
  friend VecD max(VecD a, VecD b) {
    VecD r;
    for (int l = 0; l < kLanesD; ++l) {
      r.v[l] = a.v[l] > b.v[l] ? a.v[l] : b.v[l];
    }
    return r;
  }
  friend VecD round_nearest(VecD a) {
    VecD r;
    for (int l = 0; l < kLanesD; ++l) r.v[l] = std::nearbyint(a.v[l]);
    return r;
  }

  friend MaskD cmp_lt(VecD a, VecD b) {
    MaskD r;
    for (int l = 0; l < kLanesD; ++l) r.m[l] = a.v[l] < b.v[l];
    return r;
  }
  friend MaskD cmp_le(VecD a, VecD b) {
    MaskD r;
    for (int l = 0; l < kLanesD; ++l) r.m[l] = a.v[l] <= b.v[l];
    return r;
  }
  friend MaskD cmp_gt(VecD a, VecD b) {
    MaskD r;
    for (int l = 0; l < kLanesD; ++l) r.m[l] = a.v[l] > b.v[l];
    return r;
  }
  friend MaskD cmp_ge(VecD a, VecD b) {
    MaskD r;
    for (int l = 0; l < kLanesD; ++l) r.m[l] = a.v[l] >= b.v[l];
    return r;
  }
  friend MaskD cmp_eq(VecD a, VecD b) {
    MaskD r;
    for (int l = 0; l < kLanesD; ++l) r.m[l] = a.v[l] == b.v[l];
    return r;
  }
  friend MaskD cmp_ne(VecD a, VecD b) {
    MaskD r;
    for (int l = 0; l < kLanesD; ++l) r.m[l] = !(a.v[l] == b.v[l]);
    return r;
  }

  friend VecD blend(MaskD m, VecD a, VecD b) {
    VecD r;
    for (int l = 0; l < kLanesD; ++l) r.v[l] = m.m[l] ? a.v[l] : b.v[l];
    return r;
  }

  double reduce_ordered() const {
    return ((v[0] + v[1]) + v[2]) + v[3];
  }

  friend VecI truncate(VecD a) {
    VecI r;
    for (int l = 0; l < kLanesD; ++l) r.v[l] = static_cast<int>(a.v[l]);
    return r;
  }
  static VecD from_int(VecI a) {
    VecD r;
    for (int l = 0; l < kLanesD; ++l) r.v[l] = static_cast<double>(a.v[l]);
    return r;
  }
};

inline void prefetch(const void* p) {
#if defined(__GNUC__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}

inline void load_fields4(const double* base, VecI idx, VecD& f0, VecD& f1,
                         VecD& f2, VecD& f3) {
  for (int l = 0; l < kLanesD; ++l) {
    const double* rec = base + idx.v[l];
    f0.v[l] = rec[0];
    f1.v[l] = rec[1];
    f2.v[l] = rec[2];
    f3.v[l] = rec[3];
  }
}

inline VecD cmul(VecD a, VecD b) {
  VecD r;
  for (int p = 0; p < kLanesD; p += 2) {
    const double ar = a.v[p], ai = a.v[p + 1];
    const double br = b.v[p], bi = b.v[p + 1];
    r.v[p] = ar * br - ai * bi;
    r.v[p + 1] = ai * br + ar * bi;
  }
  return r;
}

struct MaskF {
  bool m[kLanesF];

  static MaskF first_n(int n) {
    MaskF r;
    for (int l = 0; l < kLanesF; ++l) r.m[l] = l < n;
    return r;
  }
  bool any() const {
    for (bool b : m) {
      if (b) return true;
    }
    return false;
  }
  bool all() const {
    for (bool b : m) {
      if (!b) return false;
    }
    return true;
  }
  bool lane(int i) const { return m[i]; }
  int bits() const {
    int r = 0;
    for (int l = 0; l < kLanesF; ++l) r |= (m[l] ? 1 : 0) << l;
    return r;
  }
  friend MaskF operator&(MaskF a, MaskF b) {
    MaskF r;
    for (int l = 0; l < kLanesF; ++l) r.m[l] = a.m[l] && b.m[l];
    return r;
  }
  friend MaskF operator|(MaskF a, MaskF b) {
    MaskF r;
    for (int l = 0; l < kLanesF; ++l) r.m[l] = a.m[l] || b.m[l];
    return r;
  }
};

struct VecF {
  float v[kLanesF];

  static VecF zero() { return {{0, 0, 0, 0, 0, 0, 0, 0}}; }
  static VecF broadcast(float x) { return {{x, x, x, x, x, x, x, x}}; }
  static VecF loadu(const float* p) {
    VecF r;
    for (int l = 0; l < kLanesF; ++l) r.v[l] = p[l];
    return r;
  }
  void storeu(float* p) const {
    for (int l = 0; l < kLanesF; ++l) p[l] = v[l];
  }
  float lane(int i) const { return v[i]; }

  friend VecF operator+(VecF a, VecF b) {
    VecF r;
    for (int l = 0; l < kLanesF; ++l) r.v[l] = a.v[l] + b.v[l];
    return r;
  }
  friend VecF operator-(VecF a, VecF b) {
    VecF r;
    for (int l = 0; l < kLanesF; ++l) r.v[l] = a.v[l] - b.v[l];
    return r;
  }
  friend VecF operator*(VecF a, VecF b) {
    VecF r;
    for (int l = 0; l < kLanesF; ++l) r.v[l] = a.v[l] * b.v[l];
    return r;
  }
  friend VecF operator/(VecF a, VecF b) {
    VecF r;
    for (int l = 0; l < kLanesF; ++l) r.v[l] = a.v[l] / b.v[l];
    return r;
  }
  friend VecF fma(VecF a, VecF b, VecF c) {
    VecF r;
    for (int l = 0; l < kLanesF; ++l) {
      r.v[l] = std::fma(a.v[l], b.v[l], c.v[l]);
    }
    return r;
  }
  friend VecF sqrt(VecF a) {
    VecF r;
    for (int l = 0; l < kLanesF; ++l) r.v[l] = std::sqrt(a.v[l]);
    return r;
  }
  friend VecF min(VecF a, VecF b) {
    VecF r;
    for (int l = 0; l < kLanesF; ++l) {
      r.v[l] = a.v[l] < b.v[l] ? a.v[l] : b.v[l];
    }
    return r;
  }
  friend VecF max(VecF a, VecF b) {
    VecF r;
    for (int l = 0; l < kLanesF; ++l) {
      r.v[l] = a.v[l] > b.v[l] ? a.v[l] : b.v[l];
    }
    return r;
  }
  friend MaskF cmp_lt(VecF a, VecF b) {
    MaskF r;
    for (int l = 0; l < kLanesF; ++l) r.m[l] = a.v[l] < b.v[l];
    return r;
  }
  friend MaskF cmp_ge(VecF a, VecF b) {
    MaskF r;
    for (int l = 0; l < kLanesF; ++l) r.m[l] = a.v[l] >= b.v[l];
    return r;
  }
  friend VecF blend(MaskF m, VecF a, VecF b) {
    VecF r;
    for (int l = 0; l < kLanesF; ++l) r.v[l] = m.m[l] ? a.v[l] : b.v[l];
    return r;
  }
  float reduce_ordered() const {
    float acc = v[0];
    for (int l = 1; l < kLanesF; ++l) acc += v[l];
    return acc;
  }
};

struct VecI8 {
  int v[kLanesF];

  static VecI8 broadcast(int x) { return {{x, x, x, x, x, x, x, x}}; }
  static VecI8 loadu(const int* p) {
    VecI8 r;
    for (int l = 0; l < kLanesF; ++l) r.v[l] = p[l];
    return r;
  }
  int lane(int i) const { return v[i]; }
  friend MaskF cmp_eq(VecI8 a, VecI8 b) {
    MaskF r;
    for (int l = 0; l < kLanesF; ++l) r.m[l] = a.v[l] == b.v[l];
    return r;
  }
  friend MaskF cmp_gt(VecI8 a, VecI8 b) {
    MaskF r;
    for (int l = 0; l < kLanesF; ++l) r.m[l] = a.v[l] > b.v[l];
    return r;
  }
};

#endif  // ANTON_SIMD_AVX2

}  // namespace anton::simd
