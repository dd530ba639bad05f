#include "md/nonbonded.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/error.h"
#include "common/simd.h"
#include "common/units.h"
#include "obs/profiler.h"

namespace anton::md {

namespace {

constexpr double kTwoOverSqrtPi = 1.1283791670955126;

// Atom count below which threading overhead beats the parallel win.
constexpr size_t kSerialThreshold = 2048;

// Accumulator policies for the pair kernels.  The kernels compute each
// per-pair contribution (pure function of positions and parameters, so
// identical regardless of which thread evaluates it) and hand it to the
// accumulator, which decides the summation arithmetic:
//
//   DoubleAcc — the default double-precision path, op-for-op identical to
//     the pre-refactor kernel (per-atom fi register, f[j] scatter), so it is
//     deterministic for a fixed thread count and matches serial to ~1e-10.
//
//   FixedAcc — the deterministic mode: every contribution is quantized to
//     32.32 fixed point at accumulation.  Fixed addition is exactly
//     associative and commutative, so the reduced result is bitwise
//     identical for ANY thread count and chunking (the property Anton's
//     hardware adders provide by construction).  A contribution beyond the
//     format's range, or a sum that wraps, sets the partial's sticky
//     overflow flag, which the caller turns into an error after the
//     reduction.
struct DoubleAcc {
  std::span<Vec3> f;
  PairEnergyPartial e{};
  Vec3 fi{};

  void begin_atom(size_t) { fi = Vec3{}; }
  void end_atom(size_t i) { f[i] += fi; }
  void add_lj(double de) { e.lj += de; }
  void add_coul(double de) { e.coul += de; }
  void add_excl(double de) { e.excl += de; }
  // Half-list pair: i accumulates in the register, j scatters.
  void add_pair(size_t, size_t j, const Vec3& fv, double vir) {
    e.virial += vir;
    fi += fv;
    f[j] -= fv;
  }
  // Direct (exclusion-loop) pair: both sides scatter.
  void add_pair_direct(size_t i, size_t j, const Vec3& fv, double vir) {
    e.virial += vir;
    f[i] += fv;
    f[j] -= fv;
  }
};

struct FixedAcc {
  std::span<ForceFixed> f;
  PairEnergyPartialFixed e{};

  void begin_atom(size_t) {}
  void end_atom(size_t) {}
  void add_lj(double de) { e.overflow |= e.lj.add_checked(de); }
  void add_coul(double de) { e.overflow |= e.coul.add_checked(de); }
  void add_excl(double de) { e.overflow |= e.excl.add_checked(de); }
  void add_pair(size_t i, size_t j, const Vec3& fv, double vir) {
    e.overflow |= e.virial.add_checked(vir) | f[i].accumulate(fv) |
                  f[j].accumulate(-fv);
  }
  void add_pair_direct(size_t i, size_t j, const Vec3& fv, double vir) {
    add_pair(i, j, fv, vir);
  }
};

// Batch accumulator policies for the vectorized pair kernel.  The kernel
// hands over one W-lane chunk of per-pair contributions at a time (lanes
// beyond the neighbor-row tail, and lanes outside the cutoff, carry exact
// 0.0 in every component, so accumulating them is a bitwise no-op):
//
//   DoubleBatchAcc — vector partial accumulators for the i-row force and the
//     range energies, folded lane-by-lane in the fixed order
//     ((l0+l1)+l2)+l3 at row/range end.  Both SIMD backends run this same
//     lane structure, so the double path is ALSO bitwise identical across
//     ANTON_SIMD=avx2 and scalar (and deterministic for a fixed thread
//     count, as before).
//
//   FixedBatchAcc — the deterministic mode: each lane's contribution is
//     extracted and quantized to 32.32 fixed point individually, in lane
//     order, exactly as the scalar kernel quantizes per pair.  Fixed
//     addition is exactly associative, so the result is bitwise identical
//     for any thread count AND any backend.  Overflow is flagged as in
//     FixedAcc.
struct DoubleBatchAcc {
  std::span<Vec3> f;
  PairEnergyPartial e{};
  simd::VecD e_lj_v = simd::VecD::zero();
  simd::VecD e_c_v = simd::VecD::zero();
  simd::VecD vir_v = simd::VecD::zero();
  simd::VecD fi_x = simd::VecD::zero();
  simd::VecD fi_y = simd::VecD::zero();
  simd::VecD fi_z = simd::VecD::zero();
  Vec3 fi_tail{};  // scalar-fallback contributions to the i register

  void begin_atom(size_t) {
    fi_x = simd::VecD::zero();
    fi_y = simd::VecD::zero();
    fi_z = simd::VecD::zero();
    fi_tail = Vec3{};
  }
  void end_atom(size_t i) {
    f[i] += Vec3{fi_x.reduce_ordered(), fi_y.reduce_ordered(),
                 fi_z.reduce_ordered()} +
            fi_tail;
  }
  void add_chunk(size_t, const int* j, int cnt, simd::VecD fx, simd::VecD fy,
                 simd::VecD fz, simd::VecD e_lj, simd::VecD e_c,
                 simd::VecD vir) {
    e_lj_v = e_lj_v + e_lj;
    e_c_v = e_c_v + e_c;
    vir_v = vir_v + vir;
    fi_x = fi_x + fx;
    fi_y = fi_y + fy;
    fi_z = fi_z + fz;
    // Aligned spill buffers: the per-lane reads below are then fully
    // store-forwardable from the vector stores.
    alignas(32) double bx[simd::kLanesD];
    alignas(32) double by[simd::kLanesD];
    alignas(32) double bz[simd::kLanesD];
    fx.storeu(bx);
    fy.storeu(by);
    fz.storeu(bz);
    for (int l = 0; l < cnt; ++l) {
      f[static_cast<size_t>(j[l])] -= Vec3{bx[l], by[l], bz[l]};
    }
  }
  // Sub-table-floor lanes, evaluated analytically one at a time.
  void add_scalar(size_t, size_t j, const Vec3& fv, double e_c, double vir) {
    e.coul += e_c;
    e.virial += vir;
    fi_tail += fv;
    f[j] -= fv;
  }
  // Folds the vector partials into the scalar energy report (lane order).
  void finish() {
    e.lj += e_lj_v.reduce_ordered();
    e.coul += e_c_v.reduce_ordered();
    e.virial += vir_v.reduce_ordered();
  }
};

struct FixedBatchAcc {
  std::span<ForceFixed> f;
  PairEnergyPartialFixed e{};

  void begin_atom(size_t) {}
  void end_atom(size_t) {}
  void add_chunk(size_t i, const int* j, int cnt, simd::VecD fx, simd::VecD fy,
                 simd::VecD fz, simd::VecD e_lj, simd::VecD e_c,
                 simd::VecD vir) {
    alignas(32) double bx[simd::kLanesD];
    alignas(32) double by[simd::kLanesD];
    alignas(32) double bz[simd::kLanesD];
    alignas(32) double blj[simd::kLanesD];
    alignas(32) double bec[simd::kLanesD];
    alignas(32) double bvir[simd::kLanesD];
    fx.storeu(bx);
    fy.storeu(by);
    fz.storeu(bz);
    e_lj.storeu(blj);
    e_c.storeu(bec);
    vir.storeu(bvir);
    // Per-lane quantization in lane order: bitwise identical to the scalar
    // kernel's per-pair quantization (and exactly associative thereafter).
    bool overflow = false;
    for (int l = 0; l < cnt; ++l) {
      const Vec3 fv{bx[l], by[l], bz[l]};
      overflow |= e.lj.add_checked(blj[l]) | e.coul.add_checked(bec[l]) |
                  e.virial.add_checked(bvir[l]) |
                  f[i].accumulate(fv) |
                  f[static_cast<size_t>(j[l])].accumulate(-fv);
    }
    e.overflow |= overflow;
  }
  void add_scalar(size_t i, size_t j, const Vec3& fv, double e_c,
                  double vir) {
    e.overflow |= e.coul.add_checked(e_c) | e.virial.add_checked(vir) |
                  f[i].accumulate(fv) | f[j].accumulate(-fv);
  }
  void finish() {}
};

// Vectorized tabulated pair kernel over the i-range [begin, end): each
// i-row's neighbors are processed in W-lane SoA chunks (dx/dy/dz/q/type
// gathered by index from the workspace's staged position lanes), with the
// division-free minimum image, the premixed-LJ evaluation and the fused
// cubic-Hermite erfc lookup all running per lane through the simd wrapper.
// Ragged row tails are masked: inactive lanes duplicate a valid neighbor
// index (so gathers stay in-range) and have every contribution blended to
// exact 0.0.  Lanes under the table floor (r² < table_r2_min) are rare bad
// geometry; they are zeroed in the vector pass and re-evaluated analytically
// per lane, with the identical scalar expressions both backends compile.
template <class Acc>
void pair_kernel_simd(const Box& box, const ForceWorkspace& ws,
                      const NeighborList& nlist,
                      std::span<const int> types,
                      std::span<const double> charges, double alpha,
                      double cutoff2, size_t begin, size_t end, Acc& acc) {
  ANTON_HOT_NOALLOC();
  using simd::MaskD;
  using simd::VecD;
  using simd::VecI;
  constexpr int W = simd::kLanesD;

  const auto q_scaled = ws.scaled_charges();
  const int ntypes = ws.num_types();
  // LjMixed and CoulNode are 4-double records; all per-neighbor parameters
  // come in through simd::load_fields4 record loads (contiguous loads + an
  // in-register transpose), which on AVX2 are several times faster than the
  // equivalent hardware gathers and bitwise identical to them.
  const double* lj_base = reinterpret_cast<const double*>(&ws.lj(0, 0));
  const CoulTableView tab = ws.coul_ef();
  const double* tab_base = reinterpret_cast<const double*>(tab.nodes);
  const double* pxyzq = ws.soa_xyzq();
  const double* qp = charges.data();

  const Vec3 box_l = box.lengths();
  const VecD v_nlx = VecD::broadcast(-box_l.x);
  const VecD v_nly = VecD::broadcast(-box_l.y);
  const VecD v_nlz = VecD::broadcast(-box_l.z);
  const VecD v_inv_lx = VecD::broadcast(1.0 / box_l.x);
  const VecD v_inv_ly = VecD::broadcast(1.0 / box_l.y);
  const VecD v_inv_lz = VecD::broadcast(1.0 / box_l.z);
  const VecD v_cutoff2 = VecD::broadcast(cutoff2);
  const VecD v_r2min = VecD::broadcast(ws.table_r2_min());
  const VecD v_x0 = VecD::broadcast(tab.x0);
  const VecD v_inv_h = VecD::broadcast(tab.inv_h);
  const VecD v_h = VecD::broadcast(tab.h);
  const VecD v_nshift = VecD::broadcast(-ws.coul_shift());
  const VecD v_one = VecD::broadcast(1.0);
  const VecD v_two = VecD::broadcast(2.0);
  const VecD v_ntwo = VecD::broadcast(-2.0);
  const VecD v_three = VecD::broadcast(3.0);
  const VecD v_nthree = VecD::broadcast(-3.0);
  const VecD v_four = VecD::broadcast(4.0);
  const VecD v_24 = VecD::broadcast(24.0);
  const VecD v_zero = VecD::zero();
  const VecI vi_zero = VecI::broadcast(0);
  const VecI vi_four = VecI::broadcast(4);
  const VecI vi_nmax = VecI::broadcast(tab.n - 2);
  const MaskD m_full = MaskD::first_n(W);
  const double coul_shift = ws.coul_shift();
  const double table_r2_min = ws.table_r2_min();

  // Neighbors are processed in staged segments of kSeg: a first pass over
  // the segment computes min-image displacements, r² and the clamped table
  // record offsets; the second pass consumes the staged values.  Staging
  // changes no arithmetic and no accumulation order: every value is stored
  // and reloaded bit-exactly.
  constexpr int kSeg = 64;
  alignas(32) double sdx[kSeg], sdy[kSeg], sdz[kSeg], sr2[kSeg], sqj[kSeg];
  alignas(16) int sj[kSeg];    // padded neighbor indices
  alignas(16) int snode[kSeg];  // clamped table record offsets

  for (size_t i = begin; i < end; ++i) {
    const double* irec = pxyzq + 4 * i;
    const VecD pix = VecD::broadcast(irec[0]);
    const VecD piy = VecD::broadcast(irec[1]);
    const VecD piz = VecD::broadcast(irec[2]);
    const VecD qi = VecD::broadcast(q_scaled[i]);
    const VecI row_off = VecI::broadcast(types[i] * ntypes);
    // Whole-row LJ skip (e.g. water hydrogens): every lane of such a row
    // contributes exact +0.0 through the blends, so bypassing the division,
    // the type gather and the sr6 chain changes no bits.
    const bool lj_row_zero = ws.lj_row_zero(types[i]);
    acc.begin_atom(i);
    const auto nb = nlist.neighbors_of(static_cast<int>(i));
    const int* jp = nb.data();
    const size_t nn = nb.size();
    for (size_t seg = 0; seg < nn; seg += static_cast<size_t>(kSeg)) {
      const int seg_n = static_cast<int>(
          std::min(nn - seg, static_cast<size_t>(kSeg)));
      const int* jseg = jp + seg;

      // Pass 1: distances and table offsets.
      for (int c = 0; c < seg_n; c += W) {
        const int cnt = seg_n - c < W ? seg_n - c : W;
        // Pad the tail with a valid index so record loads stay in-range;
        // the padded lanes are masked out of every contribution in pass 2.
        if (cnt < W) {
          for (int l = 0; l < W; ++l) sj[c + l] = jseg[c + (l < cnt ? l : 0)];
        } else {
          VecI::loadu(jseg + c).storeu(sj + c);
        }
        const VecI j = VecI::loadu(sj + c);

        // One record load per neighbor chunk: x/y/z/charge transposed into
        // field vectors.
        VecD jx, jy, jz, jq;
        simd::load_fields4(pxyzq, j * vi_four, jx, jy, jz, jq);
        VecD dx = pix - jx;
        VecD dy = piy - jy;
        VecD dz = piz - jz;
        // Min-image as one fma per axis.  The explicit fma (single
        // rounding) is not bitwise the old mul-then-sub, but both backends
        // compute the identical fused expression, so cross-backend parity
        // holds.
        dx = fma(v_nlx, round_nearest(dx * v_inv_lx), dx);
        dy = fma(v_nly, round_nearest(dy * v_inv_ly), dy);
        dz = fma(v_nlz, round_nearest(dz * v_inv_lz), dz);
        const VecD r2 = fma(dx, dx, fma(dy, dy, dz * dz));
        dx.storeu(sdx + c);
        dy.storeu(sdy + c);
        dz.storeu(sdz + c);
        r2.storeu(sr2 + c);
        jq.storeu(sqj + c);
        const VecD s = (r2 - v_x0) * v_inv_h;
        const VecI k = min(max(truncate(s), vi_zero), vi_nmax);
        const VecI node = k * vi_four;
        node.storeu(snode + c);
      }

      // Pass 2: LJ + tabulated Coulomb on the staged chunks.
      for (int c = 0; c < seg_n; c += W) {
        const int cnt = seg_n - c < W ? seg_n - c : W;
        const int* jchunk = sj + c;
        const MaskD active = cnt < W ? MaskD::first_n(cnt) : m_full;
        const VecI j = VecI::loadu(jchunk);
        const VecD dx = VecD::loadu(sdx + c);
        const VecD dy = VecD::loadu(sdy + c);
        const VecD dz = VecD::loadu(sdz + c);
        const VecD r2 = VecD::loadu(sr2 + c);
        const MaskD in_range = active & cmp_lt(r2, v_cutoff2);
        if (!in_range.any()) continue;

        // Lennard-Jones from the premixed type-pair table.  eps == 0 rows
        // yield exact zeros, so no separate eps mask is needed;
        // out-of-range lanes are blended off (their inv_r2 may be inf).
        VecD f_lj = v_zero;
        VecD e_lj = v_zero;
        if (!lj_row_zero) {
          const VecD inv_r2 = v_one / r2;
          const VecI tj = VecI::gather(types.data(), j);
          VecD eps, sigma2, e_shift, lj_pad;
          simd::load_fields4(lj_base, (row_off + tj) * vi_four, eps, sigma2,
                             e_shift, lj_pad);
          const VecD sr2v = sigma2 * inv_r2;
          const VecD sr6 = sr2v * sr2v * sr2v;
          const VecD sr12 = sr6 * sr6;
          f_lj = blend(in_range, v_24 * eps * (v_two * sr12 - sr6) * inv_r2,
                       v_zero);
          e_lj = blend(in_range, v_four * eps * (sr12 - sr6) - e_shift,
                       v_zero);
        }

        // Screened Coulomb via the fused cubic-Hermite table: one staged
        // record offset, two record loads, one shared basis.  qq == 0 lanes
        // produce exact zeros through the final multiply.
        const VecD qq = qi * VecD::loadu(sqj + c);
        const VecD s = (r2 - v_x0) * v_inv_h;
        const VecI k = min(max(truncate(s), vi_zero), vi_nmax);
        const VecD t = s - VecD::from_int(k);
        const VecI node = VecI::loadu(snode + c);
        VecD a_ev, a_ed, a_fv, a_fd;
        VecD b_ev, b_ed, b_fv, b_fd;
        simd::load_fields4(tab_base, node, a_ev, a_ed, a_fv, a_fd);
        simd::load_fields4(tab_base, node + vi_four, b_ev, b_ed, b_fv, b_fd);
        // Hermite basis and both interpolants as fma chains: fewer uops
        // and shorter latency chains than the mul/add forms, and fused
        // identically by both backends.
        const VecD t2 = t * t;
        const VecD t3 = t2 * t;
        const VecD h00 = fma(v_two, t3, fma(v_nthree, t2, v_one));
        const VecD h10 = fma(v_ntwo, t2, t3 + t) * v_h;
        const VecD h01 = fma(v_ntwo, t3, v_three * t2);
        const VecD h11 = (t3 - t2) * v_h;
        const MaskD tab_m = in_range & cmp_ge(r2, v_r2min);
        const VecD e_c = blend(
            tab_m,
            qq * fma(h00, a_ev,
                     fma(h10, a_ed,
                         fma(h01, b_ev, fma(h11, b_ed, v_nshift)))),
            v_zero);
        const VecD f_c = blend(
            tab_m,
            qq * fma(h00, a_fv, fma(h10, a_fd, fma(h01, b_fv, h11 * b_fd))),
            v_zero);

        const VecD f_pair = f_lj + f_c;
        const VecD fx = f_pair * dx;
        const VecD fy = f_pair * dy;
        const VecD fz = f_pair * dz;
        const VecD vir = fma(dx, fx, fma(dy, fy, dz * fz));
        acc.add_chunk(i, jchunk, cnt, fx, fy, fz, e_lj, e_c, vir);

        // Analytic fallback for lanes that approached closer than the
        // table floor (bad initial geometry): identical scalar expressions
        // in both backends, so cross-backend parity is preserved.
        const MaskD fb = andnot(in_range, cmp_ge(r2, v_r2min));
        if (fb.any()) {
          for (int l = 0; l < cnt; ++l) {
            if (!fb.lane(l)) continue;
            const double r2l = r2.lane(l);
            if (!(r2l < table_r2_min)) continue;
            const double qql = q_scaled[i] * qp[jchunk[l]];
            if (qql == 0.0) continue;
            const double inv_r2l = 1.0 / r2l;
            const double r = std::sqrt(r2l);
            const double ar = alpha * r;
            const double erfc_ar = std::erfc(ar);
            const double e_cs = qql * (erfc_ar / r - coul_shift);
            const double f_cs =
                qql *
                (erfc_ar / r + kTwoOverSqrtPi * alpha * std::exp(-ar * ar)) *
                inv_r2l;
            const Vec3 d{dx.lane(l), dy.lane(l), dz.lane(l)};
            const Vec3 fv = f_cs * d;
            acc.add_scalar(i, static_cast<size_t>(jchunk[l]), fv, e_cs,
                           dot(d, fv));
          }
        }
      }
    }
    acc.end_atom(i);
  }
  acc.finish();
}

// Inner kernel over the i-range [begin, end); contributions flow through the
// accumulator policy.  All per-pair parameters come from the workspace
// caches (premixed LJ table, prescaled charges), so the loop reads flat SoA
// arrays only.
template <class Acc>
void pair_kernel(const Box& box, const ForceWorkspace& ws,
                 const NeighborList& nlist, std::span<const Vec3> pos,
                 std::span<const int> types, std::span<const double> charges,
                 double alpha, double cutoff2, size_t begin, size_t end,
                 Acc& acc) {
  ANTON_HOT_NOALLOC();
  const auto q_scaled = ws.scaled_charges();
  const double coul_shift = ws.coul_shift();
  const int ntypes = ws.num_types();
  const LjMixed* lj_table = &ws.lj(0, 0);
  // Minimum-image applied inline with precomputed reciprocal box lengths:
  // nearbyint(d * 1/L) instead of nearbyint(d / L) removes three double
  // divisions per candidate pair, which -O2 cannot do on its own.
  const Vec3 box_l = box.lengths();
  const Vec3 inv_l{1.0 / box_l.x, 1.0 / box_l.y, 1.0 / box_l.z};

  for (size_t i = begin; i < end; ++i) {
    const Vec3 pi = pos[i];
    const double qi = q_scaled[i];
    const LjMixed* lj_row = lj_table + types[i] * ntypes;
    acc.begin_atom(i);
    for (int j : nlist.neighbors_of(static_cast<int>(i))) {
      Vec3 d = pi - pos[static_cast<size_t>(j)];
      d.x -= box_l.x * std::nearbyint(d.x * inv_l.x);
      d.y -= box_l.y * std::nearbyint(d.y * inv_l.y);
      d.z -= box_l.z * std::nearbyint(d.z * inv_l.z);
      const double r2 = norm2(d);
      if (r2 >= cutoff2) continue;
      double f_pair = 0.0;

      // Lennard-Jones from the premixed type-pair table.
      const LjMixed& lj = lj_row[types[static_cast<size_t>(j)]];
      if (lj.eps > 0) {
        const double inv_r2 = 1.0 / r2;
        const double sr2 = lj.sigma2 * inv_r2;
        const double sr6 = sr2 * sr2 * sr2;
        f_pair += 24.0 * lj.eps * (2.0 * sr6 * sr6 - sr6) * inv_r2;
        acc.add_lj(4.0 * lj.eps * (sr6 * sr6 - sr6) - lj.e_shift);
      }

      // Coulomb (screened when alpha > 0).
      const double qq = qi * charges[static_cast<size_t>(j)];
      if (qq != 0.0) {
        double e_c, f_c;
        const double inv_r2 = 1.0 / r2;
        const double r = std::sqrt(r2);
        if (alpha > 0) {
          const double ar = alpha * r;
          const double erfc_ar = std::erfc(ar);
          e_c = qq * (erfc_ar / r - coul_shift);
          f_c = qq *
                (erfc_ar / r +
                 kTwoOverSqrtPi * alpha * std::exp(-ar * ar)) *
                inv_r2;
        } else {
          e_c = qq * (1.0 / r - coul_shift);
          f_c = qq / r * inv_r2;
        }
        acc.add_coul(e_c);
        f_pair += f_c;
      }

      const Vec3 fv = f_pair * d;
      acc.add_pair(i, static_cast<size_t>(j), fv, dot(d, fv));
    }
    acc.end_atom(i);
  }
}

// Excluded-pair correction kernel over the i-range [begin, end).
template <class Acc>
void excluded_kernel(const Box& box, const Topology& top,
                     std::span<const Vec3> pos, double alpha, size_t begin,
                     size_t end, Acc& acc) {
  ANTON_HOT_NOALLOC();
  const Vec3 box_l = box.lengths();
  const Vec3 inv_l{1.0 / box_l.x, 1.0 / box_l.y, 1.0 / box_l.z};
  for (size_t i = begin; i < end; ++i) {
    const double qi = units::kCoulomb * top.charge(static_cast<int>(i));
    if (qi == 0.0) continue;
    for (int j : top.exclusions_of(static_cast<int>(i))) {
      const double qq = qi * top.charge(j);
      if (qq == 0.0) continue;
      Vec3 d = pos[i] - pos[static_cast<size_t>(j)];
      d.x -= box_l.x * std::nearbyint(d.x * inv_l.x);
      d.y -= box_l.y * std::nearbyint(d.y * inv_l.y);
      d.z -= box_l.z * std::nearbyint(d.z * inv_l.z);
      const double r2 = norm2(d);
      const double r = std::sqrt(r2);
      const double ar = alpha * r;
      const double erf_ar = std::erf(ar);
      // Subtract E = qq erf(ar)/r.
      acc.add_excl(-qq * erf_ar / r);
      // F_i for energy -qq erf(ar)/r: gradient of erf/r is
      // (2a/sqrt(pi) exp(-a²r²) r - erf(ar)) / r²  along r̂.
      const double f_mag =
          -qq *
          (erf_ar / r - kTwoOverSqrtPi * alpha * std::exp(-ar * ar)) / r2;
      const Vec3 fv = f_mag * d;
      acc.add_pair_direct(i, static_cast<size_t>(j), fv, dot(d, fv));
    }
  }
}

// Zero-restoring reduction: folds every per-thread buffer into `forces` and
// leaves the buffers zeroed for the next evaluation.  Summation order over t
// is fixed, so results are deterministic for a fixed thread count.
void reduce_thread_forces(ThreadPool* pool, ForceWorkspace* ws, unsigned T,
                          std::span<Vec3> forces) {
  ANTON_HOT_NOALLOC();
  pool->parallel_for(forces.size(), [&](size_t b, size_t e) {
    for (unsigned t = 0; t < T; ++t) {
      auto buf = ws->thread_force(t);
      for (size_t i = b; i < e; ++i) {
        forces[i] += buf[i];
        buf[i] = Vec3{};
      }
    }
  });
}

// Fixed-point twin: sums the per-thread fixed accumulators exactly (order
// cannot matter), converts once to double, and zero-restores the buffers.
// Returns the energy partials summed over threads, with their overflow flag
// also set when a cross-thread force sum wrapped.
PairEnergyPartialFixed reduce_thread_forces_fixed(ThreadPool* pool,
                                                  ForceWorkspace* ws,
                                                  unsigned T,
                                                  std::span<Vec3> forces) {
  ANTON_HOT_NOALLOC();
  std::atomic<bool> wrapped{false};
  auto fold = [&](size_t b, size_t e) {
    bool w = false;
    for (size_t i = b; i < e; ++i) {
      ForceFixed sum{};
      for (unsigned t = 0; t < T; ++t) {
        auto buf = ws->thread_force_fixed(t);
        w |= sum.add_checked(buf[i]);
        buf[i] = ForceFixed{};
      }
      forces[i] += sum.to_vec3();
    }
    if (w) wrapped.store(true, std::memory_order_relaxed);
  };
  if (pool != nullptr) {
    pool->parallel_for(forces.size(), fold);
  } else {
    fold(0, forces.size());
  }
  PairEnergyPartialFixed e{};
  for (unsigned t = 0; t < T; ++t) e += ws->partial_fixed(t);
  e.overflow |= wrapped.load(std::memory_order_relaxed);
  return e;
}

// Raised after a fixed-point reduction that lost a value: the result would
// be silently clamped or wrapped, so no part of it is returned.
void check_fixed_range(const PairEnergyPartialFixed& e, const char* what) {
  ANTON_CHECK_MSG(!e.overflow,
                  what << ": a force, energy or virial term left the 32.32 "
                          "fixed-point range of deterministic_forces (|value| "
                          "< 2^31 = "
                       << Fixed<32>::max_magnitude()
                       << "); the input likely has atoms in a clash");
}

}  // namespace

void compute_nonbonded(const Box& box, const Topology& top,
                       const NeighborList& nlist, std::span<const Vec3> pos,
                       double alpha, std::span<Vec3> forces,
                       EnergyReport& energy, ThreadPool* pool,
                       bool shift_at_cutoff, ForceWorkspace* ws,
                       bool tabulate_erfc, bool deterministic,
                       obs::Stat* thread_stat) {
  ANTON_CHECK(nlist.built());
  ANTON_CHECK(nlist.num_atoms() == top.num_atoms());
  const double cutoff = nlist.cutoff();
  const double cutoff2 = cutoff * cutoff;
  const size_t n = pos.size();

  ForceWorkspace local;
  if (ws == nullptr) ws = &local;
  ws->build_cache(top, alpha, cutoff, shift_at_cutoff, tabulate_erfc);

  const auto types = top.types();
  const auto charges = top.charges();
  // The vectorized kernel reads per-neighbor [x y z q] records from the
  // workspace's interleaved staging.
  if (tabulate_erfc) ws->stage_positions(pos, charges);

  if (deterministic) {
    // Fixed-point accumulation: any chunking gives the same bits, so serial
    // and threaded paths share one code path over the per-thread buffers.
    const unsigned T =
        (pool == nullptr || n < kSerialThreshold) ? 1 : pool->size();
    ws->ensure_fixed_threads(T, n);
    auto run_fixed = [&](size_t begin, size_t end, unsigned t) {
      if (tabulate_erfc) {
        FixedBatchAcc acc{ws->thread_force_fixed(t)};
        pair_kernel_simd(box, *ws, nlist, types, charges, alpha, cutoff2,
                         begin, end, acc);
        ws->partial_fixed(t) = acc.e;
      } else {
        FixedAcc acc{ws->thread_force_fixed(t)};
        pair_kernel(box, *ws, nlist, pos, types, charges, alpha, cutoff2,
                    begin, end, acc);
        ws->partial_fixed(t) = acc.e;
      }
    };
    if (T <= 1) {
      const double w0 = thread_stat != nullptr ? obs::wall_seconds() : 0.0;
      run_fixed(0, n, 0);
      if (thread_stat != nullptr) thread_stat->add(obs::wall_seconds() - w0);
    } else {
      // Pair-balanced chunking (see the double path below for rationale).
      auto& bounds = ws->chunk_bounds();
      const auto starts = nlist.starts();
      const int64_t total = nlist.num_pairs();
      bounds[0] = 0;
      for (unsigned t = 1; t < T; ++t) {
        const int64_t target = total * static_cast<int64_t>(t) / T;
        const size_t b = static_cast<size_t>(
            std::lower_bound(starts.begin(), starts.end(), target) -
            starts.begin());
        bounds[t] = std::clamp(b, bounds[t - 1], n);
      }
      bounds[T] = n;
      pool->for_each_thread([&](unsigned t) {
        const double w0 =
            thread_stat != nullptr ? obs::wall_seconds() : 0.0;
        if (bounds[t] < bounds[t + 1]) {
          run_fixed(bounds[t], bounds[t + 1], t);
        } else {
          ws->partial_fixed(t) = PairEnergyPartialFixed{};
        }
        if (thread_stat != nullptr)
          thread_stat->add(obs::wall_seconds() - w0);
      });
    }
    const PairEnergyPartialFixed e =
        reduce_thread_forces_fixed(T > 1 ? pool : nullptr, ws, T, forces);
    check_fixed_range(e, "compute_nonbonded");
    energy.lj += e.lj.to_double();
    energy.coulomb_real += e.coul.to_double();
    energy.virial += e.virial.to_double();
    return;
  }

  auto run = [&](size_t begin, size_t end,
                 std::span<Vec3> f) -> PairEnergyPartial {
    if (tabulate_erfc) {
      DoubleBatchAcc acc{f};
      pair_kernel_simd(box, *ws, nlist, types, charges, alpha, cutoff2, begin,
                       end, acc);
      return acc.e;
    }
    DoubleAcc acc{f};
    pair_kernel(box, *ws, nlist, pos, types, charges, alpha, cutoff2, begin,
                end, acc);
    return acc.e;
  };

  if (pool == nullptr || pool->size() <= 1 || n < kSerialThreshold) {
    const double w0 = thread_stat != nullptr ? obs::wall_seconds() : 0.0;
    const PairEnergyPartial e = run(0, n, forces);
    if (thread_stat != nullptr) thread_stat->add(obs::wall_seconds() - w0);
    energy.lj += e.lj;
    energy.coulomb_real += e.coul;
    energy.virial += e.virial;
    return;
  }

  const unsigned T = pool->size();
  ws->ensure_threads(T, n);

  // Pair-balanced chunking: the half-list CSR front-loads neighbours onto
  // low atom indices, so equal atom ranges starve the high threads.  Split
  // atoms at equal cumulative-pair quantiles of starts_ instead.
  auto& bounds = ws->chunk_bounds();
  const auto starts = nlist.starts();
  const int64_t total = nlist.num_pairs();
  bounds[0] = 0;
  for (unsigned t = 1; t < T; ++t) {
    const int64_t target = total * static_cast<int64_t>(t) / T;
    const size_t b = static_cast<size_t>(
        std::lower_bound(starts.begin(), starts.end(), target) -
        starts.begin());
    bounds[t] = std::clamp(b, bounds[t - 1], n);
  }
  bounds[T] = n;

  pool->for_each_thread([&](unsigned t) {
    const double w0 = thread_stat != nullptr ? obs::wall_seconds() : 0.0;
    ws->partial(t) = bounds[t] < bounds[t + 1]
                         ? run(bounds[t], bounds[t + 1], ws->thread_force(t))
                         : PairEnergyPartial{};
    if (thread_stat != nullptr) thread_stat->add(obs::wall_seconds() - w0);
  });

  reduce_thread_forces(pool, ws, T, forces);

  for (unsigned t = 0; t < T; ++t) {
    energy.lj += ws->partial(t).lj;
    energy.coulomb_real += ws->partial(t).coul;
    energy.virial += ws->partial(t).virial;
  }
}

double ewald_self_energy(const Topology& top, double alpha) {
  double q2 = 0;
  for (double q : top.charges()) q2 += q * q;
  return -units::kCoulomb * alpha / std::sqrt(M_PI) * q2;
}

void compute_excluded_correction(const Box& box, const Topology& top,
                                 std::span<const Vec3> pos, double alpha,
                                 std::span<Vec3> forces, EnergyReport& energy,
                                 ThreadPool* pool, ForceWorkspace* ws,
                                 bool deterministic) {
  const size_t n = pos.size();

  if (deterministic) {
    ForceWorkspace local;
    if (ws == nullptr) ws = &local;
    const unsigned T =
        (pool == nullptr || n < kSerialThreshold) ? 1 : pool->size();
    ws->ensure_fixed_threads(T, n);
    auto run_fixed = [&](size_t begin, size_t end, unsigned t) {
      FixedAcc acc{ws->thread_force_fixed(t)};
      excluded_kernel(box, top, pos, alpha, begin, end, acc);
      ws->partial_fixed(t) = acc.e;
    };
    if (T <= 1) {
      run_fixed(0, n, 0);
    } else {
      const size_t chunk = (n + T - 1) / T;
      pool->for_each_thread([&](unsigned t) {
        const size_t begin = std::min(n, static_cast<size_t>(t) * chunk);
        const size_t end = std::min(n, begin + chunk);
        if (begin < end) {
          run_fixed(begin, end, t);
        } else {
          ws->partial_fixed(t) = PairEnergyPartialFixed{};
        }
      });
    }
    const PairEnergyPartialFixed e =
        reduce_thread_forces_fixed(T > 1 ? pool : nullptr, ws, T, forces);
    check_fixed_range(e, "compute_excluded_correction");
    energy.coulomb_excl += e.excl.to_double();
    energy.virial += e.virial.to_double();
    return;
  }

  if (pool == nullptr || pool->size() <= 1 || ws == nullptr ||
      n < kSerialThreshold) {
    DoubleAcc acc{forces};
    excluded_kernel(box, top, pos, alpha, 0, n, acc);
    energy.coulomb_excl += acc.e.excl;
    energy.virial += acc.e.virial;
    return;
  }

  const unsigned T = pool->size();
  ws->ensure_threads(T, n);
  // Exclusions are uniform across atoms (dominated by water), so static atom
  // chunks balance fine here.
  const size_t chunk = (n + T - 1) / T;
  pool->for_each_thread([&](unsigned t) {
    const size_t begin = std::min(n, static_cast<size_t>(t) * chunk);
    const size_t end = std::min(n, begin + chunk);
    if (begin < end) {
      DoubleAcc acc{ws->thread_force(t)};
      excluded_kernel(box, top, pos, alpha, begin, end, acc);
      ws->partial(t) = acc.e;
    } else {
      ws->partial(t) = PairEnergyPartial{};
    }
  });

  reduce_thread_forces(pool, ws, T, forces);

  for (unsigned t = 0; t < T; ++t) {
    energy.coulomb_excl += ws->partial(t).excl;
    energy.virial += ws->partial(t).virial;
  }
}

}  // namespace anton::md
