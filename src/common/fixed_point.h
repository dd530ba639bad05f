// Deterministic fixed-point accumulation.
//
// Anton machines accumulate forces in fixed point so that sums are exactly
// associative: the result is bitwise identical regardless of the order in
// which contributions arrive over the network.  This is essential for an
// event-driven machine, where arrival order is timing-dependent.  We model
// the same scheme: a 64-bit signed accumulator with a compile-time binary
// scale.  With a 2^32 scale, the dynamic range is ±2^31 ≈ ±2.1e9 units with
// a resolution of 2.3e-10 — ample for forces in kcal/mol/Å.
#pragma once

#include <cstdint>
#include <limits>

#include "common/error.h"
#include "common/vec3.h"

namespace anton {

template <int FracBits = 32>
class Fixed {
  static_assert(FracBits > 0 && FracBits < 63);

 public:
  constexpr Fixed() = default;

  // Converts with round-half-away-from-zero, saturating at the int64 rails
  // (casting an out-of-range double to int64_t is undefined behaviour; the
  // hardware datapath this models clamps).  NaN maps to zero.
  static constexpr Fixed from_double(double v) {
    bool saturated = false;
    return convert(v, saturated);
  }
  static constexpr Fixed from_raw(int64_t raw) {
    Fixed f;
    f.raw_ = raw;
    return f;
  }

  constexpr double to_double() const {
    return static_cast<double>(raw_) / kScale;
  }
  constexpr int64_t raw() const { return raw_; }

  // Addition wraps on overflow like the hardware adder would.  Signed
  // overflow is undefined behaviour in C++, so the wrap is computed in
  // unsigned arithmetic (well-defined mod 2^64) and cast back.
  constexpr Fixed& operator+=(const Fixed& o) {
    raw_ = static_cast<int64_t>(static_cast<uint64_t>(raw_) +
                                static_cast<uint64_t>(o.raw_));
    return *this;
  }
  constexpr Fixed& operator-=(const Fixed& o) {
    raw_ = static_cast<int64_t>(static_cast<uint64_t>(raw_) -
                                static_cast<uint64_t>(o.raw_));
    return *this;
  }
  // Checked forms of += and of += from_double(v): the same bits, plus a
  // return value that is true when the sum lost the value — the addition
  // wrapped, or v saturated at a rail of the format.
  constexpr bool add_checked(const Fixed& o) {
    const uint64_t a = static_cast<uint64_t>(raw_);
    const uint64_t b = static_cast<uint64_t>(o.raw_);
    const uint64_t sum = a + b;
    raw_ = static_cast<int64_t>(sum);
    return (((a ^ sum) & (b ^ sum)) >> 63) != 0;
  }
  constexpr bool add_checked(double v) {
    bool saturated = false;
    const Fixed q = convert(v, saturated);
    return add_checked(q) | saturated;
  }
  friend constexpr Fixed operator+(Fixed a, const Fixed& b) { return a += b; }
  friend constexpr Fixed operator-(Fixed a, const Fixed& b) { return a -= b; }
  friend constexpr bool operator==(const Fixed& a, const Fixed& b) {
    return a.raw_ == b.raw_;
  }

  static constexpr double resolution() { return 1.0 / kScale; }
  static constexpr double max_magnitude() {
    return static_cast<double>(std::numeric_limits<int64_t>::max()) / kScale;
  }

 private:
  // from_double, also setting `saturated` when v lands on a rail.
  static constexpr Fixed convert(double v, bool& saturated) {
    Fixed f;
    const double scaled =
        v * kScale + (v >= 0 ? 0.5 : -0.5);  // anton-lint: allow(fixed-literal)
    // 2^63 is exactly representable as a double; any scaled value >= it (or
    // < -2^63) would overflow the cast.
    constexpr double kRail =
        static_cast<double>(std::numeric_limits<int64_t>::max());
    if (!(scaled == scaled)) {
      f.raw_ = 0;
    } else if (scaled >= kRail) {
      f.raw_ = std::numeric_limits<int64_t>::max();
      saturated = true;
    } else if (scaled < -kRail) {
      f.raw_ = std::numeric_limits<int64_t>::min();
      saturated = true;
    } else {
      f.raw_ = static_cast<int64_t>(scaled);
    }
    return f;
  }

  static constexpr double kScale = static_cast<double>(int64_t{1} << FracBits);
  int64_t raw_ = 0;
};

// Force accumulator: three fixed-point lanes.  Addition is exactly
// associative and commutative, so accumulation order cannot change results.
template <int FracBits = 32>
struct FixedVec3 {
  Fixed<FracBits> x, y, z;

  Vec3 to_vec3() const { return {x.to_double(), y.to_double(), z.to_double()}; }

  FixedVec3& operator+=(const FixedVec3& o) {
    x += o.x; y += o.y; z += o.z; return *this;
  }
  friend FixedVec3 operator+(FixedVec3 a, const FixedVec3& b) { return a += b; }
  friend bool operator==(const FixedVec3& a, const FixedVec3& b) {
    return a.x == b.x && a.y == b.y && a.z == b.z;
  }

  // Adds each lane's Fixed::from_double quantization of v; returns true when
  // a lane lost the value (see Fixed::add_checked).  All three lanes add.
  bool accumulate(const Vec3& v) {
    return x.add_checked(v.x) | y.add_checked(v.y) | z.add_checked(v.z);
  }
  // The same for a fixed-point addend.
  bool add_checked(const FixedVec3& o) {
    return x.add_checked(o.x) | y.add_checked(o.y) | z.add_checked(o.z);
  }
};

using ForceFixed = FixedVec3<32>;

}  // namespace anton
