// The exp, log and log1p kernel behind numerics/explog.hpp, written once as
// templates over T = double or F64x4 (numerics/lanes.hpp). Every operation
// is a correctly rounded IEEE add, subtract, multiply or divide, a bit
// move, or a lane select, in a fixed order with no fused multiply-add, so a
// lane of an F64x4 returns the same bits as the double instantiation, in
// the baseline build and in the AVX2 clone alike.
//
// Library-internal, like lanes.hpp: include it only from library sources,
// which compile with -ffp-contract=off.
#pragma once

#include <cstdint>
#include <limits>

#include "numerics/lanes.hpp"

namespace ptherm::numerics {

namespace explog_detail {

/// ln 2 split for Cody-Waite reduction: kLn2Hi has 32 significant bits, so
/// n * kLn2Hi is exact for every |n| < 2^21; kLn2Hi + kLn2Lo is ln 2 to
/// about 2^-86.
inline constexpr double kLn2Hi = 0x1.62e42fee00000p-1;
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
inline constexpr double kLog2e = 0x1.71547652b82fep0;
/// 1.5 * 2^52: x + kShift rounds x to an integer held in the low mantissa
/// bits, and (x + kShift) - kShift is that integer as a double.
inline constexpr double kShift = 0x1.8p52;
inline constexpr std::uint64_t kShiftBits = 0x4338000000000000;
/// Bits of sqrt(2)/2: log's reduction maps x to m in [sqrt(2)/2, sqrt(2)).
inline constexpr std::uint64_t kSqrtHalfBits = 0x3fe6a09e667f3bcd;
inline constexpr double kSqrtHalf = 0x1.6a09e667f3bcdp-1;
inline constexpr double kSqrt2 = 0x1.6a09e667f3bcdp0;
inline constexpr double kInf = std::numeric_limits<double>::infinity();
inline constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Lane-wise integer type of T: the bits of a double, or of an F64x4.
template <class T>
using Bits = decltype(bits(T{}));

/// 2^(j/128) rounded to double, and (2^(j/128) - hi) / hi (explog.cpp).
extern const double kExp2Hi[128];
extern const double kExp2Tail[128];

/// table[j] per lane.
PTHERM_LANES_INLINE double lookup(const double* table, std::uint64_t j) { return table[j]; }
PTHERM_LANES_INLINE F64x4 lookup(const double* table, const U64x4& j) {
  return F64x4::of(table[j.v[0]], table[j.v[1]], table[j.v[2]], table[j.v[3]]);
}

/// The integer held in the low 12 bits of `u`, read as a signed 12-bit value
/// (|k| < 2048), as an exact double.
template <class T>
PTHERM_LANES_INLINE T signed12_to_double(const Bits<T>& u) {
  // (k + 2048) & 0xfff is k + 2048 in [0, 4096); placing it in kShift's low
  // mantissa bits and subtracting kShift converts it exactly.
  const Bits<T> biased = ((u + std::uint64_t{0x800}) & std::uint64_t{0xfff}) + kShiftBits;
  return (from_bits(biased) - kShift) - 2048.0;
}

/// log(2^k (1 + f)) + c for f in [sqrt(2)/2 - 1, sqrt(2) - 1) and a small
/// correction c: fdlibm's reduction log(1 + f) = f - (f^2/2 - s (f^2/2 + R)),
/// s = f / (2 + f), R a degree-7 polynomial in s^2 (|error| < 2^-58.45).
template <class T>
PTHERM_LANES_INLINE T log_core(const T& f, const T& k, const T& c) {
  constexpr double kLg1 = 6.666666666666735130e-01;
  constexpr double kLg2 = 3.999999999940941908e-01;
  constexpr double kLg3 = 2.857142874366239149e-01;
  constexpr double kLg4 = 2.222219843214978396e-01;
  constexpr double kLg5 = 1.818357216161805012e-01;
  constexpr double kLg6 = 1.531383769920937332e-01;
  constexpr double kLg7 = 1.479819860511658591e-01;
  const T s = f / (2.0 + f);
  const T z = s * s;
  const T w = z * z;
  const T t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const T t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const T r = t2 + t1;
  const T hfsq = 0.5 * f * f;
  return k * kLn2Hi - ((hfsq - (s * (hfsq + r) + (k * kLn2Lo + c))) - f);
}

/// Splits a positive normal x into 2^k * m, m in [sqrt(2)/2, sqrt(2)):
/// returns f = m - 1 (exact) and sets k.
template <class T>
PTHERM_LANES_INLINE T reduce_log(const T& x, T& k) {
  const Bits<T> ix = bits(x);
  const Bits<T> tmp = ix - kSqrtHalfBits;
  k = signed12_to_double<T>(tmp >> 52);
  const Bits<T> iz = ix - (tmp & std::uint64_t{0xfff0000000000000});
  return from_bits(iz) - 1.0;
}

}  // namespace explog_detail

/// e^x. Cody-Waite reduction x = (128 n + j) ln(2)/128 + r, |r| <= ln(2)/256,
/// the table value 2^(j/128) (with the tail of its rounding) times the
/// degree-5 Taylor polynomial of e^r (truncation below 2^-60), scaled by
/// 2^n in two exact steps so that overflow, gradual underflow and the
/// subnormal range round once. exp(+-0) is exactly 1.
template <class T>
PTHERM_LANES_INLINE T exp_kernel(const T& x_in) {
  using namespace explog_detail;
  // Beyond [-746, 710] every result is 0 or inf; clamping keeps n in the
  // scale's range. A NaN compares false and passes through.
  const T x =
      select(x_in > 710.0, splat<T>(710.0), select(x_in < -746.0, splat<T>(-746.0), x_in));
  const T t = x * (128.0 * kLog2e) + kShift;
  const T kd = t - kShift;  // 128 n + j
  const T r = (x - kd * (kLn2Hi / 128.0)) - kd * (kLn2Lo / 128.0);
  const T r2 = r * r;
  const T p = r + (r2 * (0.5 + r * (1.0 / 6.0)) + (r2 * r2) * (1.0 / 24.0 + r * (1.0 / 120.0)));
  const Bits<T> ki = bits(t) - kShiftBits;  // 128 n + j, two's complement
  const Bits<T> j = ki & std::uint64_t{127};
  const T tmp = lookup(kExp2Tail, j) + p;
  // 2^n = 2^n1 * 2^n2 with n1 = floor((n + 2048) / 2) - 1024, n2 = n - n1:
  // both biased exponents lie in [484, 1536] for n in [-1077, 1025].
  const Bits<T> biased = (ki + std::uint64_t{2048 * 128}) >> 7;  // n + 2048
  const Bits<T> half = biased >> 1;
  const T scale1 = from_bits(bits(lookup(kExp2Hi, j)) + ((half - std::uint64_t{1024}) << 52));
  const T scale2 = from_bits((biased - half - std::uint64_t{1}) << 52);
  return (scale1 + scale1 * tmp) * scale2;
}

/// ln x. The exponent split x = 2^k m plus fdlibm's log(m) core, with
/// k ln 2 in two Cody-Waite parts. Subnormal x is scaled by 2^54 first;
/// log(+-0) = -inf, log(x < 0) = NaN, log(inf) = inf.
template <class T>
PTHERM_LANES_INLINE T log_kernel(const T& x_in) {
  using namespace explog_detail;
  const auto tiny = x_in < 0x1p-1022;
  const T x = select(tiny, x_in * 0x1p54, x_in);
  T k;
  const T f = reduce_log(x, k);
  k = select(tiny, k - 54.0, k);
  T y = log_core(f, k, splat<T>(0.0));
  y = select(x_in == kInf, splat<T>(kInf), y);
  y = select(x_in == 0.0, splat<T>(-kInf), y);
  y = select(x_in < 0.0, splat<T>(kNaN), y);
  return select(x_in != x_in, x_in, y);
}

/// ln(1 + x). Near zero (1 + x in [sqrt(2)/2, sqrt(2))) the core runs on x
/// itself; elsewhere on u = 1 + x with fdlibm's correction c / u for the
/// rounding of u. log1p(+-0) = +-0, log1p(-1) = -inf, log1p(x < -1) = NaN.
template <class T>
PTHERM_LANES_INLINE T log1p_kernel(const T& x) {
  using namespace explog_detail;
  const T u = 1.0 + x;
  T k;
  const T f_u = reduce_log(u, k);
  // The rounding error of u: 1 - (u - x) is exact for k > 0 and
  // x - (u - 1) for k <= 0; past 2^53 it no longer matters.
  const T c = select(u < 0x1p53, select(k > 0.0, 1.0 - (u - x), x - (u - 1.0)) / u,
                     splat<T>(0.0));
  const auto direct = (x > kSqrtHalf - 1.0) & (x < kSqrt2 - 1.0);
  const T zero = splat<T>(0.0);
  T y = log_core(select(direct, x, f_u), select(direct, zero, k), select(direct, zero, c));
  y = select(x == kInf, splat<T>(kInf), y);
  y = select(x == -1.0, splat<T>(-kInf), y);
  y = select(x < -1.0, splat<T>(kNaN), y);
  y = select(x == 0.0, x, y);
  return select(x != x, x, y);
}

}  // namespace ptherm::numerics
