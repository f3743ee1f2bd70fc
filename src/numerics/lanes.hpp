// Four-lane doubles for library kernels: a GCC/Clang vector type behind a
// struct, the lanewise operators the kernels use, and the macro that marks
// a function's AVX2 clone.
//
// Library-internal: include it only from library sources, which compile
// with -ffp-contract=off, so that every lane rounds exactly as the scalar
// expression it mirrors. Kernels are written once as templates over T =
// double or F64x4; each operator below does per lane what the double
// operator does, with the same rounding.
#pragma once

#include <bit>
#include <cstdint>

namespace ptherm::numerics {

// Everything that takes or returns lanes is inlined into its caller, so that
// a function compiled for AVX2 runs its lanes in AVX2 registers.
#define PTHERM_LANES_INLINE [[gnu::always_inline]] inline

// The AVX2 clone of a lane kernel: GCC/Clang on x86 only. Elsewhere there is
// the baseline build alone.
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define PTHERM_HAVE_AVX2_CLONE 1
#define PTHERM_TARGET_AVX2 __attribute__((target("avx2")))
#else
#define PTHERM_HAVE_AVX2_CLONE 0
#define PTHERM_TARGET_AVX2
#endif

/// Four doubles. A struct around the vector type, passed by reference: a
/// 32-byte vector passed by value has no register ABI without AVX.
struct F64x4 {
  using Raw = double __attribute__((vector_size(32)));
  Raw v;

  PTHERM_LANES_INLINE static F64x4 splat(double x) { return {Raw{x, x, x, x}}; }
  PTHERM_LANES_INLINE static F64x4 of(double a, double b, double c, double d) {
    return {Raw{a, b, c, d}};
  }
  PTHERM_LANES_INLINE double operator[](int k) const { return v[k]; }
};

/// Four 64-bit patterns (the bits of an F64x4).
struct U64x4 {
  using Raw = std::uint64_t __attribute__((vector_size(32)));
  Raw v;
};

/// Four lane conditions: all ones where true.
struct Mask4 {
  using Raw = std::int64_t __attribute__((vector_size(32)));
  Raw v;
};

#define PTHERM_LANES_BINARY(Type, Scalar, op)                                          \
  PTHERM_LANES_INLINE Type operator op(const Type& a, const Type& b) { return {a.v op b.v}; } \
  PTHERM_LANES_INLINE Type operator op(const Type& a, Scalar b) { return {a.v op b}; }        \
  PTHERM_LANES_INLINE Type operator op(Scalar a, const Type& b) { return {a op b.v}; }
PTHERM_LANES_BINARY(F64x4, double, +)
PTHERM_LANES_BINARY(F64x4, double, -)
PTHERM_LANES_BINARY(F64x4, double, *)
PTHERM_LANES_BINARY(F64x4, double, /)
PTHERM_LANES_BINARY(U64x4, std::uint64_t, +)
PTHERM_LANES_BINARY(U64x4, std::uint64_t, -)
PTHERM_LANES_BINARY(U64x4, std::uint64_t, &)
PTHERM_LANES_BINARY(Mask4, std::int64_t, &)
#undef PTHERM_LANES_BINARY

PTHERM_LANES_INLINE F64x4 operator-(const F64x4& a) { return {-a.v}; }
PTHERM_LANES_INLINE F64x4& operator+=(F64x4& a, const F64x4& b) {
  a.v += b.v;
  return a;
}
PTHERM_LANES_INLINE U64x4 operator<<(const U64x4& a, int s) { return {a.v << s}; }
/// Logical shift: the lanes are unsigned.
PTHERM_LANES_INLINE U64x4 operator>>(const U64x4& a, int s) { return {a.v >> s}; }

#define PTHERM_LANES_COMPARE(op)                                                           \
  PTHERM_LANES_INLINE Mask4 operator op(const F64x4& a, const F64x4& b) { return {a.v op b.v}; } \
  PTHERM_LANES_INLINE Mask4 operator op(const F64x4& a, double b) { return {a.v op b}; }
PTHERM_LANES_COMPARE(<)
PTHERM_LANES_COMPARE(>)
PTHERM_LANES_COMPARE(==)
PTHERM_LANES_COMPARE(!=)
#undef PTHERM_LANES_COMPARE

/// The bits of x, and back.
PTHERM_LANES_INLINE std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }
PTHERM_LANES_INLINE double from_bits(std::uint64_t u) { return std::bit_cast<double>(u); }
PTHERM_LANES_INLINE U64x4 bits(const F64x4& x) { return {__builtin_bit_cast(U64x4::Raw, x.v)}; }
PTHERM_LANES_INLINE F64x4 from_bits(const U64x4& u) { return {__builtin_bit_cast(F64x4::Raw, u.v)}; }

/// m ? a : b, per lane.
PTHERM_LANES_INLINE double select(bool m, double a, double b) { return m ? a : b; }
PTHERM_LANES_INLINE F64x4 select(const Mask4& m, const F64x4& a, const F64x4& b) {
  return {m.v ? a.v : b.v};
}

/// T with every lane x.
template <class T>
PTHERM_LANES_INLINE T splat(double x) {
  if constexpr (sizeof(T) == sizeof(double)) {
    return x;
  } else {
    return T::splat(x);
  }
}

/// Lane k of x (x itself for a double).
PTHERM_LANES_INLINE double lane(double x, int) { return x; }
PTHERM_LANES_INLINE double lane(const F64x4& x, int k) { return x[k]; }

}  // namespace ptherm::numerics
