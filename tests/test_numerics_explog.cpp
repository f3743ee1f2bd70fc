// Tests for the deterministic exp/log/log1p kernel (numerics/explog.hpp):
// its distance in ulp from the C library over the ranges the leakage model
// feeds it and over full-range sweeps, its special values (signed zeros,
// infinities, NaN, the overflow and underflow edges, subnormal log inputs),
// and bitwise agreement between the scalar functions, the baseline lane
// build and the AVX2 clone.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "numerics/explog.hpp"

namespace ptherm::numerics {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Distance in representable doubles between a and b (0 for two NaNs).
double ulp_distance(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return 0.0;
  if (a == b) return 0.0;
  if (std::isnan(a) || std::isnan(b) || std::isinf(a) || std::isinf(b)) return kInf;
  const auto ordered = [](double x) {
    const auto i = std::bit_cast<std::int64_t>(x);
    return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
  };
  return std::abs(static_cast<double>(ordered(a) - ordered(b)));
}

/// Largest ulp distance of f from g over `xs`.
template <class F, class G>
double worst_ulp(const std::vector<double>& xs, F f, G g) {
  double worst = 0.0;
  for (const double x : xs) worst = std::max(worst, ulp_distance(f(x), g(x)));
  return worst;
}

std::vector<double> uniform(double lo, double hi, int count, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(lo, hi);
  std::vector<double> xs(static_cast<std::size_t>(count));
  for (double& x : xs) x = u(rng);
  return xs;
}

/// e^u for u uniform in [lo, hi]: log-uniform positive values.
std::vector<double> log_uniform(double lo, double hi, int count, std::uint64_t seed) {
  std::vector<double> xs = uniform(lo, hi, count, seed);
  for (double& x : xs) x = std::exp(x);
  return xs;
}

/// Finite doubles from random bit patterns (subnormals included);
/// `positive` clears the sign bit.
std::vector<double> random_bits(int count, bool positive, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> xs;
  while (static_cast<int>(xs.size()) < count) {
    std::uint64_t b = rng();
    if (positive) b >>= 1;
    const double x = std::bit_cast<double>(b);
    if (std::isfinite(x)) xs.push_back(x);
  }
  return xs;
}

// The measured bounds: exp and log within 1 ulp of glibc, log1p within 2.
constexpr double kExpUlp = 1.0;
constexpr double kLogUlp = 1.0;
constexpr double kLog1pUlp = 2.0;

const auto kExp = [](double x) { return numerics::exp(x); };
const auto kLog = [](double x) { return numerics::log(x); };
const auto kLog1p = [](double x) { return numerics::log1p(x); };
const auto kStdExp = [](double x) { return std::exp(x); };
const auto kStdLog = [](double x) { return std::log(x); };
const auto kStdLog1p = [](double x) { return std::log1p(x); };

TEST(ExpLog, WithinUlpBoundOnTheLeakageModelsRanges) {
  // Arguments the leakage model produces: -VDD/VT and the Eq. (13)
  // exponent (about -60 .. 0), collapse_f and its negation (-40 .. 40), the
  // body-effect and dVT0 multipliers (-10 .. 10); log of width ratios; log1p
  // of exp(f) for f up to the softplus cut at 30.
  EXPECT_LE(worst_ulp(uniform(-60.0, 40.0, 200000, 1), kExp, kStdExp), kExpUlp);
  EXPECT_LE(worst_ulp(uniform(-10.0, 10.0, 200000, 2), kExp, kStdExp), kExpUlp);
  EXPECT_LE(worst_ulp(log_uniform(-7.0, 7.0, 200000, 3), kLog, kStdLog), kLogUlp);
  EXPECT_LE(worst_ulp(log_uniform(-40.0, 30.0, 200000, 4), kLog1p, kStdLog1p), kLog1pUlp);
}

TEST(ExpLog, WithinUlpBoundOverFullRangeSweeps) {
  // Every finite exp input whose result is neither 0 nor inf, the gradual
  // underflow range on its own, near 0, every positive double for log, and
  // every double for log1p (NaN where the C library gives NaN).
  EXPECT_LE(worst_ulp(uniform(-745.13, 709.78, 400000, 5), kExp, kStdExp), kExpUlp);
  EXPECT_LE(worst_ulp(uniform(-745.13, -708.0, 100000, 6), kExp, kStdExp), kExpUlp);
  EXPECT_LE(worst_ulp(uniform(-1e-6, 1e-6, 100000, 7), kExp, kStdExp), kExpUlp);
  EXPECT_LE(worst_ulp(random_bits(400000, true, 8), kLog, kStdLog), kLogUlp);
  EXPECT_LE(worst_ulp(uniform(0.5, 2.0, 200000, 9), kLog, kStdLog), kLogUlp);
  EXPECT_LE(worst_ulp(random_bits(400000, false, 10), kLog1p, kStdLog1p), kLog1pUlp);
  EXPECT_LE(worst_ulp(uniform(-1.0, 1.0, 200000, 11), kLog1p, kStdLog1p), kLog1pUlp);
  EXPECT_LE(worst_ulp(uniform(-1e-9, 1e-9, 100000, 12), kLog1p, kStdLog1p), kLog1pUlp);
}

TEST(ExpLog, ExpIsExactlyOneAtSignedZero) {
  // The nominal-adjustment shortcut (core::adjusted_leakage_power) relies
  // on exp(-0 / nVT) and exp(+0 / nVT) being exactly 1.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(numerics::exp(0.0)), std::bit_cast<std::uint64_t>(1.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(numerics::exp(-0.0)),
            std::bit_cast<std::uint64_t>(1.0));
}

TEST(ExpLog, SpecialValues) {
  EXPECT_EQ(numerics::exp(kInf), kInf);
  EXPECT_EQ(numerics::exp(-kInf), 0.0);
  EXPECT_TRUE(std::isnan(numerics::exp(kNaN)));
  // Overflow and underflow edges.
  EXPECT_EQ(numerics::exp(709.782712893384), std::exp(709.782712893384));
  EXPECT_EQ(numerics::exp(709.7827128933841), kInf);
  EXPECT_EQ(numerics::exp(1e300), kInf);
  EXPECT_EQ(numerics::exp(-745.1332191019411), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(numerics::exp(-745.1332191019412), 0.0);
  EXPECT_EQ(numerics::exp(-1e300), 0.0);
  EXPECT_EQ(numerics::exp(-708.3964185322641), std::exp(-708.3964185322641));

  EXPECT_EQ(numerics::log(0.0), -kInf);
  EXPECT_EQ(numerics::log(-0.0), -kInf);
  EXPECT_EQ(numerics::log(1.0), 0.0);
  EXPECT_EQ(numerics::log(kInf), kInf);
  EXPECT_TRUE(std::isnan(numerics::log(-1.0)));
  EXPECT_TRUE(std::isnan(numerics::log(-kInf)));
  EXPECT_TRUE(std::isnan(numerics::log(kNaN)));
  for (const double sub : {std::numeric_limits<double>::denorm_min(), 1e-310, 3e-320,
                           std::numeric_limits<double>::min() / 2.0}) {
    EXPECT_LE(ulp_distance(numerics::log(sub), std::log(sub)), kLogUlp) << sub;
  }
  EXPECT_LE(ulp_distance(numerics::log(std::numeric_limits<double>::max()),
                         std::log(std::numeric_limits<double>::max())),
            kLogUlp);

  EXPECT_EQ(std::bit_cast<std::uint64_t>(numerics::log1p(0.0)), std::bit_cast<std::uint64_t>(0.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(numerics::log1p(-0.0)),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(numerics::log1p(-1.0), -kInf);
  EXPECT_EQ(numerics::log1p(kInf), kInf);
  EXPECT_TRUE(std::isnan(numerics::log1p(-1.5)));
  EXPECT_TRUE(std::isnan(numerics::log1p(-kInf)));
  EXPECT_TRUE(std::isnan(numerics::log1p(kNaN)));
  EXPECT_EQ(numerics::log1p(std::numeric_limits<double>::denorm_min()),
            std::numeric_limits<double>::denorm_min());
  EXPECT_LE(ulp_distance(numerics::log1p(std::numeric_limits<double>::max()),
                         std::log1p(std::numeric_limits<double>::max())),
            kLog1pUlp);
}

/// Inputs for the lane builds: sweeps plus every special value, in a count
/// that is not a multiple of four.
std::vector<double> lane_inputs(double lo, double hi) {
  std::vector<double> xs = uniform(lo, hi, 4001, 13);
  for (const double x : {0.0, -0.0, kInf, -kInf, kNaN, 709.7827128933841, -745.1332191019411,
                         -708.4, 1e-310, std::numeric_limits<double>::denorm_min(), -1.0, -0.5,
                         1e300, -1e300}) {
    xs.push_back(x);
  }
  return xs;
}

void expect_same_bits(const std::vector<double>& a, const std::vector<double>& b,
                      const std::vector<double>& xs, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]), std::bit_cast<std::uint64_t>(b[i]))
        << what << " at x = " << xs[i];
  }
}

TEST(ExpLog, LaneBuildsReturnTheScalarBits) {
  // The baseline build against the scalar functions on every host; the
  // AVX2 clone against both where the CPU runs it.
  struct Case {
    const char* name;
    void (*lanes)(Isa, std::span<const double>, std::span<double>);
    double (*scalar)(double) noexcept;
    double lo, hi;
  };
  const Case cases[] = {{"exp", exp_lanes, numerics::exp, -750.0, 712.0},
                        {"log", log_lanes, numerics::log, -1.0, 1e6},
                        {"log1p", log1p_lanes, numerics::log1p, -1.5, 1e6}};
  for (const Case& c : cases) {
    const std::vector<double> xs = lane_inputs(c.lo, c.hi);
    std::vector<double> scalar(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) scalar[i] = c.scalar(xs[i]);
    std::vector<double> baseline(xs.size());
    c.lanes(Isa::Baseline, xs, baseline);
    expect_same_bits(baseline, scalar, xs, c.name);
    if (!isa_available(Isa::Avx2)) continue;
    std::vector<double> avx2(xs.size());
    c.lanes(Isa::Avx2, xs, avx2);
    expect_same_bits(avx2, baseline, xs, c.name);
  }
  if (!isa_available(Isa::Avx2)) GTEST_SKIP() << "no AVX2 clone on this CPU or build";
}

TEST(ExpLog, DispatchPicksAnAvailableBuild) {
  EXPECT_TRUE(isa_available(Isa::Baseline));
  EXPECT_TRUE(isa_available(dispatched_isa()));
#ifdef PTHERM_FORCE_BASELINE_ISA
  EXPECT_EQ(dispatched_isa(), Isa::Baseline);
#else
  EXPECT_EQ(dispatched_isa() == Isa::Avx2, isa_available(Isa::Avx2));
#endif
}

}  // namespace
}  // namespace ptherm::numerics
