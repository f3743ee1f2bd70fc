// Tests for numerics/fixed_point.hpp on scalar affine maps T <- a + g T: the
// safeguarded Picard step never damps a contraction, rescues an overshooting
// map with the safeguard's relaxation, flags a diverging one, and fails on a
// non-finite residual instead of dropping it.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "numerics/fixed_point.hpp"

namespace ptherm::numerics {
namespace {

constexpr double kA = 1.0;

/// One safeguarded step of T <- kA + g T on a scalar; returns the residual.
double step(SafeguardedPicard& guard, double g, double& x) {
  const double target = kA + g * x;
  return guard.step({&x, 1}, {&target, 1});
}

TEST(SafeguardedPicard, ContractionNeverDampsAndMatchesPlainPicardBitwise) {
  const double g = 0.5;
  SafeguardedPicard guard(0.7, 10);
  double x = 0.0;
  double plain = 0.0;
  double r = 1.0;
  for (int k = 0; k < 200 && r > 1e-12; ++k) {
    r = step(guard, g, x);
    const double target = kA + g * plain;
    plain = plain + 1.0 * (target - plain);
    ASSERT_EQ(x, plain) << "step " << k;  // so w stayed 1
    ASSERT_FALSE(guard.diverging()) << "step " << k;
  }
  EXPECT_LE(r, 1e-12);
  EXPECT_NEAR(x, kA / (1.0 - g), 1e-11);
  EXPECT_NEAR(guard.contraction(), g, 1e-6);
}

TEST(SafeguardedPicard, OvershootingMapEngagesTheSafeguardAndConverges) {
  const double g = -1.5;
  const double fixed = kA / (1.0 - g);
  // Undamped, the error flips sign and grows 1.5x per step.
  SafeguardedPicard undamped(1.0, 10);
  double y = 0.0;
  for (int k = 0; k < 11; ++k) step(undamped, g, y);
  EXPECT_TRUE(undamped.diverging());
  EXPECT_NEAR(undamped.contraction(), 1.5, 1e-9);

  // Safeguarded: the second residual grows (1.5 >= 1), so w = 0.7 from then
  // on and the error contracts by |1 - 0.7 + 0.7 g| = 0.75 per step.
  SafeguardedPicard guard(0.7, 10);
  double x = 0.0;
  step(guard, g, x);
  EXPECT_EQ(x, 1.0);  // w = 1: x jumps to the first target
  step(guard, g, x);
  EXPECT_EQ(x, 1.0 + 0.7 * ((kA + g * 1.0) - 1.0));  // w = 0.7
  double r = 1.0;
  int steps = 2;
  while (r > 1e-10 && steps < 200) {
    const double before = x;
    r = step(guard, g, x);
    ++steps;
    ASSERT_EQ(x, before + 0.7 * ((kA + g * before) - before))
        << "the safeguard stays engaged, step " << steps;
    ASSERT_FALSE(guard.diverging()) << "step " << steps;
  }
  EXPECT_LE(r, 1e-10);
  EXPECT_NEAR(x, fixed, 1e-9);
  EXPECT_NEAR(guard.contraction(), 0.75, 1e-6);
}

TEST(SafeguardedPicard, GrowingMapIsFlaggedAfterTheStreak) {
  const double g = 1.2;  // no fixed point to reach: runaway
  SafeguardedPicard guard(0.7, 10);
  double x = 0.0;
  // The first step sets r_0; each of the next ten grows the residual.
  for (int k = 0; k < 10; ++k) {
    step(guard, g, x);
    ASSERT_FALSE(guard.diverging()) << "step " << k;
  }
  step(guard, g, x);
  EXPECT_TRUE(guard.diverging());
  // Damped factor 1 - 0.7 + 0.7 * 1.2 = 1.14: still not contracting.
  EXPECT_NEAR(guard.contraction(), 1.14, 1e-9);
}

TEST(SafeguardedPicard, ContractionIsZeroBeforeTheSecondStep) {
  SafeguardedPicard guard(0.7, 10);
  double x = 0.0;
  EXPECT_EQ(step(guard, 0.5, x), kA);  // r_0 = |a + g * 0 - 0|
  EXPECT_EQ(guard.contraction(), 0.0);
}

TEST(SafeguardedPicard, NonFiniteTargetFailsTheStepAndKeepsTheIterate) {
  // std::max(r, NaN) would return r and hide the NaN; the step must not.
  for (const double bad : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    SafeguardedPicard guard(0.7, 10);
    std::vector<double> x{1.0, 2.0, 3.0};
    EXPECT_EQ(guard.step(x, std::vector<double>{1.5, 2.5, 3.5}), 0.5);
    EXPECT_FALSE(guard.failed());
    const std::vector<double> before = x;
    // The bad entry sits between finite ones: a later finite difference
    // must not overwrite it.
    const double r = guard.step(x, std::vector<double>{1.0, bad, 3.0});
    EXPECT_FALSE(std::isfinite(r)) << bad;
    EXPECT_EQ(std::isnan(r), std::isnan(bad));
    EXPECT_TRUE(guard.failed());
    EXPECT_EQ(x, before) << "a failed step must not move the iterate";
  }
}

}  // namespace
}  // namespace ptherm::numerics
