// Unit tests for the scalar RK4 integrator.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "numerics/ode.hpp"

namespace ptherm::numerics {
namespace {

TEST(Rk4, ExponentialDecayMatchesClosedForm) {
  const auto sol = rk4([](double, double y) { return -2.0 * y; }, 1.0, 0.0, 1.0, 1e-3);
  EXPECT_NEAR(sol.states.back(), std::exp(-2.0), 1e-9);
  EXPECT_NEAR(sol.times.back(), 1.0, 1e-12);
}

TEST(Rk4, FourthOrderConvergence) {
  auto err = [](double dt) {
    const auto sol = rk4([](double t, double y) { return y * std::cos(t); }, 1.0, 0.0, 2.0, dt);
    return std::abs(sol.states.back() - std::exp(std::sin(2.0)));
  };
  const double e1 = err(0.02);
  const double e2 = err(0.01);
  // Halving dt should cut the error by about 2^4 = 16.
  EXPECT_GT(e1 / e2, 10.0);
  EXPECT_LT(e1 / e2, 24.0);
}

TEST(Ode, RejectsBadTimeGrid) {
  auto f = [](double, double y) { return y; };
  EXPECT_THROW(rk4(f, 1.0, 1.0, 0.0, 0.1), PreconditionError);
  EXPECT_THROW(rk4(f, 1.0, 0.0, 1.0, -0.1), PreconditionError);
}

TEST(Ode, FinalPartialStepLandsExactlyOnTStop) {
  // 0.3 does not divide 1.0: three full steps and one of 0.1.
  const auto sol = rk4([](double, double) { return 1.0; }, 0.0, 0.0, 1.0, 0.3);
  EXPECT_EQ(sol.times.size(), 5u);
  EXPECT_NEAR(sol.times.back(), 1.0, 1e-12);
  EXPECT_NEAR(sol.states.back(), 1.0, 1e-12);
}

}  // namespace
}  // namespace ptherm::numerics
