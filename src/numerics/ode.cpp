#include "numerics/ode.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/error.hpp"

namespace ptherm::numerics {

OdeSolution rk4(const std::function<double(double, double)>& f, double y0, double t0,
                double t1, double dt) {
  PTHERM_REQUIRE(t1 > t0, "ode: t1 must exceed t0");
  PTHERM_REQUIRE(dt > 0.0, "ode: dt must be positive");
  const auto steps = static_cast<std::size_t>(std::ceil((t1 - t0) / dt - 1e-12));
  OdeSolution sol;
  sol.times.reserve(steps + 1);
  sol.states.reserve(steps + 1);
  sol.times.push_back(t0);
  sol.states.push_back(y0);
  double y = y0;
  double t = t0;
  for (std::size_t s = 0; s < steps; ++s) {
    const double h = std::min(dt, t1 - t);
    const double k1 = f(t, y);
    const double k2 = f(t + 0.5 * h, y + 0.5 * h * k1);
    const double k3 = f(t + 0.5 * h, y + 0.5 * h * k2);
    const double k4 = f(t + h, y + h * k3);
    y += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
    t += h;
    sol.times.push_back(t);
    sol.states.push_back(y);
  }
  return sol;
}

}  // namespace ptherm::numerics
