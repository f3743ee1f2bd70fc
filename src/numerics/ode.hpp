// ODE integration for the chopped self-heating transient (Fig. 9): classic
// fixed-step RK4 for a smooth, nonstiff scalar problem.
#pragma once

#include <functional>
#include <vector>

namespace ptherm::numerics {

struct OdeSolution {
  std::vector<double> times;
  std::vector<double> states;  ///< states[i] is y(times[i])
};

/// Fixed-step classic Runge-Kutta 4 for dy/dt = f(t, y). The last step is
/// shortened so the trace ends exactly at t1.
OdeSolution rk4(const std::function<double(double, double)>& f, double y0, double t0,
                double t1, double dt);

}  // namespace ptherm::numerics
