// Safeguarded Picard relaxation for x = F(x), the one update rule of the
// block cosim (core/cosim.cpp) and the electro-thermal SPICE outer loop.
// Each step reads the undamped residual r_k = max_i |F(x)_i - x_i| and moves
// x to x + w (F(x) - x), with w = 1 until r_k >= r_{k-1} and the caller's
// `damping` for the rest of the solve. For a loop gain 0 <= g < 1 the
// undamped factor g never exceeds the damped 1 - w + w g; damping only pays
// when the map overshoots (g < 0 or g > 1), which is when r stops shrinking.
#pragma once

#include <cmath>
#include <limits>
#include <span>

namespace ptherm::numerics {

class SafeguardedPicard {
 public:
  /// `damping` in (0, 1] is the safeguard's relaxation; `runaway_streak`
  /// consecutive growing residuals declare the fixed point diverging.
  SafeguardedPicard(double damping, int runaway_streak) noexcept
      : damping_(damping), runaway_streak_(runaway_streak) {}

  /// One step x <- x + w (target - x), target = F(x); returns r_k. A NaN or
  /// infinite difference makes r_k non-finite: x is left at the last finite
  /// iterate and failed() reports it, so callers end the solve unconverged.
  double step(std::span<double> x, std::span<const double> target) noexcept {
    double r = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      // std::max would drop a NaN; this max keeps it (and equals std::max
      // on finite values).
      const double d = std::abs(target[i] - x[i]);
      if (d > r || std::isnan(d)) r = d;
    }
    if (!std::isfinite(r)) {
      failed_ = true;
      return r;
    }
    if (r >= residual_) omega_ = damping_;
    streak_ = r > residual_ ? streak_ + 1 : 0;
    contraction_ = r / residual_;
    residual_ = r;
    for (std::size_t i = 0; i < x.size(); ++i) x[i] += omega_ * (target[i] - x[i]);
    return r;
  }

  [[nodiscard]] bool diverging() const noexcept { return streak_ >= runaway_streak_; }
  /// A step met a non-finite residual (a NaN or infinite target).
  [[nodiscard]] bool failed() const noexcept { return failed_; }
  /// r_k / r_{k-1} of the last step, 0 before the second; >= 1: no contraction.
  [[nodiscard]] double contraction() const noexcept { return contraction_; }

 private:
  double damping_;
  int runaway_streak_;
  double omega_ = 1.0;
  double residual_ = std::numeric_limits<double>::infinity();  ///< r_{k-1}
  double contraction_ = 0.0;
  int streak_ = 0;
  bool failed_ = false;
};

}  // namespace ptherm::numerics
