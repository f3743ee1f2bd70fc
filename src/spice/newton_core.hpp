// Internal shared Newton/MNA assembler used by both the DC and the transient
// solver. Not part of the public API (no installation guarantees); kept in a
// header so the two front ends share one residual definition.
//
// The assembler carries the continuation state the recovery ladder
// (spice/dc.cpp) and the electro-thermal coupling (spice/electrothermal.hpp)
// steer: a global source scale (source-stepping homotopy ramps every
// independent source from 0 to its full value), a uniform temperature
// override (temperature continuation solves cold and ramps to ambient), and
// optional per-MOSFET device temperatures (self-heating: each device is
// evaluated at its own temperature inside the Newton loop).
#pragma once

#include <limits>
#include <span>
#include <vector>

#include "numerics/dense.hpp"
#include "spice/circuit.hpp"
#include "spice/dc.hpp"

namespace ptherm::spice::detail {

/// Extra state for transient steps; when `active` the assembler stamps
/// backward-Euler capacitor companions and evaluates waveforms at `time`.
struct TransientContext {
  bool active = false;
  double time = 0.0;
  double dt = 0.0;
  /// Node voltages at the previous accepted time point (size = node_count).
  std::vector<double> prev_voltages;
};

/// Worst-KCL-residual audit of an iterate: the node row with the largest
/// absolute residual, its residual [A], and that row's current scale [A].
struct KclAudit {
  NodeId node = 0;
  double residual = 0.0;
  double scale = 0.0;
};

/// Unknown layout: x = [V_1 .. V_{n-1}, I_vsrc_0 .. I_vsrc_{m-1}].
class NewtonCore {
 public:
  NewtonCore(const Circuit& ckt, const DcOptions& opts);

  [[nodiscard]] int size() const noexcept { return size_; }
  [[nodiscard]] int node_unknowns() const noexcept { return num_nodes_ - 1; }

  [[nodiscard]] static double v_of(const std::vector<double>& x, NodeId n) {
    return n == 0 ? 0.0 : x[n - 1];
  }

  // --- continuation state --------------------------------------------------

  /// Scales every independent source value (volts AND amps) by `s` — the
  /// source-stepping homotopy's lambda. 1.0 (the default) is bitwise
  /// transparent.
  void set_source_scale(double s) noexcept { source_scale_ = s; }
  [[nodiscard]] double source_scale() const noexcept { return source_scale_; }

  /// Uniform device temperature override [K] (temperature continuation);
  /// defaults to DcOptions::temp. Cleared by per-device temperatures.
  void set_temperature(double t) noexcept { temp_ = t; }
  [[nodiscard]] double temperature() const noexcept { return temp_; }

  /// Per-MOSFET temperatures [K], indexed like Circuit::mosfets(); empty
  /// restores the uniform temperature. This is the self-heating seam: the
  /// electro-thermal loop writes block temperatures here and the assembler
  /// evaluates each device at its own temperature.
  void set_device_temperatures(std::span<const double> temps);
  void clear_device_temperatures() { device_temps_.clear(); }

  /// Temperature MOSFET `i` is evaluated at under the current settings.
  [[nodiscard]] double device_temperature(std::size_t i) const noexcept {
    return device_temps_.empty() ? temp_ : device_temps_[i];
  }

  // --- assembly / iteration ------------------------------------------------

  /// Assembles KCL residual `f`, per-row current scale, and optionally the
  /// Jacobian, at unknown vector `x` with the given gmin.
  void assemble(const std::vector<double>& x, double gmin, const TransientContext& tr,
                std::vector<double>& f, std::vector<double>& scale,
                numerics::Matrix* jac) const;

  /// Damped Newton at one gmin rung; returns true on convergence and updates
  /// `x` in place. `iterations_used` accumulates. `residual_trace` (optional)
  /// receives the KCL residual infinity norm max |F| [A] of each iterate as
  /// assembled at the top of its iteration — the convergence-trace hook;
  /// recording only APPENDS, the iteration arithmetic is unchanged.
  /// `iteration_cap` tightens DcOptions::max_iterations for this run (the
  /// warm-start attempt's budget, kWarmNewtonIterations).
  bool newton(std::vector<double>& x, double gmin, const TransientContext& tr,
              int& iterations_used, std::vector<double>* residual_trace = nullptr,
              int iteration_cap = std::numeric_limits<int>::max()) const;

  /// Worst-KCL-residual node at `x` (assembled at gmin = 0, no Jacobian) —
  /// what SolveReport names on exit. Node 0 with zero residual when the
  /// circuit has no node unknowns.
  [[nodiscard]] KclAudit audit(const std::vector<double>& x,
                               const TransientContext& tr) const;

 private:
  const Circuit& ckt_;
  const DcOptions& opts_;
  int num_nodes_;
  int num_v_;
  int size_;
  double source_scale_ = 1.0;
  double temp_;
  std::vector<double> device_temps_;  ///< per-MOSFET [K]; empty = uniform temp_
};

}  // namespace ptherm::spice::detail
