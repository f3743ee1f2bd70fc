// Electro-thermal DC: the concurrent power-thermal idea of the paper applied
// to the SPICE substrate. Each MOSFET maps to a floorplan footprint (a heat
// source on the die); the circuit's operating point sets per-device powers,
// the thermal backend turns powers into per-device temperature rises through
// the influence-apply seam (matrix-free when the backend supports it, dense
// otherwise), and the device temperatures feed straight back into the MOSFET
// evaluation INSIDE the Newton loop via NewtonCore's per-device temperature
// seam. The T <- t_sink + R * P(T) fixed point is iterated as an outer loop
// around the recovery-ladder DC solve, with the safeguarded Picard step the
// block-level loop in core/cosim.hpp takes (numerics/fixed_point.hpp).
//
// Thermal runaway (R * dP/dT >= 1 at the operating point: leakage grows
// faster with temperature than the die can shed it) is DETECTED and FLAGGED,
// never clamped — the returned temperatures are the real divergent iterates,
// the same policy the cosim layer pins.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "floorplan/floorplan.hpp"
#include "spice/dc.hpp"
#include "thermal/backend.hpp"

namespace ptherm::spice {

/// One MOSFET's thermal footprint: the die rectangle its dissipated power
/// heats and whose centre temperature it is evaluated at.
struct DeviceFootprint {
  std::string device;  ///< MOSFET name in the Circuit
  double cx = 0.0;     ///< footprint centre x [m]
  double cy = 0.0;     ///< footprint centre y [m]
  double w = 0.0;      ///< footprint width [m]
  double l = 0.0;      ///< footprint height [m]
};

/// Maps a MOSFET onto a floorplan block's rectangle.
[[nodiscard]] DeviceFootprint footprint_for(const std::string& device,
                                            const floorplan::Block& block);

struct ElectroThermalDcOptions {
  DcOptions dc;                 ///< inner electrical solve (dc.temp seeds T)
  double t_sink = 300.0;        ///< heat-sink reference temperature [K]
  int max_outer_iterations = 50;
  double temp_tol = 1e-3;       ///< outer fixed-point convergence [K]
  double damping = 0.7;         ///< safeguard relaxation (as CosimOptions)
  /// Runaway flag: any device rise above t_sink beyond this [K] ...
  double runaway_rise_limit = 400.0;
  /// ... or this many consecutive outer iterations of a growing residual.
  int runaway_streak = 10;
};

/// Throws ptherm::PreconditionError if the outer-loop settings are unusable
/// (damping outside (0, 1], temp_tol <= 0, max_outer_iterations < 1,
/// runaway_rise_limit <= 0, runaway_streak < 1, or a non-finite t_sink) —
/// the checks core::validate(CosimOptions) makes for the block cosim.
void validate(const ElectroThermalDcOptions& opts);

struct ElectroThermalDcSolution {
  /// Electrical solution at the final device temperatures; its report's
  /// device_temperatures map holds every MOSFET's exit temperature.
  DcSolution dc;
  std::vector<double> device_temperatures;  ///< [K], indexed like footprints
  std::vector<double> device_powers;        ///< [W], indexed like footprints
  int outer_iterations = 0;
  /// Newton iterations summed over every inner DC solve of this call, the
  /// exit re-solve included (dc.report counts the exit re-solve alone).
  int inner_newton_iterations = 0;
  bool converged = false;  ///< outer T fixed point reached temp_tol
  bool runaway = false;    ///< thermal runaway flagged (temperatures NOT clamped)
  double max_temperature = 0.0;  ///< hottest device at exit [K]
  double contraction = 0.0;      ///< r_k / r_{k-1} at exit (see CosimResult)
};

/// The electro-thermal DC solve prepared for one circuit, backend and
/// footprint set: the footprint -> MOSFET map and the device-to-device
/// influence operator R, resolved once at construction (span
/// `spice/build_influence`). R depends on the die geometry and
/// conductivity, not on the sink temperature, so one object serves every
/// solve and a whole sink sweep. The circuit and the backend must outlive
/// it (a matrix-free apply reads the backend's solver).
///
/// Throws PreconditionError on an empty footprint list, a footprint naming
/// no MOSFET of the circuit, or a device named by two footprints (its power
/// would be injected twice).
class ElectroThermalDc {
 public:
  ElectroThermalDc(const Circuit& circuit, const thermal::SolverBackend& backend,
                   std::span<const DeviceFootprint> footprints);

  /// Solves the coupled operating point from a cold start: every footprint
  /// device seeded at opts.dc.temp, the first electrical solve cold.
  /// Devices without a footprint stay at opts.dc.temp. Invalid options (see
  /// validate) throw PreconditionError. Inner solves reuse one NewtonCore
  /// and warm-start from the previous outer iterate; inner non-convergence
  /// propagates as ConvergenceFailure carrying the full SolveReport. Outer
  /// non-convergence (including runaway, and a non-finite outer residual,
  /// which stops the loop at the last finite iterate) is flagged on the
  /// solution, not thrown — the electrical state is still the converged
  /// solve at the last iterate's temperatures.
  [[nodiscard]] ElectroThermalDcSolution solve(const ElectroThermalDcOptions& opts) const;

  /// Solves at each sink temperature of `t_sinks` in order (span
  /// `spice/electrothermal_sweep`), each point with `opts` but t_sink and
  /// dc.temp set to that sink. A point that follows a converged one starts
  /// from it: its electrical unknowns, and its device temperatures shifted
  /// by the change in sink temperature. A point after a runaway or
  /// unconverged one starts cold, as solve() does. Each point converges to
  /// its own fixed point within temp_tol, so it agrees with solve() at that
  /// sink up to the outer loop's tolerance, not bitwise.
  [[nodiscard]] std::vector<ElectroThermalDcSolution> sweep_sinks(
      std::span<const double> t_sinks, const ElectroThermalDcOptions& opts) const;

 private:
  /// The one outer loop. `seed` holds the footprint devices' starting
  /// temperatures (empty: opts.dc.temp), `warm` the first electrical
  /// solve's warm start in NewtonCore's unknown layout (empty: cold).
  [[nodiscard]] ElectroThermalDcSolution run(const ElectroThermalDcOptions& opts,
                                             std::span<const double> seed,
                                             std::vector<double> warm) const;

  const Circuit& circuit_;
  std::vector<std::size_t> mos_index_;  ///< footprint k -> index in circuit.mosfets()
  std::unique_ptr<thermal::InfluenceApply> influence_;
};

/// One-shot solve: ElectroThermalDc(circuit, backend, footprints).solve(opts)
/// inside a `spice/electrothermal_dc` span. Rebuilds R on every call;
/// repeated solves against one backend (a sink sweep) should hold an
/// ElectroThermalDc instead.
[[nodiscard]] ElectroThermalDcSolution solve_electrothermal_dc(
    const Circuit& circuit, const thermal::SolverBackend& backend,
    std::span<const DeviceFootprint> footprints, const ElectroThermalDcOptions& opts = {});

}  // namespace ptherm::spice
