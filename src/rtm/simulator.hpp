// The closed loop: sensors -> policy -> V/f actuation -> thermal response,
// one decision per control epoch of `steps_per_epoch` transient steps. The
// driver rides core::solve_transient_cosim's per-epoch power-update hook —
// it never re-enters the co-simulation from outside — so every epoch pays
// one sensor sample, one policy call, one leakage re-evaluation at the
// actual operating voltages, and one backend power update; the interior
// steps of an epoch are the backend's cheap path (spectral: pure mode
// decay). Leakage-temperature feedback stays INSIDE the loop: throttling
// lowers voltage, which lowers leakage, which cools the die, which raises
// the sensed headroom the policy acts on next epoch.
#pragma once

#include <vector>

#include "core/transient.hpp"
#include "rtm/actuator.hpp"
#include "rtm/policy.hpp"
#include "rtm/sensor.hpp"
#include "rtm/trace.hpp"
#include "telemetry/telemetry.hpp"

namespace ptherm::rtm {

/// Settings of the closed loop. The plant's thermal backend must support
/// time stepping (Fdm or Spectral); the default is Spectral. The
/// ThermalConfig part reaches the plant unchanged
/// (core::TransientCosimOptions).
struct RtmOptions : core::ThermalConfig {
  RtmOptions() { backend = core::ThermalBackend::Spectral; }

  double dt = 1e-4;          ///< transient step [s]
  int steps_per_epoch = 10;  ///< control period, in steps
  double vb = 0.0;           ///< substrate bias [V]
  /// The temperature cap the study enforces [K, absolute]; must exceed the
  /// die's sink temperature. Policies receive it via PolicyContext;
  /// time_over_cap measures violations against the TRUE temperatures.
  double temperature_cap = 0.0;
  SensorOptions sensor;      ///< seed/quantization/noise/latency of the sensors
  /// Record a timeline row every `record_every` epochs (0 = metrics only).
  int record_every = 0;
};

/// Run-level metrics. All temperature metrics are TRUE block temperatures
/// sampled at epoch boundaries (plus the final instant), not the sensed
/// values the policy saw.
struct RtmMetrics {
  double peak_temperature = 0.0;     ///< hottest block over the run [K]
  double avg_temperature = 0.0;      ///< time-average of the block mean [K]
  double time_over_cap = 0.0;        ///< any block above the cap [s]
  double energy = 0.0;               ///< dissipated (dynamic + leakage) [J]
  double work_requested = 0.0;       ///< integral of requested activity [activity * s]
  double work_delivered = 0.0;       ///< same, scaled by each block's f/f0
  /// work_delivered / work_requested: 1.0 = nothing throttled away.
  double throughput_fraction = 0.0;
  long long interventions = 0;       ///< per-block level changes applied
  long long epochs = 0;
  long long steps = 0;
  thermal::BackendCostStats backend_stats;
};

struct RtmResult {
  RtmMetrics metrics;
  std::vector<double> final_temps;   ///< true block temperatures at t_stop [K]
  /// With RtmOptions::trace.convergence: the plant's inner backend
  /// iterations per transient step (size == metrics.steps). Empty when
  /// tracing is off.
  std::vector<int> step_inner_iterations;
  // Timeline (one row per recorded epoch, epoch start instant).
  std::vector<double> times;
  std::vector<double> peak_temps;         ///< hottest block [K]
  std::vector<double> total_power;        ///< dynamic + leakage held that epoch [W]
  std::vector<double> throttled_fraction; ///< blocks not at level 0
};

/// Closes the loop over `trace`: epochs = round(trace.duration() /
/// (steps_per_epoch * dt)), at least 1. `policy` is reset (with the loop's
/// PolicyContext) and `actuator` is reset to level 0 before the run, so a
/// given (floorplan, trace, policy, options) tuple reproduces bitwise.
/// Throws ptherm::PreconditionError on mismatched block counts, a cap at or
/// below the sink temperature, a steady-only backend, or a run of more than
/// INT_MAX plant steps.
[[nodiscard]] RtmResult run_rtm(const device::Technology& tech,
                                const floorplan::Floorplan& fp, const WorkloadTrace& trace,
                                Policy& policy, Actuator& actuator,
                                const RtmOptions& opts = {});

}  // namespace ptherm::rtm
