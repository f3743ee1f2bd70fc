// Transient electro-thermal co-simulation: the time-domain counterpart of
// the steady concurrent solve. Dynamic power follows a caller-supplied
// activity profile; leakage is re-evaluated from each block's instantaneous
// temperature at every step (the electro-thermal feedback); heat diffuses
// through a transient-capable thermal::SolverBackend — the FDM substrate
// with backward Euler (the numerical reference) or the spectral solver with
// exact per-mode exponential integrators (one mode-space update per step,
// no linear solve). Because the spectral update is exact for piecewise-
// constant power, runs of held-power steps that nobody reads are folded
// into one longer step on that backend (see solve_transient_cosim). A
// backend without transient support is rejected at entry.
//
// The paper stops at the steady problem; this module is the natural
// extension its §5 implies ("compact analytical models for electro-thermal
// simulation of ULSI circuits") and what a user needs for power-step /
// thermal-cycling studies.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/cosim.hpp"
#include "floorplan/floorplan.hpp"

namespace ptherm::core {

/// Multiplier on each block's nominal dynamic power at time t (seconds).
/// Index is the block index; return 1.0 for "nominal activity".
using ActivityProfile = std::function<double(std::size_t block, double t)>;

/// Per-epoch power update: invoked at the start of control epoch `epoch`
/// (time `t`, block temperatures `temps` at that instant) to fill the
/// per-block dynamic and leakage powers that are then HELD CONSTANT for the
/// next `power_update_every` steps. This is the seam runtime-thermal-
/// management drivers (rtm/simulator.hpp) plug into: sense -> decide ->
/// actuate happens inside the hook, so the control loop rides the cosim's
/// own time integration instead of re-entering it from outside.
using PowerUpdateHook =
    std::function<void(long long epoch, double t, std::span<const double> temps,
                       std::span<double> p_dynamic, std::span<double> p_leakage)>;

/// Settings of the transient cosim. The thermal backend must support
/// transients (Fdm or Spectral); the default stays the FDM reference.
struct TransientCosimOptions : ThermalConfig {
  TransientCosimOptions() { backend = ThermalBackend::Fdm; }

  double dt = 1e-4;          ///< time step [s]
  double t_stop = 20e-3;     ///< end time [s]
  double vb = 0.0;           ///< substrate bias [V]
  int record_every = 1;      ///< keep every k-th step in the result
  /// Steps per power-update epoch: block powers are re-evaluated every
  /// `power_update_every` steps (from the activity profile and the
  /// instantaneous temperatures, or from a PowerUpdateHook) and held
  /// constant in between. 1 — the default, and the original semantics —
  /// re-couples power and temperature every step. Longer epochs also skip
  /// the per-step temperature readback on interior steps, and on a backend
  /// with exact step composition (spectral) the interior steps up to the
  /// next record fold into one exact step — which is what makes
  /// million-step DVFS traces affordable.
  int power_update_every = 1;
};

/// Throws ptherm::PreconditionError on an unusable time grid
/// (dt <= 0, t_stop < dt, more than INT_MAX steps, record_every < 1, or
/// power_update_every < 1). A single-step run (t_stop == dt) is legitimate.
void validate(const TransientCosimOptions& opts);

struct TransientCosimResult {
  std::vector<double> times;
  /// block_temps[k][i] = temperature of block i at times[k] [K].
  std::vector<std::vector<double>> block_temps;
  /// Total leakage power at each recorded time [W].
  std::vector<double> leakage_power;
  /// Total dynamic power at each recorded time [W].
  std::vector<double> dynamic_power;
  /// Package case rise above ambient at each recorded time [K]; all zeros
  /// unless the options carried a stack with an RC-network boundary.
  std::vector<double> case_rise;
  /// Total inner backend iterations across all steps. The name is
  /// historical: on the FDM backend these are CG iterations; other backends
  /// report their own unit of inner work (spectral: one exact mode-space
  /// update per backend step, so a folded segment counts once), so read it
  /// as "generic backend iterations".
  int total_cg_iterations = 0;
  /// Backend cost counters for the whole run (backend step calls, CG
  /// iterations, modes carried, FFT calls) — the perf-trajectory benches
  /// read these. transient_steps counts backend calls: with folding it is
  /// the segment count, below the time-grid step count.
  thermal::BackendCostStats backend_stats;
  /// With TransientCosimOptions::trace.convergence: inner backend iterations
  /// per time-grid step, in step order (size == time-grid steps; sums to
  /// total_cg_iterations). A folded segment reports its backend step's
  /// count on its first step and 0 on each step folded into it. Empty when
  /// tracing is off.
  std::vector<int> step_inner_iterations;

  [[nodiscard]] double peak_temperature() const;
};

/// Runs the transient co-simulation from a uniform sink-temperature start.
/// Dynamic power follows `activity`; leakage is re-evaluated from each
/// block's instantaneous temperature at every power-update epoch (every
/// step by default).
///
/// Step folding: the time grid is walked in segments, each ending at the
/// next power-update epoch boundary, record step or t_stop. When the
/// backend reports exact_step_composition() (spectral), each segment is
/// ONE backend step of (e - s) * dt (t_stop - s * dt for the last one),
/// taken from the step indices so every full segment has the same h; the
/// package RC network advances once per segment too. Nothing in between is
/// observable — powers are held and no one reads the field — so the result
/// matches the per-step integration to rounding (tested to 1e-10 K on
/// single-die, layered and RC-package runs). Other backends (FDM: backward
/// Euler does not compose) step once per grid step, bitwise as before.
TransientCosimResult solve_transient_cosim(const device::Technology& tech,
                                           const floorplan::Floorplan& fp,
                                           const ActivityProfile& activity,
                                           const TransientCosimOptions& opts = {});

/// Hook-driven variant: the caller owns the power model. `hook` is invoked
/// once per power-update epoch (including epoch 0 at t = 0 with every block
/// at the sink temperature) and the powers it writes are held for the whole
/// epoch. The activity-profile overload is exactly this with a hook that
/// evaluates `activity` and the floorplan's leakage model.
TransientCosimResult solve_transient_cosim(const device::Technology& tech,
                                           const floorplan::Floorplan& fp,
                                           const PowerUpdateHook& hook,
                                           const TransientCosimOptions& opts = {});

}  // namespace ptherm::core
