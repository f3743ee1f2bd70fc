// Operating points and actuation: the knobs the runtime thermal manager
// turns. A VfLadder enumerates the per-block voltage/frequency levels
// (level 0 = fastest = the point the floorplan's nominal dynamic powers were
// characterized at); the Actuator maps a block's requested activity to
// delivered dynamic power through the existing power/dynamic model
// (P ~ alpha f C V^2, so the per-level scale is (V/V0)^2 * (f/f0)) and
// evaluates compiled leakage at the level's ACTUAL supply voltage —
// lowering VDD shrinks DIBL and the output swing, so throttling feeds back
// into the electro-thermal fixed point instead of just scaling a constant.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "floorplan/compiled_leakage.hpp"
#include "floorplan/floorplan.hpp"

namespace ptherm::rtm {

/// One selectable voltage/frequency pair.
struct OperatingPoint {
  double voltage = 0.0;    ///< supply [V]
  double frequency = 0.0;  ///< clock [Hz]
};

/// Ordered ladder of operating points: level 0 is the fastest (highest
/// frequency); each further level is strictly slower and no higher in
/// voltage — "throttle one level" always means less power.
class VfLadder {
 public:
  explicit VfLadder(std::vector<OperatingPoint> points);

  /// Evenly spaced ladder from (v_nom, f_nom) down to
  /// (v_min_fraction * v_nom, f_min_fraction * f_nom) in `levels` steps.
  [[nodiscard]] static VfLadder uniform(double v_nom, double f_nom, int levels,
                                        double v_min_fraction, double f_min_fraction);

  [[nodiscard]] int level_count() const noexcept { return static_cast<int>(points_.size()); }
  [[nodiscard]] const OperatingPoint& at(int level) const;
  /// f_level / f_0 for each level, descending from 1.0 — the per-level
  /// delivered-throughput fraction (handed to frequency-aware policies).
  [[nodiscard]] std::vector<double> speed_fractions() const;

 private:
  std::vector<OperatingPoint> points_;
};

/// Per-block V/f state over a floorplan. Construction copies what it needs
/// (nominal dynamic powers, compiled leakage), so the actuator holds no
/// reference to `fp` and cannot dangle; levels start at 0 (fastest).
class Actuator {
 public:
  Actuator(const device::Technology& tech, const floorplan::Floorplan& fp, VfLadder ladder);

  [[nodiscard]] std::size_t block_count() const noexcept { return levels_.size(); }
  [[nodiscard]] const VfLadder& ladder() const noexcept { return ladder_; }

  /// Current level of `block`.
  [[nodiscard]] int level(std::size_t block) const;
  /// Sets `block` to `lvl` (clamped into the ladder); returns true when the
  /// effective level actually changed — the intervention counter's unit.
  bool set_level(std::size_t block, int lvl);
  /// Everything back to level 0 (run start).
  void reset();

  /// Delivered dynamic power of `block` at requested activity `activity`
  /// under its current level: p_dynamic_nominal * activity * scale(level),
  /// with scale derived from power::transient_power at the level's V and f.
  [[nodiscard]] double dynamic_power(std::size_t block, double activity) const;
  /// Leakage power of `block` at temperature `temp` [K] and substrate bias
  /// `vb`, evaluated at the current level's supply voltage.
  [[nodiscard]] double leakage_power(std::size_t block, double temp, double vb = 0.0) const;
  /// out[i] = leakage_power(i, temps[i], vb) for every block, each at its
  /// own level's supply, bitwise, in one batched evaluation.
  void leakage_power(std::span<const double> temps, double vb, std::span<double> out) const;
  /// f_level / f_0 of `block`'s current level: the fraction of requested
  /// work actually delivered per unit time.
  [[nodiscard]] double throughput_scale(std::size_t block) const;

  /// Per-level dynamic-power scale (V/V0)^2 * (f/f0), exposed for tests.
  [[nodiscard]] double dynamic_scale(int lvl) const;

 private:
  VfLadder ladder_;
  std::vector<int> levels_;                  ///< per block
  std::vector<double> p_dynamic_;            ///< per block, nominal [W]
  std::vector<floorplan::CompiledBlockLeakage> leakage_;  ///< per block
  std::vector<double> scales_;               ///< per level, (V/V0)^2 (f/f0)
  std::vector<double> speeds_;               ///< per level, f/f0
  std::vector<device::Technology> level_tech_;  ///< tech with vdd = level voltage
};

}  // namespace ptherm::rtm
