// Floorplan layer: rectangles, blocks with power content, and the die-level
// container that feeds the thermal models. Power maps in the paper come from
// real designs; here synthetic generators (see generators.hpp) exercise the
// same code paths.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "device/tech.hpp"
#include "leakage/gate.hpp"
#include "thermal/images.hpp"

namespace ptherm::floorplan {

/// Axis-aligned rectangle, corner-anchored: [x, x+w) x [y, y+h).
struct Rect {
  double x = 0.0;
  double y = 0.0;
  double w = 0.0;
  double h = 0.0;

  [[nodiscard]] double area() const noexcept { return w * h; }
  [[nodiscard]] double cx() const noexcept { return x + 0.5 * w; }
  [[nodiscard]] double cy() const noexcept { return y + 0.5 * h; }
  [[nodiscard]] bool contains(double px, double py) const noexcept {
    return px >= x && px < x + w && py >= y && py < y + h;
  }
  [[nodiscard]] bool overlaps(const Rect& o) const noexcept {
    return x < o.x + o.w && o.x < x + w && y < o.y + o.h && o.y < y + h;
  }
};

/// A population of identical gates held in an identical static input state;
/// the unit of leakage bookkeeping inside a block.
struct GateGroup {
  std::shared_ptr<const leakage::GateTopology> gate;
  leakage::InputVector inputs;
  double count = 1.0;
};

/// One floorplan block: a rectangle dissipating dynamic power plus a
/// temperature-dependent leakage population.
struct Block {
  std::string name;
  Rect rect;
  double p_dynamic = 0.0;             ///< [W], temperature independent here
  std::vector<GateGroup> gate_groups; ///< leakage content

  /// Total subthreshold current of the block at temperature `temp` [A].
  [[nodiscard]] double leakage_current(const device::Technology& tech, double temp,
                                       double vb = 0.0) const;
  /// leakage_current * VDD [W].
  [[nodiscard]] double leakage_power(const device::Technology& tech, double temp,
                                     double vb = 0.0) const;
  /// Total power at `temp` [W].
  [[nodiscard]] double total_power(const device::Technology& tech, double temp,
                                   double vb = 0.0) const {
    return p_dynamic + leakage_power(tech, temp, vb);
  }
};

/// Die + non-overlapping blocks.
class Floorplan {
 public:
  explicit Floorplan(thermal::Die die);

  /// Adds a block; throws if it leaves the die, overlaps an existing block,
  /// or has a non-finite p_dynamic.
  void add_block(Block block);

  [[nodiscard]] const thermal::Die& die() const noexcept { return die_; }
  [[nodiscard]] const std::vector<Block>& blocks() const noexcept { return blocks_; }
  [[nodiscard]] std::vector<Block>& blocks() noexcept { return blocks_; }

  /// Heat sources for the thermal models, one per block, with per-block total
  /// power evaluated at the given per-block temperatures (or at p_dynamic
  /// only when `temps` is empty — the cosim loop's starting point).
  [[nodiscard]] std::vector<thermal::HeatSource> heat_sources(
      const device::Technology& tech, const std::vector<double>& temps = {}) const;

  [[nodiscard]] double total_dynamic_power() const;

 private:
  thermal::Die die_;
  std::vector<Block> blocks_;
};

}  // namespace ptherm::floorplan
