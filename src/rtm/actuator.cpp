#include "rtm/actuator.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "power/dynamic.hpp"

namespace ptherm::rtm {

VfLadder::VfLadder(std::vector<OperatingPoint> points) : points_(std::move(points)) {
  PTHERM_REQUIRE(!points_.empty(), "VfLadder: need at least one operating point");
  for (std::size_t i = 0; i < points_.size(); ++i) {
    PTHERM_REQUIRE(points_[i].voltage > 0.0 && points_[i].frequency > 0.0,
                   "VfLadder: voltage and frequency must be positive");
    if (i > 0) {
      PTHERM_REQUIRE(points_[i].frequency < points_[i - 1].frequency,
                     "VfLadder: frequencies must strictly decrease with level");
      PTHERM_REQUIRE(points_[i].voltage <= points_[i - 1].voltage,
                     "VfLadder: voltages must not increase with level");
    }
  }
}

VfLadder VfLadder::uniform(double v_nom, double f_nom, int levels, double v_min_fraction,
                           double f_min_fraction) {
  PTHERM_REQUIRE(levels >= 1, "VfLadder::uniform: need at least one level");
  PTHERM_REQUIRE(v_nom > 0.0 && f_nom > 0.0, "VfLadder::uniform: nominal point must be positive");
  PTHERM_REQUIRE(v_min_fraction > 0.0 && v_min_fraction <= 1.0 && f_min_fraction > 0.0 &&
                     f_min_fraction <= 1.0,
                 "VfLadder::uniform: fractions must lie in (0, 1]");
  if (levels > 1) {
    PTHERM_REQUIRE(f_min_fraction < 1.0,
                   "VfLadder::uniform: multiple levels need f_min_fraction < 1");
  }
  std::vector<OperatingPoint> points(static_cast<std::size_t>(levels));
  for (int l = 0; l < levels; ++l) {
    const double u = levels == 1 ? 0.0 : static_cast<double>(l) / (levels - 1);
    points[l].voltage = v_nom * (1.0 - u * (1.0 - v_min_fraction));
    points[l].frequency = f_nom * (1.0 - u * (1.0 - f_min_fraction));
  }
  return VfLadder(std::move(points));
}

const OperatingPoint& VfLadder::at(int level) const {
  PTHERM_REQUIRE(level >= 0 && level < level_count(), "VfLadder::at: level out of range");
  return points_[static_cast<std::size_t>(level)];
}

std::vector<double> VfLadder::speed_fractions() const {
  std::vector<double> fractions(points_.size());
  for (std::size_t l = 0; l < points_.size(); ++l) {
    fractions[l] = points_[l].frequency / points_[0].frequency;
  }
  return fractions;
}

Actuator::Actuator(const device::Technology& tech, const floorplan::Floorplan& fp, VfLadder ladder)
    : ladder_(std::move(ladder)), levels_(fp.blocks().size(), 0) {
  PTHERM_REQUIRE(!fp.blocks().empty(), "Actuator: empty floorplan");
  p_dynamic_.reserve(fp.blocks().size());
  for (const auto& b : fp.blocks()) p_dynamic_.push_back(b.p_dynamic);
  leakage_ = floorplan::CompiledBlockLeakage::compile_all(fp.blocks());
  const int nl = ladder_.level_count();
  scales_.resize(nl);
  speeds_.resize(nl);
  level_tech_.reserve(nl);
  // The per-level dynamic scale comes from the power/dynamic model itself:
  // transient_power is alpha f C VDD^2, so the ratio against level 0 is
  // exactly (V/V0)^2 (f/f0) — computed through the model so the actuator
  // and the power subsystem cannot drift apart.
  power::SwitchingContext ctx0;
  ctx0.frequency = ladder_.at(0).frequency;
  device::Technology t0 = tech;
  t0.vdd = ladder_.at(0).voltage;
  const double p0 = power::transient_power(t0, ctx0);
  PTHERM_ASSERT(p0 > 0.0, "Actuator: degenerate nominal operating point");
  for (int l = 0; l < nl; ++l) {
    // The DIBL-consistent supply rewrite (see device::at_supply): at a lower
    // supply the OFF transistor sees less drain-induced barrier lowering, so
    // its effective threshold rises and leakage falls exponentially — the
    // voltage-dependent leakage the RTM loop feeds back.
    device::Technology tl = device::at_supply(tech, ladder_.at(l).voltage);
    power::SwitchingContext ctx = ctx0;
    ctx.frequency = ladder_.at(l).frequency;
    scales_[l] = power::transient_power(tl, ctx) / p0;
    speeds_[l] = ladder_.at(l).frequency / ladder_.at(0).frequency;
    level_tech_.push_back(std::move(tl));
  }
}

int Actuator::level(std::size_t block) const {
  PTHERM_REQUIRE(block < levels_.size(), "Actuator::level: block out of range");
  return levels_[block];
}

bool Actuator::set_level(std::size_t block, int lvl) {
  PTHERM_REQUIRE(block < levels_.size(), "Actuator::set_level: block out of range");
  const int clamped = std::clamp(lvl, 0, ladder_.level_count() - 1);
  if (clamped == levels_[block]) return false;
  levels_[block] = clamped;
  return true;
}

void Actuator::reset() { std::fill(levels_.begin(), levels_.end(), 0); }

double Actuator::dynamic_power(std::size_t block, double activity) const {
  PTHERM_REQUIRE(block < levels_.size(), "Actuator::dynamic_power: block out of range");
  PTHERM_REQUIRE(activity >= 0.0, "Actuator::dynamic_power: activity must be >= 0");
  return p_dynamic_[block] * activity * scales_[levels_[block]];
}

double Actuator::leakage_power(std::size_t block, double temp, double vb) const {
  PTHERM_REQUIRE(block < levels_.size(), "Actuator::leakage_power: block out of range");
  const auto& tech = level_tech_[static_cast<std::size_t>(levels_[block])];
  return leakage_[block].leakage_power(tech, temp, vb);
}

void Actuator::leakage_power(std::span<const double> temps, double vb,
                             std::span<double> out) const {
  PTHERM_REQUIRE(temps.size() == levels_.size() && out.size() == levels_.size(),
                 "Actuator::leakage_power: need one temperature and one output per block");
  std::vector<const device::Technology*> techs(levels_.size());
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    techs[i] = &level_tech_[static_cast<std::size_t>(levels_[i])];
  }
  floorplan::CompiledBlockLeakage::leakage_power(leakage_, techs, temps, vb, out);
}

double Actuator::throughput_scale(std::size_t block) const {
  PTHERM_REQUIRE(block < levels_.size(), "Actuator::throughput_scale: block out of range");
  return speeds_[levels_[block]];
}

double Actuator::dynamic_scale(int lvl) const {
  PTHERM_REQUIRE(lvl >= 0 && lvl < ladder_.level_count(),
                 "Actuator::dynamic_scale: level out of range");
  return scales_[static_cast<std::size_t>(lvl)];
}

}  // namespace ptherm::rtm
