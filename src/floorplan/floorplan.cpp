#include "floorplan/floorplan.hpp"

#include <cmath>

#include "common/error.hpp"

namespace ptherm::floorplan {

double Block::leakage_current(const device::Technology& tech, double temp, double vb) const {
  double sum = 0.0;
  for (const auto& g : gate_groups) {
    PTHERM_ASSERT(g.gate != nullptr, "GateGroup without topology");
    const auto r = leakage::gate_static(tech, *g.gate, g.inputs, temp, vb);
    sum += g.count * r.i_off;
  }
  return sum;
}

double Block::leakage_power(const device::Technology& tech, double temp, double vb) const {
  return leakage_current(tech, temp, vb) * tech.vdd;
}

Floorplan::Floorplan(thermal::Die die) : die_(die) {
  PTHERM_REQUIRE(die_.width > 0.0 && die_.height > 0.0, "Floorplan: degenerate die");
}

void Floorplan::add_block(Block block) {
  PTHERM_REQUIRE(block.rect.w > 0.0 && block.rect.h > 0.0, "add_block: degenerate rect");
  PTHERM_REQUIRE(std::isfinite(block.p_dynamic),
                 "add_block: non-finite dynamic power: " + block.name);
  PTHERM_REQUIRE(block.rect.x >= 0.0 && block.rect.y >= 0.0 &&
                     block.rect.x + block.rect.w <= die_.width + 1e-12 &&
                     block.rect.y + block.rect.h <= die_.height + 1e-12,
                 "add_block: block leaves the die: " + block.name);
  for (const auto& other : blocks_) {
    PTHERM_REQUIRE(!block.rect.overlaps(other.rect),
                   "add_block: block overlaps " + other.name + ": " + block.name);
  }
  blocks_.push_back(std::move(block));
}

std::vector<thermal::HeatSource> Floorplan::heat_sources(
    const device::Technology& tech, const std::vector<double>& temps) const {
  PTHERM_REQUIRE(temps.empty() || temps.size() == blocks_.size(),
                 "heat_sources: temperature count mismatch");
  std::vector<thermal::HeatSource> sources;
  sources.reserve(blocks_.size());
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    const Block& b = blocks_[i];
    thermal::HeatSource s;
    s.cx = b.rect.cx();
    s.cy = b.rect.cy();
    s.w = b.rect.w;
    s.l = b.rect.h;
    s.power = temps.empty() ? b.p_dynamic : b.total_power(tech, temps[i]);
    sources.push_back(s);
  }
  return sources;
}

double Floorplan::total_dynamic_power() const {
  double sum = 0.0;
  for (const auto& b : blocks_) sum += b.p_dynamic;
  return sum;
}

}  // namespace ptherm::floorplan
