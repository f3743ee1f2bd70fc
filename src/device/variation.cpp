#include "device/variation.hpp"

#include <cmath>
#include <numbers>

#include "common/constants.hpp"
#include "numerics/explog.hpp"

namespace ptherm::device {

double leakage_multiplier(const Technology& tech, double delta_vt0, double temp) noexcept {
  const double nvt = tech.n_swing * thermal_voltage(temp);
  return numerics::exp(-delta_vt0 / nvt);
}

double VariationModel::sample_delta_vt0(Rng& rng) const {
  // Box-Muller; one draw per call keeps the stream reproducible and simple.
  const double u1 = std::max(rng.uniform(), 1e-300);
  const double u2 = rng.uniform();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
  return sigma_vt0 * z;
}

std::vector<double> VariationModel::sample_scenario_delta_vt0(std::size_t count,
                                                              std::uint64_t base_seed,
                                                              std::uint64_t index) const {
  Rng rng = Rng::stream(base_seed, index);
  std::vector<double> offsets(count);
  for (double& dvt0 : offsets) dvt0 = sample_delta_vt0(rng);
  return offsets;
}

double VariationModel::leakage_multiplier(const Technology& tech, double delta_vt0,
                                          double temp) const noexcept {
  return device::leakage_multiplier(tech, delta_vt0, temp);
}

double VariationModel::sigma_log(const Technology& tech, double temp) const noexcept {
  return sigma_vt0 / (tech.n_swing * thermal_voltage(temp));
}

double VariationModel::mean_multiplier(const Technology& tech, double temp) const noexcept {
  const double s = sigma_log(tech, temp);
  return std::exp(0.5 * s * s);
}

}  // namespace ptherm::device
