#include "core/influence.hpp"

namespace ptherm::core {

std::vector<InfluenceSample> block_centre_samples(const floorplan::Floorplan& fp) {
  std::vector<InfluenceSample> samples;
  samples.reserve(fp.blocks().size());
  for (const auto& b : fp.blocks()) samples.push_back({b.rect.cx(), b.rect.cy()});
  return samples;
}

InfluenceOperator build_influence_analytic(const thermal::Die& die,
                                           std::vector<thermal::HeatSource> sources,
                                           std::span<const InfluenceSample> samples,
                                           const thermal::ImageOptions& opts) {
  return InfluenceOperator(thermal::analytic_influence_columns(die, sources, samples, opts));
}

InfluenceOperator build_influence_fdm(const thermal::FdmThermalSolver& solver,
                                      std::vector<thermal::HeatSource> sources,
                                      std::span<const InfluenceSample> samples, bool warm_start,
                                      thermal::BackendCostStats* stats) {
  if (stats != nullptr) *stats = {};
  return InfluenceOperator(
      thermal::fdm_influence_columns(solver, sources, samples, warm_start, stats));
}

InfluenceOperator build_influence_spectral(const thermal::SpectralThermalSolver& solver,
                                           std::vector<thermal::HeatSource> sources,
                                           std::span<const InfluenceSample> samples,
                                           thermal::BackendCostStats* stats) {
  if (stats != nullptr) *stats = {};
  return InfluenceOperator(thermal::spectral_influence_columns(solver, sources, samples, stats));
}

}  // namespace ptherm::core
