#include "spice/electrothermal.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "numerics/fixed_point.hpp"
#include "spice/newton_core.hpp"
#include "telemetry/telemetry.hpp"

namespace ptherm::spice {

DeviceFootprint footprint_for(const std::string& device, const floorplan::Block& block) {
  return {device, block.rect.cx(), block.rect.cy(), block.rect.w, block.rect.h};
}

void validate(const ElectroThermalDcOptions& opts) {
  PTHERM_REQUIRE(opts.damping > 0.0 && opts.damping <= 1.0,
                 "ElectroThermalDcOptions: damping must be in (0, 1]");
  PTHERM_REQUIRE(opts.temp_tol > 0.0, "ElectroThermalDcOptions: temp_tol must be > 0");
  PTHERM_REQUIRE(opts.max_outer_iterations >= 1,
                 "ElectroThermalDcOptions: max_outer_iterations must be >= 1");
  PTHERM_REQUIRE(opts.runaway_rise_limit > 0.0,
                 "ElectroThermalDcOptions: runaway_rise_limit must be > 0");
  PTHERM_REQUIRE(opts.runaway_streak >= 1,
                 "ElectroThermalDcOptions: runaway_streak must be >= 1");
  PTHERM_REQUIRE(std::isfinite(opts.t_sink), "ElectroThermalDcOptions: t_sink must be finite");
}

ElectroThermalDc::ElectroThermalDc(const Circuit& circuit,
                                   const thermal::SolverBackend& backend,
                                   std::span<const DeviceFootprint> footprints)
    : circuit_(circuit), mos_index_(footprints.size()) {
  const std::size_t n = footprints.size();
  PTHERM_REQUIRE(n > 0, "solve_electrothermal_dc: no device footprints");

  // Footprint -> MOSFET index, heat sources, and coincident sample points.
  std::vector<thermal::HeatSource> sources(n);
  std::vector<thermal::SurfaceSample> samples(n);
  std::vector<bool> has_footprint(circuit.mosfets().size(), false);
  for (std::size_t k = 0; k < n; ++k) {
    const auto& fp = footprints[k];
    mos_index_[k] = circuit.mosfet_index(fp.device);
    PTHERM_REQUIRE(!has_footprint[mos_index_[k]],
                   "solve_electrothermal_dc: device '" + fp.device + "' has two footprints");
    has_footprint[mos_index_[k]] = true;
    sources[k] = {fp.cx, fp.cy, fp.w, fp.l, 0.0};
    samples[k] = {fp.cx, fp.cy};
  }
  TELEMETRY_SPAN("spice/build_influence");
  influence_ = thermal::resolve_influence_apply(backend, sources, samples);
}

ElectroThermalDcSolution ElectroThermalDc::solve(const ElectroThermalDcOptions& opts) const {
  return run(opts, {}, {});
}

std::vector<ElectroThermalDcSolution> ElectroThermalDc::sweep_sinks(
    std::span<const double> t_sinks, const ElectroThermalDcOptions& opts) const {
  TELEMETRY_SPAN("spice/electrothermal_sweep");
  std::vector<ElectroThermalDcSolution> out;
  out.reserve(t_sinks.size());
  ElectroThermalDcOptions point = opts;
  for (const double t_sink : t_sinks) {
    std::vector<double> seed;
    std::vector<double> warm;
    if (!out.empty() && out.back().converged) {
      // The rises carry over; only the reference moves with the sink.
      seed = out.back().device_temperatures;
      for (double& t : seed) t += t_sink - point.t_sink;
      warm = detail::pack_unknowns(circuit_, detail::NewtonCore(circuit_, point.dc),
                                   out.back().dc);
    }
    point.t_sink = t_sink;
    point.dc.temp = t_sink;
    out.push_back(run(point, seed, std::move(warm)));
  }
  return out;
}

ElectroThermalDcSolution ElectroThermalDc::run(const ElectroThermalDcOptions& opts,
                                               std::span<const double> seed,
                                               std::vector<double> warm) const {
  validate(opts);
  const std::size_t n = mos_index_.size();
  detail::NewtonCore core(circuit_, opts.dc);
  const std::size_t n_mos = circuit_.mosfets().size();
  // Full per-MOSFET temperature vector; devices without a footprint stay at
  // the nominal solve temperature.
  std::vector<double> all_temps(n_mos, opts.dc.temp);

  ElectroThermalDcSolution out;
  if (seed.empty()) {
    out.device_temperatures.assign(n, opts.dc.temp);
  } else {
    out.device_temperatures.assign(seed.begin(), seed.end());
  }
  out.device_powers.assign(n, 0.0);
  std::vector<double> rises(n, 0.0);

  // Electrical solve at the current temperatures (warm-started), then P(T):
  // each device's dissipation at its own temperature.
  const auto solve_electrical = [&] {
    for (std::size_t k = 0; k < n; ++k) all_temps[mos_index_[k]] = out.device_temperatures[k];
    core.set_device_temperatures(all_temps);
    out.dc = detail::solve_dc_core(circuit_, core, opts.dc, warm.empty() ? nullptr : &warm);
    out.inner_newton_iterations += out.dc.report.newton_iterations;
    warm = detail::pack_unknowns(circuit_, core, out.dc);
    const auto& mosfets = circuit_.mosfets();
    for (std::size_t k = 0; k < n; ++k) {
      const auto& m = mosfets[mos_index_[k]];
      out.device_powers[k] = m.model.power(
          out.dc.voltage(m.gate), out.dc.voltage(m.drain), out.dc.voltage(m.source),
          out.dc.voltage(m.bulk), out.device_temperatures[k]);
    }
  };

  numerics::SafeguardedPicard guard(opts.damping, opts.runaway_streak);
  for (int it = 0; it < opts.max_outer_iterations; ++it) {
    TELEMETRY_SPAN("spice/et_outer_iteration");
    solve_electrical();
    ++out.outer_iterations;

    // T <- t_sink + R * P, one safeguarded step (the core/cosim rule).
    influence_->apply(out.device_powers, rises);
    for (double& rise : rises) rise += opts.t_sink;  // rises -> targets
    const double residual = guard.step(out.device_temperatures, rises);
    out.contraction = guard.contraction();
    out.max_temperature = std::max(opts.t_sink, std::ranges::max(out.device_temperatures));
    // A non-finite residual (NaN or infinite powers) ends the loop
    // unconverged at the last finite iterate.
    if (guard.failed()) break;

    // Runaway: flag and stop, never clamp — the returned temperatures are the
    // genuine divergent iterates. The hard rise limit catches fast blow-ups,
    // the growth streak slower divergence (the core/cosim criteria).
    if (out.max_temperature - opts.t_sink > opts.runaway_rise_limit || guard.diverging()) {
      out.runaway = true;
      break;
    }
    if (residual < opts.temp_tol) {
      out.converged = true;
      break;
    }
  }

  // Re-solve the electrical state at the exit temperatures so the returned
  // voltages, powers, and report are mutually consistent. Not on runaway:
  // the exit temperatures are divergent iterates (deliberately unclamped),
  // and the electrical state that matters is the last converged solve.
  if (!out.runaway) solve_electrical();
  return out;
}

ElectroThermalDcSolution solve_electrothermal_dc(const Circuit& circuit,
                                                 const thermal::SolverBackend& backend,
                                                 std::span<const DeviceFootprint> footprints,
                                                 const ElectroThermalDcOptions& opts) {
  TELEMETRY_SPAN("spice/electrothermal_dc");
  return ElectroThermalDc(circuit, backend, footprints).solve(opts);
}

}  // namespace ptherm::spice
