// Extension bench: variation-aware leakage. VT0 variation makes leakage
// lognormal; this bench quantifies the mean-vs-nominal penalty and the
// tail (p95) across sigma values and temperatures for a 2000-gate block,
// and checks the Monte Carlo against the closed-form lognormal moments.
// A second section closes the loop thermally: the same VT0 spread pushed
// through the full concurrent power-thermal solve via the batched scenario
// engine (one shared geometry precompute, per-sample RNG streams), where
// the leakage tail compounds with self-heating.
#include <algorithm>
#include <iostream>
#include <vector>

#include "common/constants.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/scenario_batch.hpp"
#include "device/variation.hpp"
#include "floorplan/generators.hpp"
#include "netlist/netlist.hpp"

int main() {
  using namespace ptherm;

  const auto tech = device::Technology::cmos012();
  const netlist::CellLibrary lib(tech);
  Rng build(2718);
  const auto nl = netlist::make_random_netlist(lib, 2000, build);

  Table table("Variation study - 2000-gate block, Monte Carlo (400 samples)");
  table.set_columns({"sigma_vt0_mV", "T_C", "nominal_uA", "mean_uA", "mean/nominal",
                     "closed_form_penalty", "p95/nominal"});
  table.set_precision(4);

  for (double sigma_mv : {15.0, 30.0, 45.0}) {
    const device::VariationModel var{sigma_mv * 1e-3};
    for (double t_c : {25.0, 110.0}) {
      const auto seed = static_cast<std::uint64_t>(sigma_mv * 1000 + t_c);
      const auto stats =
          netlist::variation_leakage(nl, tech, var, celsius(t_c), 400, seed);
      table.add_row({sigma_mv, t_c, stats.nominal / uA, stats.mean / uA,
                     stats.mean / stats.nominal, var.mean_multiplier(tech, celsius(t_c)),
                     stats.p95 / stats.nominal});
    }
  }
  table.print(std::cout);
  table.write_csv_file("variation_study.csv");

  std::cout << "\nReading: the mean chip leaks exp(s^2/2) more than the nominal chip\n"
               "(s = sigma_vt0/(n*VT)); the penalty is worst cold, where n*VT is small.\n"
               "Nominal-corner leakage sign-off under-budgets by the 'mean/nominal' column.\n";

  // Electro-thermal Monte Carlo via the batched scenario engine: one shared
  // spectral precompute, 2000 samples of per-block VT0 offsets, each sample
  // a full concurrent solve. Self-heating amplifies the lognormal tail: a
  // leaky sample runs hotter, which makes it leak more still.
  thermal::Die die;
  die.width = 12e-3;
  die.height = 12e-3;
  die.thickness = 500e-6;
  die.k_si = 148.0;
  die.t_sink = 318.15;
  Rng fp_rng(2026);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 13.5;
  cfg.gates_per_mm2 = 50e3;
  const auto fp = floorplan::make_manycore(tech, die, 3, 3, cfg, fp_rng);

  core::CosimOptions opts;
  opts.backend = core::ThermalBackend::Spectral;
  opts.influence = core::InfluenceMode::MatrixFree;
  opts.spectral.modes_x = 32;
  opts.spectral.modes_y = 32;

  Table thermal_table(
      "Electro-thermal variation - 36-block plan, batched Monte Carlo (2000 samples)");
  thermal_table.set_columns({"sigma_vt0_mV", "nominal_leak_W", "mean_leak_W",
                             "p95_leak_W", "mean_Tmax_C", "p95_Tmax_C"});
  thermal_table.set_precision(4);

  for (double sigma_mv : {15.0, 30.0, 45.0}) {
    core::ScenarioBatch batch(tech, fp, opts);
    const std::size_t nominal_idx = batch.add_nominal();
    batch.add_variation_samples(device::VariationModel{sigma_mv * 1e-3}, 2000,
                                static_cast<std::uint64_t>(sigma_mv * 1000));
    const auto results = batch.solve_all();

    std::vector<double> leak, tmax;
    for (std::size_t k = nominal_idx + 1; k < results.size(); ++k) {
      leak.push_back(results[k].total_leakage);
      tmax.push_back(results[k].max_temperature);
    }
    std::sort(leak.begin(), leak.end());
    std::sort(tmax.begin(), tmax.end());
    const auto mean = [](const std::vector<double>& v) {
      double s = 0.0;
      for (const double x : v) s += x;
      return s / static_cast<double>(v.size());
    };
    const std::size_t p95 = leak.size() - 1 - leak.size() / 20;
    thermal_table.add_row({sigma_mv, results[nominal_idx].total_leakage, mean(leak),
                           leak[p95], mean(tmax) - 273.15, tmax[p95] - 273.15});
  }
  thermal_table.print(std::cout);
  thermal_table.write_csv_file("variation_study_thermal.csv");

  std::cout << "\nReading: self-heating compounds the lognormal penalty — the p95 sample\n"
               "both leaks and heats beyond what the isothermal study predicts.\n";
  return 0;
}
