// Speed study S1 (thermal): closed-form image-method evaluation versus the
// FDM reference versus the spectral Green's-function solver, plus the cost
// anatomy of the analytic model (kernel, z-series, full map) and the
// spectral transient step.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "floorplan/generators.hpp"
#include "thermal/fdm.hpp"
#include "thermal/images.hpp"
#include "thermal/spectral.hpp"
#include "telemetry_env.hpp"  // PTHERM_TELEMETRY=1 installs a span tracer

namespace {

using namespace ptherm;

thermal::Die die_1mm() {
  thermal::Die d;
  d.width = 1e-3;
  d.height = 1e-3;
  d.thickness = 350e-6;
  d.k_si = 148.0;
  d.t_sink = 300.0;
  return d;
}

std::vector<thermal::HeatSource> three_sources() {
  const auto tech = device::Technology::cmos012();
  return floorplan::make_three_block_ic(tech, die_1mm(), 0.5, 0.3, 0.2)
      .heat_sources(tech);
}

void BM_RectKernelExact(benchmark::State& state) {
  const thermal::HeatSource src{0.0, 0.0, 1e-6, 0.1e-6, 10e-3};
  double x = 0.0;
  for (auto _ : state) {
    x = (x < 5e-6) ? x + 1e-9 : 0.0;
    benchmark::DoNotOptimize(thermal::rect_rise_exact(148.0, src, x, 0.3e-6));
  }
}
BENCHMARK(BM_RectKernelExact);

void BM_RectKernelMin(benchmark::State& state) {
  const thermal::HeatSource src{0.0, 0.0, 1e-6, 0.1e-6, 10e-3};
  double x = 0.0;
  for (auto _ : state) {
    x = (x < 5e-6) ? x + 1e-9 : 0.0;
    benchmark::DoNotOptimize(thermal::rect_rise_min(148.0, src, x, 0.3e-6));
  }
}
BENCHMARK(BM_RectKernelMin);

void BM_ChipModelPointQuery(benchmark::State& state) {
  thermal::ImageOptions opts;
  opts.lateral_order = static_cast<int>(state.range(0));
  const thermal::ChipThermalModel model(die_1mm(), three_sources(), opts);
  double x = 0.0;
  for (auto _ : state) {
    x = (x < 0.9e-3) ? x + 1e-7 : 0.0;
    benchmark::DoNotOptimize(model.rise(x, 0.5e-3));
  }
}
BENCHMARK(BM_ChipModelPointQuery)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_ChipModelSurfaceMap(benchmark::State& state) {
  thermal::ImageOptions opts;
  opts.lateral_order = 2;
  const thermal::ChipThermalModel model(die_1mm(), three_sources(), opts);
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.surface_map(n, n));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_ChipModelSurfaceMap)->Arg(32)->Arg(64);

void BM_FdmSteadySolve(benchmark::State& state) {
  thermal::FdmOptions opts;
  const int n = static_cast<int>(state.range(0));
  opts.nx = n;
  opts.ny = n;
  opts.nz = n / 2;
  const thermal::FdmThermalSolver solver(die_1mm(), opts);
  const auto sources = three_sources();
  int cg_iterations = 0;
  for (auto _ : state) {
    const auto sol = solver.solve_steady(sources);
    cg_iterations = sol.cg_iterations;
    benchmark::DoNotOptimize(sol);
  }
  state.counters["cg_iterations"] = static_cast<double>(cg_iterations);
}
BENCHMARK(BM_FdmSteadySolve)->Arg(16)->Arg(32)->Arg(48)->Unit(benchmark::kMillisecond);

void BM_FdmWarmStartedResolve(benchmark::State& state) {
  thermal::FdmOptions opts;
  opts.nx = 32;
  opts.ny = 32;
  opts.nz = 16;
  const thermal::FdmThermalSolver solver(die_1mm(), opts);
  auto sources = three_sources();
  auto sol = solver.solve_steady(sources);
  for (auto _ : state) {
    sources[0].power *= 1.001;  // small perturbation, as in a cosim iteration
    sol = solver.solve_steady(sources, &sol.rise);
    benchmark::DoNotOptimize(sol);
  }
  state.counters["cg_iterations"] = static_cast<double>(sol.cg_iterations);
}
BENCHMARK(BM_FdmWarmStartedResolve)->Unit(benchmark::kMillisecond);

void BM_SpectralSteadySolve(benchmark::State& state) {
  // A spectral "solve" is the analytic mode projection plus the per-mode
  // transfer — no linear system. Contrast with BM_FdmSteadySolve.
  const thermal::SpectralThermalSolver solver(die_1mm(), {});
  const auto sources = three_sources();
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve_steady(sources));
  }
  state.counters["modes"] = static_cast<double>(solver.mode_count());
}
BENCHMARK(BM_SpectralSteadySolve)->Unit(benchmark::kMillisecond);

void BM_SpectralSurfaceMap(benchmark::State& state) {
  // DCT-synthesized full-surface map: O(M log M) versus the image model's
  // O(points x images) sweep in BM_ChipModelSurfaceMap. 48 is not a power of
  // two: that grid goes through the sample half's interned cosine tables.
  const thermal::SpectralThermalSolver solver(die_1mm(), {});
  const auto sol = solver.solve_steady(three_sources());
  const int n = static_cast<int>(state.range(0));
  const long long fft_before = solver.fft_calls();
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.surface_map(sol, n, n));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
  // Per-map FFT count (the counter itself is cumulative; the raw value would
  // scale with however many iterations this machine happened to run).
  state.counters["fft_calls"] =
      static_cast<double>(solver.fft_calls() - fft_before) /
      static_cast<double>(state.iterations());
  state.counters["modes"] = static_cast<double>(solver.mode_count());
}
BENCHMARK(BM_SpectralSurfaceMap)
    ->Arg(32)
    ->Arg(48)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_SpectralTransientStep(benchmark::State& state) {
  // One folded epoch step (h = 1 ms) of the rtm_trace_100k plant: 36 blocks
  // of a 6 x 6 grid on a 1 mm die, 32 x 32 x 8 modes. Arg 0 holds the
  // powers, so the step is the mode-space update alone; arg 1 alternates two
  // power vectors, so every step re-projects the sources first.
  const auto tech = device::Technology::cmos012();
  Rng rng(1);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 16.0;
  cfg.gates_per_mm2 = 1e5;
  const auto held = floorplan::make_uniform_grid(tech, die_1mm(), 6, 6, cfg, rng)
                        .heat_sources(tech);
  auto moved = held;
  for (auto& s : moved) s.power *= 0.5;
  thermal::SpectralOptions opts;
  opts.modes_x = 32;
  opts.modes_y = 32;
  const thermal::SpectralThermalSolver solver(die_1mm(), opts);
  auto field = solver.make_transient();
  solver.step_transient(field, 1e-3, held);
  const bool moving = state.range(0) != 0;
  const long long updates_before = solver.transient_power_updates();
  bool flip = false;
  for (auto _ : state) {
    flip = moving && !flip;
    solver.step_transient(field, 1e-3, flip ? moved : held);
    benchmark::DoNotOptimize(field.surface.coeff.data());
  }
  // Re-projections per step: 0 held, 1 moving.
  state.counters["power_updates"] =
      static_cast<double>(solver.transient_power_updates() - updates_before) /
      static_cast<double>(state.iterations());
  state.counters["modes"] = static_cast<double>(solver.mode_count());
}
BENCHMARK(BM_SpectralTransientStep)->Arg(0)->Arg(1);

}  // namespace
