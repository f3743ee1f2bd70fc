// Speed study S1 (co-simulation): the headline workflow — a concurrent
// power-thermal solve of a full floorplan — with the analytic backend (the
// paper's proposal) versus the FDM backend (the "numerical approach") versus
// the spectral Green's-function backend (one mode-space multiply per
// influence column). The three BM_InfluenceBuild* benches at 36 blocks are
// the PR-3 trajectory point: the same operator, one bar per backend.
#include <benchmark/benchmark.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/cosim.hpp"
#include "core/transient.hpp"
#include "floorplan/generators.hpp"
#include "telemetry_env.hpp"  // PTHERM_TELEMETRY=1 installs a span tracer

namespace {

using namespace ptherm;

thermal::Die die_1mm() {
  thermal::Die d;
  d.width = 1e-3;
  d.height = 1e-3;
  d.thickness = 350e-6;
  d.k_si = 148.0;
  d.t_sink = 318.15;
  return d;
}

floorplan::Floorplan plan(int nx, int ny, double p_total) {
  Rng rng(99);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = p_total;
  cfg.gates_per_mm2 = 1e5;
  return floorplan::make_uniform_grid(device::Technology::cmos012(), die_1mm(), nx, ny, cfg,
                                      rng);
}

// The perf trajectory records the Picard iteration count next to the wall
// time: a future "speedup" that merely changes convergence behaviour must
// show up as a counter change, not masquerade as a hot-path win.
void record_solve(benchmark::State& state, const core::CosimResult& r) {
  state.counters["picard_iterations"] = static_cast<double>(r.iterations);
  state.counters["converged"] = r.converged ? 1.0 : 0.0;
  state.counters["blocks"] = static_cast<double>(r.blocks.size());
}

void BM_CosimAnalytic(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto fp = plan(n, n, 4.0);
  core::CosimResult last;
  for (auto _ : state) {
    core::ElectroThermalSolver solver(device::Technology::cmos012(), fp, {});
    last = solver.solve();
    benchmark::DoNotOptimize(last);
  }
  record_solve(state, last);
}
BENCHMARK(BM_CosimAnalytic)->Arg(2)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_CosimFdm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto fp = plan(n, n, 4.0);
  core::CosimOptions opts;
  opts.backend = core::ThermalBackend::Fdm;
  opts.fdm.nx = 32;
  opts.fdm.ny = 32;
  opts.fdm.nz = 16;
  core::CosimResult last;
  long long cg_iterations = 0;
  for (auto _ : state) {
    core::ElectroThermalSolver solver(device::Technology::cmos012(), fp, opts);
    last = solver.solve();
    cg_iterations = solver.influence_build_stats().cg_iterations;
    benchmark::DoNotOptimize(last);
  }
  record_solve(state, last);
  state.counters["cg_iterations"] = static_cast<double>(cg_iterations);
}
BENCHMARK(BM_CosimFdm)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_CosimSpectral(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto fp = plan(n, n, 4.0);
  core::CosimOptions opts;
  opts.backend = core::ThermalBackend::Spectral;
  core::CosimResult last;
  thermal::BackendCostStats stats;
  for (auto _ : state) {
    core::ElectroThermalSolver solver(device::Technology::cmos012(), fp, opts);
    last = solver.solve();
    stats = solver.influence_build_stats();
    benchmark::DoNotOptimize(last);
  }
  record_solve(state, last);
  state.counters["modes"] = static_cast<double>(stats.modes);
  state.counters["fft_calls"] = static_cast<double>(stats.fft_calls);
}
BENCHMARK(BM_CosimSpectral)->Arg(2)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

// The influence-build trajectory point at >= 32 blocks: the batched
// warm-started IC(0) build (the PR-2 hot path) versus the seed semantics —
// per-column cold starts with the Jacobi-preconditioned CG the seed shipped.
// Solvers are constructed outside the loop in both cases (the seed also
// assembled once); the delta is pure solve work.
void BM_InfluenceBuildFdm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto fp = plan(n, n, 4.0);
  const auto tech = device::Technology::cmos012();
  thermal::FdmOptions opts;  // IC(0) by default
  const thermal::FdmThermalSolver solver(fp.die(), opts);
  const auto sources = fp.heat_sources(tech);
  const auto samples = core::block_centre_samples(fp);
  thermal::BackendCostStats stats;
  for (auto _ : state) {
    stats = {};
    benchmark::DoNotOptimize(
        thermal::fdm_influence_columns(solver, sources, samples, true, &stats));
  }
  state.counters["cg_iterations"] = static_cast<double>(stats.cg_iterations);
  state.counters["blocks"] = static_cast<double>(sources.size());
}
BENCHMARK(BM_InfluenceBuildFdm)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_InfluenceBuildFdmSeedPath(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto fp = plan(n, n, 4.0);
  const auto tech = device::Technology::cmos012();
  thermal::FdmOptions opts;
  opts.cg.preconditioner = numerics::CgPreconditioner::Jacobi;
  const thermal::FdmThermalSolver solver(fp.die(), opts);
  const auto sources = fp.heat_sources(tech);
  const auto samples = core::block_centre_samples(fp);
  thermal::BackendCostStats stats;
  for (auto _ : state) {
    stats = {};
    benchmark::DoNotOptimize(
        thermal::fdm_influence_columns(solver, sources, samples, false, &stats));
  }
  state.counters["cg_iterations"] = static_cast<double>(stats.cg_iterations);
  state.counters["blocks"] = static_cast<double>(sources.size());
}
BENCHMARK(BM_InfluenceBuildFdmSeedPath)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_InfluenceBuildAnalytic(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto fp = plan(n, n, 4.0);
  const auto tech = device::Technology::cmos012();
  const auto sources = fp.heat_sources(tech);
  const auto samples = core::block_centre_samples(fp);
  for (auto _ : state) {
    benchmark::DoNotOptimize(thermal::analytic_influence_columns(fp.die(), sources, samples, {}));
  }
  state.counters["blocks"] = static_cast<double>(sources.size());
}
BENCHMARK(BM_InfluenceBuildAnalytic)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_InfluenceBuildSpectral(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto fp = plan(n, n, 4.0);
  const auto tech = device::Technology::cmos012();
  const thermal::SpectralThermalSolver solver(fp.die(), {});
  const auto sources = fp.heat_sources(tech);
  const auto samples = core::block_centre_samples(fp);
  thermal::BackendCostStats stats;
  for (auto _ : state) {
    stats = {};
    benchmark::DoNotOptimize(thermal::spectral_influence_columns(solver, sources, samples, &stats));
  }
  state.counters["blocks"] = static_cast<double>(sources.size());
  state.counters["modes"] = static_cast<double>(stats.modes);
}
BENCHMARK(BM_InfluenceBuildSpectral)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_CosimIterationOnly(benchmark::State& state) {
  // The fixed point after the influence matrix exists: this is the marginal
  // cost of re-running the concurrent solve when only powers change.
  const auto fp = plan(6, 6, 4.0);
  core::ElectroThermalSolver solver(device::Technology::cmos012(), fp, {});
  core::CosimResult last;
  for (auto _ : state) {
    last = solver.solve();
    benchmark::DoNotOptimize(last);
  }
  record_solve(state, last);
}
BENCHMARK(BM_CosimIterationOnly)->Unit(benchmark::kMillisecond);


// The PR-4 trajectory point: a 36-block, 200-step transient co-simulation
// on the two transient-capable backends. The FDM path pays one backward-
// Euler IC(0)-CG solve per step; the spectral path pays one exact per-mode
// exponential update (a mode-space axpy) plus the interned two-pass cosine
// synthesis of the block temperatures — the counters record where the work
// went so a convergence change cannot masquerade as a speedup.
void transient_counters(benchmark::State& state, const core::TransientCosimResult& r) {
  state.counters["steps"] = static_cast<double>(r.backend_stats.transient_steps);
  state.counters["cg_iterations"] = static_cast<double>(r.backend_stats.cg_iterations);
  state.counters["modes"] = static_cast<double>(r.backend_stats.modes);
  state.counters["fft_calls"] = static_cast<double>(r.backend_stats.fft_calls);
  state.counters["blocks"] = static_cast<double>(r.block_temps.empty()
                                                     ? 0
                                                     : r.block_temps.front().size());
}

void BM_TransientCosimFdm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto fp = plan(n, n, 4.0);
  core::TransientCosimOptions opts;
  opts.backend = core::ThermalBackend::Fdm;
  opts.fdm.nx = 32;
  opts.fdm.ny = 32;
  opts.fdm.nz = 16;
  opts.dt = 1e-4;
  opts.t_stop = 20e-3;  // 200 steps
  opts.record_every = 10;
  const core::ActivityProfile profile = [](std::size_t, double) { return 1.0; };
  core::TransientCosimResult last;
  for (auto _ : state) {
    last = core::solve_transient_cosim(device::Technology::cmos012(), fp, profile, opts);
    benchmark::DoNotOptimize(last);
  }
  transient_counters(state, last);
}
BENCHMARK(BM_TransientCosimFdm)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_TransientCosimSpectral(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto fp = plan(n, n, 4.0);
  core::TransientCosimOptions opts;
  opts.backend = core::ThermalBackend::Spectral;
  opts.dt = 1e-4;
  opts.t_stop = 20e-3;  // 200 steps
  opts.record_every = 10;
  const core::ActivityProfile profile = [](std::size_t, double) { return 1.0; };
  core::TransientCosimResult last;
  for (auto _ : state) {
    last = core::solve_transient_cosim(device::Technology::cmos012(), fp, profile, opts);
    benchmark::DoNotOptimize(last);
  }
  transient_counters(state, last);
}
BENCHMARK(BM_TransientCosimSpectral)->Arg(6)->Unit(benchmark::kMillisecond);

// The spectral transient at manycore scale (the arg is the block count,
// t x t make_manycore tiles of 4 blocks on a 16 mm die): 20 steps, each one
// a power update (leakage follows the temperatures), a re-projection through
// the interned source half and a readback through the interned sample half.
// Neither half grows with n * modes, so the step stays a few ms at 4096
// blocks. The 36-block BM_TransientCosimSpectral above is the small-n point.
void BM_TransientCosimManycore(benchmark::State& state) {
  const int tiles = static_cast<int>(std::lround(std::sqrt(state.range(0) / 4.0)));
  thermal::Die die = die_1mm();
  die.width = 16e-3;
  die.height = 16e-3;
  Rng rng(2026);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 1.5 * tiles * tiles;  // 1.5 W per tile
  cfg.gates_per_mm2 = 50e3;
  const auto fp = floorplan::make_manycore(device::Technology::cmos012(), die, tiles, tiles,
                                           cfg, rng);
  core::TransientCosimOptions opts;
  opts.backend = core::ThermalBackend::Spectral;
  opts.dt = 1e-4;
  opts.t_stop = 20 * opts.dt;  // 20 power-updating steps
  opts.record_every = 10;
  const core::ActivityProfile profile = [](std::size_t, double) { return 1.0; };
  core::TransientCosimResult last;
  for (auto _ : state) {
    last = core::solve_transient_cosim(device::Technology::cmos012(), fp, profile, opts);
    benchmark::DoNotOptimize(last);
  }
  transient_counters(state, last);
}
BENCHMARK(BM_TransientCosimManycore)->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);

}  // namespace
