// Speed study S8 (batched scenario engine): the PR-8 trajectory point.
// Thousands of steady concurrent power-thermal solves against ONE shared
// geometry precompute:
//  * BM_ScenarioBatchVariation: a 10000-sample Monte Carlo VT0-variation
//    study on a 36-block manycore plan, spectral matrix-free, blocked Picard
//    sweeps — the headline is us_per_scenario, the amortized cost of one
//    full electro-thermal solve (construction included, spread over the
//    batch). The PR-8 acceptance bar is <= 100 us/sample. Per 64-scenario
//    chunk and sweep it times one multi-RHS apply and one batched leakage
//    evaluation of all the chunk's active blocks (plus one per exit sweep).
//  * BM_ScenarioBatchCorners: a V/f corner screen (5 supplies x 4 relative
//    frequencies) on the same plan, per backend influence mode; its chunk
//    mixes levels, so the batched leakage runs one technology per block.
//  * BM_SpectralApplyBatch: the spectral multi-RHS influence apply alone on
//    that plan at counts 1, 4, 5 and 64 — us_per_vector shows what the
//    4-vector register blocks save over lone applies. The blocks run in
//    the AVX2 clone where the CPU has AVX2 and as SSE2 pairs otherwise
//    (numerics::dispatched_isa), so compare this row across hosts with care.
// The batch counters pin the trajectory: scenarios, batched_matvecs (blocked
// multi-RHS applies issued), picard_iterations_total, and the
// scenario-iterations the convergence masks saved — a regression in blocked
// efficiency shows up in the counters, not just inside wall time.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/scenario_batch.hpp"
#include "device/variation.hpp"
#include "floorplan/generators.hpp"
#include "thermal/backend.hpp"
#include "telemetry_env.hpp"  // PTHERM_TELEMETRY=1 installs a span tracer

namespace {

using namespace ptherm;

thermal::Die die_12mm() {
  thermal::Die d;
  d.width = 12e-3;
  d.height = 12e-3;
  d.thickness = 500e-6;
  d.k_si = 148.0;
  d.t_sink = 318.15;
  return d;
}

// 3 x 3 tiles, 4 blocks per tile: the 36-block plan of the acceptance bar.
floorplan::Floorplan plan_36() {
  Rng rng(2026);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 13.5;  // 1.5 W per tile
  cfg.gates_per_mm2 = 50e3;
  return floorplan::make_manycore(device::Technology::cmos012(), die_12mm(), 3, 3, cfg,
                                  rng);
}

core::CosimOptions batch_opts() {
  core::CosimOptions opts;
  opts.backend = core::ThermalBackend::Spectral;
  opts.influence = core::InfluenceMode::MatrixFree;
  opts.spectral.modes_x = 32;
  opts.spectral.modes_y = 32;
  return opts;
}

void record_batch(benchmark::State& state, const core::ScenarioBatch& batch,
                  const std::vector<core::ScenarioResult>& results) {
  const auto& stats = batch.stats();
  state.counters["scenarios"] = static_cast<double>(stats.scenarios);
  state.counters["batched_matvecs"] = static_cast<double>(stats.batched_matvecs);
  state.counters["picard_iterations_total"] =
      static_cast<double>(stats.picard_iterations_total);
  state.counters["masked_iterations_saved"] =
      static_cast<double>(stats.masked_iterations_saved);
  state.counters["modes"] = static_cast<double>(batch.influence_build_stats().modes);
  state.counters["blocks"] = static_cast<double>(batch.block_count());
  double converged = 0.0;
  for (const auto& r : results) converged += r.converged ? 1.0 : 0.0;
  state.counters["converged_fraction"] = converged / static_cast<double>(results.size());
}

void BM_ScenarioBatchVariation(benchmark::State& state) {
  const int samples = static_cast<int>(state.range(0));
  const auto fp = plan_36();
  const device::VariationModel var{0.03};
  std::vector<core::ScenarioResult> results;
  for (auto _ : state) {
    // Construction is inside the timed region on purpose: us_per_scenario is
    // the honest amortized cost including the shared precompute.
    core::ScenarioBatch batch(device::Technology::cmos012(), fp, batch_opts());
    batch.add_variation_samples(var, samples, /*base_seed=*/2718);
    results = batch.solve_all();
    benchmark::DoNotOptimize(results);
    state.PauseTiming();
    record_batch(state, batch, results);
    state.ResumeTiming();
  }
  state.counters["samples"] = static_cast<double>(samples);
  state.counters["us_per_scenario"] = benchmark::Counter(
      static_cast<double>(samples) * 1e-6,
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  // items_per_second in the JSON is the amortized scenario rate; the
  // acceptance bar (<= 100 us/sample at 10k) reads as >= 10000 items/s.
  state.SetItemsProcessed(state.iterations() * samples);
}
BENCHMARK(BM_ScenarioBatchVariation)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_ScenarioBatchCorners(benchmark::State& state) {
  const bool dense = state.range(0) != 0;
  const auto fp = plan_36();
  const auto tech = device::Technology::cmos012();
  core::CosimOptions opts = batch_opts();
  opts.influence = dense ? core::InfluenceMode::Dense : core::InfluenceMode::MatrixFree;
  std::vector<core::ScenarioResult> results;
  for (auto _ : state) {
    core::ScenarioBatch batch(tech, fp, opts);
    for (const double v_frac : {0.8, 0.9, 1.0, 1.05, 1.1}) {
      for (const double f_scale : {0.4, 0.6, 0.8, 1.0}) {
        batch.add_vf_corner(tech.vdd * v_frac, f_scale);
      }
    }
    results = batch.solve_all();
    benchmark::DoNotOptimize(results);
    state.PauseTiming();
    record_batch(state, batch, results);
    state.ResumeTiming();
  }
  state.counters["corners"] = 20.0;
  state.counters["dense"] = dense ? 1.0 : 0.0;
  state.SetItemsProcessed(state.iterations() * 20);
}
BENCHMARK(BM_ScenarioBatchCorners)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_SpectralApplyBatch(benchmark::State& state) {
  // The multi-RHS spectral apply alone, on the plan and modes of the batch
  // studies: count 1 is the lone apply, count 4 one register block, count 5
  // one block plus a lone remainder, count 64 the batch engine's chunk.
  // us_per_vector is the per-scenario cost.
  const auto count = static_cast<std::size_t>(state.range(0));
  const auto fp = plan_36();
  const auto sources = fp.heat_sources(device::Technology::cmos012());
  const thermal::SpectralBackend backend(fp.die(), batch_opts().spectral);
  const auto op = backend.make_influence_apply(sources, core::block_centre_samples(fp));
  const std::size_t n = sources.size();
  Rng rng(64);
  std::vector<double> powers(count * n);
  for (auto& p : powers) p = rng.uniform(0.0, 0.5);
  std::vector<double> rises(count * n);
  for (auto _ : state) {
    op->apply_batch(powers, rises, count);
    benchmark::DoNotOptimize(rises.data());
    benchmark::ClobberMemory();
  }
  state.counters["blocks"] = static_cast<double>(n);
  state.counters["us_per_vector"] = benchmark::Counter(
      static_cast<double>(count) * 1e-6,
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(count));
}
BENCHMARK(BM_SpectralApplyBatch)
    ->Arg(1)
    ->Arg(4)
    ->Arg(5)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
