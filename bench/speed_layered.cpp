// Speed study S6 (die stacks): the PR-7 trajectory point. A 36-block,
// 200-step transient co-simulation on a genuinely layered die/TIM/copper
// stack with a dynamic package-RC boundary, next to the single-layer
// spectral reference solving the same floorplan — the layered transfer-
// matrix z-stack must stay within a small constant factor of the legacy
// closed form (the per-step cost is still O(modes); the eigensolve is paid
// once at setup). BM_RtmPackageTransient prices the closed-loop RTM stack
// on top of the packaged plant.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "core/cosim.hpp"
#include "core/transient.hpp"
#include "floorplan/generators.hpp"
#include "rtm/actuator.hpp"
#include "rtm/policy.hpp"
#include "rtm/simulator.hpp"
#include "rtm/trace.hpp"
#include "thermal/rc.hpp"
#include "thermal/stack.hpp"
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

// Die silicon, thermal interface, copper spreader, closed by a two-stage
// Cauer package network: the representative "real package" configuration
// the layered tests validate against FDM.
thermal::DieStack sandwich_stack(const thermal::Die& die) {
  thermal::BoundarySpec pkg;
  pkg.kind = thermal::BoundaryKind::RcNetwork;
  pkg.rc.emplace(std::vector<thermal::ThermalRc>{{0.4, 8e-3}, {1.2, 0.15}});
  return thermal::DieStack({{"die", die.thickness, die.k_si, 1.631e6},
                            {"tim", 25e-6, 4.0, 2.2e6},
                            {"spreader", 500e-6, 390.0, 3.4e6}},
                           pkg);
}

void transient_counters(benchmark::State& state, const core::TransientCosimResult& r) {
  state.counters["steps"] = static_cast<double>(r.backend_stats.transient_steps);
  state.counters["modes"] = static_cast<double>(r.backend_stats.modes);
  state.counters["blocks"] = static_cast<double>(
      r.block_temps.empty() ? 0 : r.block_temps.front().size());
  state.counters["case_rise_K"] = r.case_rise.empty() ? 0.0 : r.case_rise.back();
}

core::TransientCosimOptions transient_opts() {
  core::TransientCosimOptions opts;
  opts.backend = core::ThermalBackend::Spectral;
  opts.dt = 1e-4;
  opts.t_stop = 20e-3;  // 200 steps, matching BM_TransientCosimSpectral
  opts.record_every = 10;
  return opts;
}

// The acceptance pair: identical floorplan, identical step count; the only
// delta is the three-layer transfer-matrix stack + dynamic boundary versus
// the legacy single-slab closed form. Compare real_time of these two
// entries to price the layered machinery.
void BM_CosimLayered(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto fp = plan(n, n, 4.0);
  auto opts = transient_opts();
  opts.stack = sandwich_stack(fp.die());
  const core::ActivityProfile profile = [](std::size_t, double) { return 1.0; };
  core::TransientCosimResult last;
  for (auto _ : state) {
    last = core::solve_transient_cosim(device::Technology::cmos012(), fp, profile, opts);
    benchmark::DoNotOptimize(last);
  }
  transient_counters(state, last);
}
BENCHMARK(BM_CosimLayered)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_CosimSingleLayerReference(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto fp = plan(n, n, 4.0);
  const auto opts = transient_opts();
  const core::ActivityProfile profile = [](std::size_t, double) { return 1.0; };
  core::TransientCosimResult last;
  for (auto _ : state) {
    last = core::solve_transient_cosim(device::Technology::cmos012(), fp, profile, opts);
    benchmark::DoNotOptimize(last);
  }
  transient_counters(state, last);
}
BENCHMARK(BM_CosimSingleLayerReference)->Arg(6)->Unit(benchmark::kMillisecond);

// Closed-loop RTM on the packaged plant: trace -> sensors -> policy ->
// actuation -> layered spectral plant with the case node as a state. This
// is the end-to-end cost of runtime thermal management when the boundary
// is no longer a constant.
void BM_RtmPackageTransient(benchmark::State& state) {
  const auto fp = plan(6, 6, 12.0);
  const auto tech = device::Technology::cmos012();
  rtm::BurstPattern pattern;
  pattern.period = 4e-3;
  pattern.duty = 0.5;
  pattern.high = 1.5;
  pattern.phase_step = 0.1;
  const auto trace = rtm::make_burst_trace(fp.blocks().size(), 50, 1e-3, pattern);
  const auto ladder = rtm::VfLadder::uniform(tech.vdd, 2e9, 5, 0.75, 0.4);
  rtm::RtmOptions opts;
  opts.backend = core::ThermalBackend::Spectral;
  opts.dt = 1e-4;
  opts.steps_per_epoch = 2;
  opts.temperature_cap = 363.15;
  opts.stack = sandwich_stack(fp.die());
  rtm::ThresholdPolicy policy;
  rtm::RtmResult last;
  for (auto _ : state) {
    rtm::Actuator actuator(tech, fp, ladder);
    last = rtm::run_rtm(tech, fp, trace, policy, actuator, opts);
    benchmark::DoNotOptimize(last);
  }
  state.counters["epochs"] = static_cast<double>(last.metrics.epochs);
  state.counters["interventions"] = static_cast<double>(last.metrics.interventions);
  state.counters["peak_K"] = last.metrics.peak_temperature;
}
BENCHMARK(BM_RtmPackageTransient)->Unit(benchmark::kMillisecond);

}  // namespace
