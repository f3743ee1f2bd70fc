// batch_mc_10k: one ScenarioBatch::solve_all over 10 000 VT0 Monte Carlo
// samples of the 36-block manycore plan per operation (spectral,
// matrix-free, 32 x 32 modes, multi-RHS apply_batch). Few blocks, so the
// compiled per-block leakage evaluated per scenario and iteration is a large
// share next to the blocked influence apply.
#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/scenario_batch.hpp"
#include "device/variation.hpp"
#include "floorplan/generators.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace ptherm;

constexpr int kSamples = 10000;
constexpr int kSpotChecks = 4;  // sampled scenarios re-solved standalone

thermal::Die die_12mm() {
  thermal::Die d;
  d.width = 12e-3;
  d.height = 12e-3;
  d.thickness = 500e-6;
  d.k_si = 148.0;
  d.t_sink = 318.15;
  return d;
}

// 3 x 3 tiles x 4 blocks: the 36-block plan.
floorplan::Floorplan make_plan(const device::Technology& tech, std::uint64_t seed) {
  Rng rng(sub_seed(seed, 1));
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 13.5;  // 1.5 W per tile
  cfg.gates_per_mm2 = 50e3;
  return floorplan::make_manycore(tech, die_12mm(), 3, 3, cfg, rng);
}

core::CosimOptions options() {
  core::CosimOptions opts;
  opts.backend = core::ThermalBackend::Spectral;
  opts.influence = core::InfluenceMode::MatrixFree;
  opts.spectral.modes_x = 32;
  opts.spectral.modes_y = 32;
  opts.damping = 1.0;
  return opts;
}

const device::VariationModel kVariation{0.03};

std::unique_ptr<core::ScenarioBatch> make_batch(const device::Technology& tech,
                                                const floorplan::Floorplan& fp) {
  return std::make_unique<core::ScenarioBatch>(tech, fp, options());
}

/// Sum of every scenario's temperatures: one number that changes when any
/// temperature of any scenario changes.
double checksum(const std::vector<core::ScenarioResult>& results) {
  double s = 0.0;
  for (const auto& r : results) {
    for (double t : r.temperatures) s += t;
  }
  return s;
}

int max_iterations(const std::vector<core::ScenarioResult>& results) {
  int m = 0;
  for (const auto& r : results) m = std::max(m, r.iterations);
  return m;
}

void check_physics(Report& report, long long op, const std::vector<core::ScenarioResult>& rs,
                   double t_sink) {
  for (const auto& r : rs) {
    if (!r.converged || r.runaway) {
      report.fail(op, "a Monte Carlo scenario did not converge");
      return;
    }
    for (double t : r.temperatures) {
      if (!std::isfinite(t) || t < t_sink || t > t_sink + 300.0) {
        report.fail(op, "scenario temperature outside [sink, sink + 300 K]");
        return;
      }
    }
  }
}

/// The engine's documented contract: scenario k of the batch is bitwise the
/// standalone ElectroThermalSolver run with the scenario's powers and
/// set_leakage_adjust(scenario_adjust(k)).
void spot_check(Report& report, const floorplan::Floorplan& fp, const core::ScenarioBatch& batch,
                const std::vector<core::ScenarioResult>& rs,
                std::uint64_t seed) {
  Rng pick(sub_seed(seed, 3));
  for (int c = 0; c < kSpotChecks; ++c) {
    const std::size_t k = pick.uniform_index(rs.size());
    floorplan::Floorplan scenario_fp = fp;
    const auto powers = batch.scenario_powers(k);
    for (std::size_t i = 0; i < powers.size(); ++i) {
      scenario_fp.blocks()[i].p_dynamic = powers[i];
    }
    core::ElectroThermalSolver solver(batch.level_technology(batch.scenario_level(k)),
                                      scenario_fp, options());
    solver.set_leakage_adjust(batch.scenario_adjust(k));
    const auto r = solver.solve();
    report.attempt();
    const long long op = -100 - c;
    expect_same(report, op, "spot-check iterations", r.iterations, rs[k].iterations);
    for (std::size_t i = 0; i < r.blocks.size(); ++i) {
      expect_same(report, op, "spot-check temperature", r.blocks[i].temperature,
                  rs[k].temperatures[i]);
    }
  }
}

void add_reference(Report& report, const std::vector<core::ScenarioResult>& rs) {
  double mean_max = 0.0;
  for (const auto& r : rs) mean_max += r.max_temperature;
  report.reference("mean_max_temperature", mean_max / static_cast<double>(rs.size()));
  for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{2}, rs.size() - 1}) {
    report.reference("scenario_" + std::to_string(k) + "_max_temperature",
                     rs[k].max_temperature);
  }
  for (std::size_t i = 0; i < rs[0].temperatures.size(); ++i) {
    report.reference("scenario_0_block_" + std::to_string(i), rs[0].temperatures[i]);
  }
}

}  // namespace

void run_batch_mc(const RunConfig& cfg, Report& report) {
  const auto tech = device::Technology::cmos012();
  const auto fp = make_plan(tech, cfg.seed);
  const double t_sink = fp.die().t_sink;

  const auto make = [&] { return make_batch(tech, fp); };
  Samples setups;
  const auto batch = timed_setup(make, setups, 1, 1, 0.0);
  const auto repeat_setup = [&] { timed_setup(make, setups, 20, 1000000, 1.5); };
  batch->add_variation_samples(kVariation, kSamples, sub_seed(cfg.seed, 2));

  const std::vector<core::ScenarioResult> first = batch->solve_all();
  const core::ScenarioBatchStats per_op = batch->stats();  // exactly one solve_all so far
  report.attempt();
  check_physics(report, 0, first, t_sink);
  spot_check(report, fp, *batch, first, cfg.seed);
  const double first_sum = checksum(first);

  // The reference check runs after the timed part: re-solving the reference
  // seed's inputs must not show up in peak_rss_mb.
  const auto check_reference = [&] {
    if (cfg.reference_seed == cfg.seed) {
      add_reference(report, first);
    } else {
      const auto ref_fp = make_plan(tech, cfg.reference_seed);
      const auto ref = make_batch(tech, ref_fp);
      ref->add_variation_samples(kVariation, kSamples, sub_seed(cfg.reference_seed, 2));
      const auto rs = ref->solve_all();
      report.attempt();
      check_physics(report, -1, rs, t_sink);
      add_reference(report, rs);
    }
  };

  long long op = 0;
  const auto solve = [&] { return batch->solve_all(); };
  const auto check = [&](const std::vector<core::ScenarioResult>& rs) {
    report.attempt();
    expect_same(report, ++op, "temperature checksum", checksum(rs), first_sum);
  };

  if (!cfg.trace) {
    const LoopSamples ops = closed_loop(cfg.seconds, 5, solve, check);
    report_end_to_end(report, ops);
    repeat_setup();
    report_setup(report, setups);
    check_reference();
    return;
  }
  repeat_setup();

  // Per-layer split: replays once per round of traced_split, on a
  // standalone solver built with the batch's options — the same influence
  // operator and compiled leakage programs the batch owns — at the converged
  // state of the first `chunk` scenarios.
  const core::ElectroThermalSolver solver(tech, fp, options());
  const auto& compiled_leakage = solver.compiled_leakage();
  const std::size_t n = fp.blocks().size();
  const int chunk = core::ScenarioBatchOptions{}.chunk;
  std::vector<double> powers(static_cast<std::size_t>(chunk) * n);
  for (int k = 0; k < chunk; ++k) {
    const auto adjust = batch->scenario_adjust(static_cast<std::size_t>(k));
    for (std::size_t i = 0; i < n; ++i) {
      powers[k * n + i] = fp.blocks()[i].p_dynamic +
                          core::adjusted_leakage_power(tech, compiled_leakage[i],
                                                       first[k].temperatures[i], 0.0, adjust[i]);
    }
  }
  std::vector<double> rises(powers.size());
  const auto adjust0 = batch->scenario_adjust(0);
  const auto& temps0 = first[0].temperatures;
  const thermal::InfluenceApply& influence = solver.influence_apply();
  Replay apply("perfbench/thermal.apply");
  Replay apply_batch("perfbench/thermal.apply_batch");
  Replay compiled("perfbench/floorplan.leakage_compiled");
  Replay walk("perfbench/floorplan.leakage_walk");

  TraceSession session;
  const SplitSamples split = traced_split(
      session, cfg.seconds, 3,
      [&] {
        const telemetry::Span span("perfbench/core.solve_all");
        return batch->solve_all();
      },
      check,
      [&] {
        apply.run([&] {
          influence.apply(std::span<const double>(powers.data(), n),
                          std::span<double>(rises.data(), n));
          keep(rises[0]);
        });
        apply_batch.run([&] {
          influence.apply_batch(powers, rises, static_cast<std::size_t>(chunk));
          keep(rises[0]);
        });
        compiled.run([&] {
          double p = 0.0;
          for (std::size_t i = 0; i < n; ++i) {
            p += core::adjusted_leakage_power(tech, compiled_leakage[i], temps0[i], 0.0,
                                              adjust0[i]);
          }
          keep(p);
        });
        walk.run([&] {
          double p = 0.0;
          for (std::size_t i = 0; i < n; ++i) p += fp.blocks()[i].leakage_power(tech, temps0[i]);
          keep(p);
        });
      });
  session.write(cfg.trace_out, report);

  // Per scenario-iteration: one chunk-wide apply's share of one scenario,
  // and one leakage evaluation of every block (plus one per scenario for the
  // converged result).
  const double iterations = static_cast<double>(per_op.picard_iterations_total);
  const double evaluations = iterations + static_cast<double>(per_op.scenarios);
  const auto apply_s = [&](std::size_t k) { return apply_batch.seconds(k) / chunk * iterations; };
  const auto leakage_s = [&](std::size_t k) { return compiled.seconds(k) * evaluations; };
  report.metric("thermal.apply_us", apply.us(), "us");
  report.metric("thermal.apply_batch_us", apply_batch.us(), "us");
  report.metric("thermal.apply_share", paired_share(split, apply_s), "frac");
  report.count("thermal.modes", batch->influence_build_stats().modes);
  report.metric("core.solver_build_ms", 1e3 * setups.min(), "ms");
  report.count("core.picard_iterations", max_iterations(first));
  report.count("core.picard_iterations_total", per_op.picard_iterations_total);
  report.count("core.batched_matvecs", per_op.batched_matvecs);
  report.count("core.masked_iterations_saved", per_op.masked_iterations_saved);
  report.metric("core.picard_self_share",
                1.0 - paired_share(split, [&](std::size_t k) { return apply_s(k) + leakage_s(k); }),
                "frac");
  report.metric("floorplan.leakage_compiled_us", compiled.us(), "us");
  report.metric("floorplan.leakage_walk_us", walk.us(), "us");
  report.metric("floorplan.leakage_share", paired_share(split, leakage_s), "frac");
  report_split(report, split, kSamples);
  check_reference();
}

}  // namespace perfbench
