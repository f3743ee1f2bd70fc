// steady_manycore_4096: one steady concurrent power-thermal solve of a
// 32 x 32-tile manycore plan (4096 blocks) per operation, spectral backend,
// matrix-free influence. The paper's concurrent solve at manycore scale:
// the mode-space influence apply dominates the solve, the influence build
// dominates set-up, leakage is a small share.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/constants.hpp"
#include "core/cosim.hpp"
#include "floorplan/generators.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using namespace ptherm;

constexpr int kTiles = 32;  // 32 x 32 tiles x 4 blocks = 4096 blocks
constexpr int kReferenceStride = 64;

thermal::Die die_16mm() {
  thermal::Die d;
  d.width = 16e-3;
  d.height = 16e-3;
  d.thickness = 350e-6;
  d.k_si = kSiliconThermalConductivity;
  d.t_sink = celsius(45.0);
  return d;
}

floorplan::Floorplan make_plan(const device::Technology& tech, std::uint64_t seed) {
  Rng rng(sub_seed(seed, 1));
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 120.0;
  cfg.gates_per_mm2 = 50e3;
  return floorplan::make_manycore(tech, die_16mm(), kTiles, kTiles, cfg, rng);
}

core::CosimOptions options() {
  core::CosimOptions opts;
  opts.backend = core::ThermalBackend::Spectral;
  opts.influence = core::InfluenceMode::MatrixFree;
  // The Picard residual falls ~0.3x per iteration and crosses 1e-3 K right
  // at iteration 7 on these plans, so the default tolerance would let the
  // seed flip the iteration count; 5e-4 K sits mid-gap (8 iterations).
  opts.tol = 5e-4;
  return opts;
}

/// Converged, no runaway, every block temperature finite and above the sink.
void check_physics(Report& report, long long op, const core::CosimResult& r, double t_sink) {
  if (!r.converged || r.runaway) report.fail(op, "steady cosim did not converge");
  for (const auto& b : r.blocks) {
    if (!std::isfinite(b.temperature) || b.temperature < t_sink ||
        b.temperature > t_sink + 300.0) {
      report.fail(op, "block temperature outside [sink, sink + 300 K]");
      return;
    }
  }
}

void check_repeat(Report& report, long long op, const core::CosimResult& r,
                  const core::CosimResult& first) {
  expect_same(report, op, "iterations", r.iterations, first.iterations);
  expect_same(report, op, "max_temperature", r.max_temperature, first.max_temperature);
  expect_same(report, op, "total_leakage", r.total_leakage, first.total_leakage);
}

void add_reference(Report& report, const core::CosimResult& r) {
  double mean = 0.0;
  for (const auto& b : r.blocks) mean += b.temperature;
  report.reference("max_temperature", r.max_temperature);
  report.reference("mean_temperature", mean / static_cast<double>(r.blocks.size()));
  for (std::size_t i = 0; i < r.blocks.size(); i += kReferenceStride) {
    report.reference("block_" + std::to_string(i), r.blocks[i].temperature);
  }
}

}  // namespace

void run_steady_manycore(const RunConfig& cfg, Report& report) {
  const auto tech = device::Technology::cmos012();
  const auto fp = make_plan(tech, cfg.seed);
  const double t_sink = fp.die().t_sink;
  const auto opts = options();

  const auto make = [&] { return std::make_unique<core::ElectroThermalSolver>(tech, fp, opts); };
  Samples setups;
  const auto solver = timed_setup(make, setups, 1, 1, 0.0);
  const auto repeat_setup = [&] { timed_setup(make, setups, 20, 1000, 2.5); };

  // Warm-up: caches fill and the first result becomes the bitwise reference
  // for every repeat.
  const core::CosimResult first = solver->solve();
  report.attempt();
  check_physics(report, 0, first, t_sink);
  long long op = 0;
  const auto solve = [&] { return solver->solve(); };
  const auto check = [&](const core::CosimResult& r) {
    report.attempt();
    check_repeat(report, ++op, r, first);
  };

  // The reference check runs after the timed part: re-solving the reference
  // seed's inputs must not show up in peak_rss_mb.
  const auto check_reference = [&] {
    if (cfg.reference_seed == cfg.seed) {
      add_reference(report, first);
    } else {
      core::ElectroThermalSolver ref(tech, make_plan(tech, cfg.reference_seed), opts);
      const auto r = ref.solve();
      report.attempt();
      check_physics(report, -1, r, t_sink);
      add_reference(report, r);
    }
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

  // Per-layer split: the layers' public calls replayed at the converged
  // state once per round of traced_split.
  const std::size_t n = fp.blocks().size();
  std::vector<double> temps(n);
  std::vector<double> powers(n);
  for (std::size_t i = 0; i < n; ++i) {
    temps[i] = first.blocks[i].temperature;
    powers[i] = first.blocks[i].p_total();
  }
  std::vector<double> rises(n);
  const thermal::InfluenceApply& influence = solver->influence_apply();
  Replay apply("perfbench/thermal.apply");
  Replay compiled("perfbench/floorplan.leakage_compiled");
  Replay walk("perfbench/floorplan.leakage_walk");

  TraceSession session;
  const SplitSamples split = traced_split(
      session, cfg.seconds, 3,
      [&] {
        const telemetry::Span span("perfbench/core.solve");
        return solver->solve();
      },
      check,
      [&] {
        apply.run([&] {
          influence.apply(powers, rises);
          keep(rises[0]);
        });
        compiled.run([&] {
          double p = 0.0;
          for (std::size_t i = 0; i < n; ++i) p += solver->block_leakage_power(i, temps[i]);
          keep(p);
        });
        walk.run([&] {
          double p = 0.0;
          for (std::size_t i = 0; i < n; ++i) p += fp.blocks()[i].leakage_power(tech, temps[i]);
          keep(p);
        });
      });
  // The library's own split: apply spans inside solve spans (the replays'
  // apply spans sit outside any solve).
  const double span_share = session.sum("spectral/apply_influence", "cosim/solve").seconds /
                            session.sum("cosim/solve", nullptr).seconds;
  session.write(cfg.trace_out, report);

  // One apply per Picard iteration; leakage once per iteration plus the
  // final per-block evaluation of the result.
  const int iterations = first.iterations;
  const auto apply_s = [&](std::size_t k) { return apply.seconds(k) * iterations; };
  const auto leakage_s = [&](std::size_t k) { return compiled.seconds(k) * (iterations + 1); };
  const double apply_share = paired_share(split, apply_s);
  report.metric("thermal.apply_us", apply.us(), "us");
  report.metric("thermal.apply_share", apply_share, "frac");
  report.metric("telemetry.span_apply_share", span_share, "frac");
  report.count("thermal.modes", solver->influence_build_stats().modes);
  report.metric("core.solver_build_ms", 1e3 * setups.min(), "ms");
  report.count("core.picard_iterations", iterations);
  report.count("core.picard_iterations_total", iterations);
  report.metric("core.picard_self_share",
                1.0 - paired_share(split, [&](std::size_t k) { return apply_s(k) + leakage_s(k); }),
                "frac");
  report.metric("floorplan.leakage_compiled_us", compiled.us(), "us");
  report.metric("floorplan.leakage_walk_us", walk.us(), "us");
  report.metric("floorplan.leakage_share", paired_share(split, leakage_s), "frac");
  report_split(report, split, 1.0);
  check_reference();
  if (std::abs(apply_share - span_share) > 0.1) {
    report.note("thermal.apply_share " + std::to_string(apply_share) +
                " disagrees with the spectral/apply_influence span share " +
                std::to_string(span_share) + " by more than 0.1");
  }
}

}  // namespace perfbench
