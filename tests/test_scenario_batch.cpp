// Tests for the batched scenario engine: bitwise batched-vs-sequential
// equivalence on every backend, chunk-size invariance, convergence-mask
// correctness, batch-size-independent Monte Carlo draws, V/f corner levels,
// the dense/matrix-free boundary-fold agreement under batching, and mixed
// exits (converged, runaway, non-finite, max-iterations) at several sweeps
// of one chunk at every chunk size.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cosim.hpp"
#include "core/scenario_batch.hpp"
#include "device/variation.hpp"
#include "floorplan/generators.hpp"
#include "telemetry/counters.hpp"

namespace ptherm::core {
namespace {

using device::Technology;
using device::VariationModel;

Technology tech() { return Technology::cmos012(); }

thermal::Die die_1mm() {
  thermal::Die d;
  d.width = 1e-3;
  d.height = 1e-3;
  d.thickness = 350e-6;
  d.k_si = 148.0;
  d.t_sink = 318.15;
  return d;
}

floorplan::Floorplan small_plan(double p_total = 2.0) {
  Rng rng(21);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = p_total;
  cfg.gates_per_mm2 = 50e3;
  return floorplan::make_uniform_grid(tech(), die_1mm(), 3, 3, cfg, rng);
}

/// The sequential reference for scenario k: a standalone solver fed the
/// scenario's exact powers, technology, and adjustments. The batched engine
/// must reproduce this bitwise.
CosimResult reference_solve(const ScenarioBatch& batch, std::size_t k,
                            floorplan::Floorplan fp, const CosimOptions& opts) {
  const auto powers = batch.scenario_powers(k);
  auto& blocks = fp.blocks();
  for (std::size_t i = 0; i < blocks.size(); ++i) blocks[i].p_dynamic = powers[i];
  ElectroThermalSolver solver(batch.level_technology(batch.scenario_level(k)),
                              std::move(fp), opts);
  solver.set_leakage_adjust(batch.scenario_adjust(k));
  return solver.solve();
}

void expect_bitwise_equal(const ScenarioResult& got, const CosimResult& want,
                          std::size_t k) {
  EXPECT_EQ(got.converged, want.converged) << "scenario " << k;
  EXPECT_EQ(got.runaway, want.runaway) << "scenario " << k;
  EXPECT_EQ(got.iterations, want.iterations) << "scenario " << k;
  ASSERT_EQ(got.temperatures.size(), want.blocks.size()) << "scenario " << k;
  for (std::size_t i = 0; i < want.blocks.size(); ++i) {
    EXPECT_EQ(got.temperatures[i], want.blocks[i].temperature)
        << "scenario " << k << " block " << i;
  }
  EXPECT_EQ(got.max_temperature, want.max_temperature) << "scenario " << k;
  EXPECT_EQ(got.total_dynamic, want.total_dynamic) << "scenario " << k;
  EXPECT_EQ(got.total_leakage, want.total_leakage) << "scenario " << k;
  EXPECT_EQ(got.max_delta_last, want.max_delta_last) << "scenario " << k;
  EXPECT_EQ(got.picard_residuals, want.picard_residuals) << "scenario " << k;
  ASSERT_EQ(got.diagnostics.has_value(), want.diagnostics.has_value()) << "scenario " << k;
  if (want.diagnostics) {
    EXPECT_EQ(got.diagnostics->iterations, want.diagnostics->iterations) << "scenario " << k;
    EXPECT_EQ(got.diagnostics->residual, want.diagnostics->residual) << "scenario " << k;
    EXPECT_EQ(got.diagnostics->worst, want.diagnostics->worst) << "scenario " << k;
  }
}

/// A batch mixing Monte Carlo variation, nominal, and V/f corner scenarios.
ScenarioBatch mixed_batch(const CosimOptions& opts, ScenarioBatchOptions bopts = {}) {
  ScenarioBatch batch(tech(), small_plan(), opts, bopts);
  batch.add_nominal();
  batch.add_variation_samples(VariationModel{0.03}, 6, /*base_seed=*/42);
  batch.add_vf_corner(tech().vdd * 0.85, 0.7);
  batch.add_vf_corner(tech().vdd * 1.1, 1.0);
  return batch;
}

TEST(ScenarioBatch, BitwiseEqualsSequentialOnAnalyticBackend) {
  CosimOptions opts;  // analytic, dense
  auto batch = mixed_batch(opts);
  const auto results = batch.solve_all();
  ASSERT_EQ(results.size(), 9u);
  for (std::size_t k = 0; k < results.size(); ++k) {
    EXPECT_TRUE(results[k].converged) << "scenario " << k;
    expect_bitwise_equal(results[k], reference_solve(batch, k, small_plan(), opts), k);
  }
}

TEST(ScenarioBatch, BitwiseEqualsSequentialOnFdmBackend) {
  CosimOptions opts;
  opts.backend = ThermalBackend::Fdm;
  opts.fdm.nx = 16;
  opts.fdm.ny = 16;
  opts.fdm.nz = 8;
  ScenarioBatch batch(tech(), small_plan(), opts);
  batch.add_nominal();
  batch.add_variation_samples(VariationModel{0.03}, 3, /*base_seed=*/7);
  const auto results = batch.solve_all();
  for (std::size_t k = 0; k < results.size(); ++k) {
    expect_bitwise_equal(results[k], reference_solve(batch, k, small_plan(), opts), k);
  }
}

TEST(ScenarioBatch, BitwiseEqualsSequentialOnSpectralMatrixFree) {
  CosimOptions opts;
  opts.backend = ThermalBackend::Spectral;
  opts.influence = InfluenceMode::MatrixFree;
  auto batch = mixed_batch(opts);
  EXPECT_TRUE(batch.matrix_free());
  const auto results = batch.solve_all();
  for (std::size_t k = 0; k < results.size(); ++k) {
    expect_bitwise_equal(results[k], reference_solve(batch, k, small_plan(), opts), k);
  }
}

TEST(ScenarioBatch, InterleavedVfLevelsStartEachTechnologyOnItsOwnSweep) {
  // The start sweep evaluates leakage once per distinct technology in a
  // chunk. Levels interleaved within and across chunks (chunk 3) must each
  // get their own, so every scenario stays bitwise its sequential solve.
  CosimOptions opts;
  opts.trace.convergence = true;
  ScenarioBatchOptions bopts;
  bopts.chunk = 3;
  ScenarioBatch batch(tech(), small_plan(), opts, bopts);
  const VariationModel var{0.03};
  for (int s = 0; s < 8; ++s) {
    const double v = tech().vdd * (s % 3 == 0 ? 1.0 : s % 3 == 1 ? 0.85 : 1.1);
    const auto dvt0 = var.sample_scenario_delta_vt0(batch.block_count(), 99,
                                                    static_cast<std::uint64_t>(s));
    std::vector<LeakageAdjust> adjust(batch.block_count());
    for (std::size_t j = 0; j < adjust.size(); ++j) adjust[j] = {1.0 + 0.1 * s, dvt0[j]};
    batch.add_vf_corner(v, 1.0, adjust);
  }
  EXPECT_EQ(batch.level_count(), 3);
  const auto results = batch.solve_all();
  for (std::size_t k = 0; k < results.size(); ++k) {
    EXPECT_TRUE(results[k].converged) << "scenario " << k;
    expect_bitwise_equal(results[k], reference_solve(batch, k, small_plan(), opts), k);
  }
}

TEST(ScenarioBatch, ResultsAreChunkSizeInvariant) {
  CosimOptions opts;
  opts.backend = ThermalBackend::Spectral;
  std::vector<std::vector<ScenarioResult>> runs;
  for (const int chunk : {1, 3, 64}) {
    ScenarioBatchOptions bopts;
    bopts.chunk = chunk;
    auto batch = mixed_batch(opts, bopts);
    runs.push_back(batch.solve_all());
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].size(), runs[0].size());
    for (std::size_t k = 0; k < runs[0].size(); ++k) {
      EXPECT_EQ(runs[r][k].iterations, runs[0][k].iterations);
      for (std::size_t i = 0; i < runs[0][k].temperatures.size(); ++i) {
        EXPECT_EQ(runs[r][k].temperatures[i], runs[0][k].temperatures[i])
            << "chunk run " << r << " scenario " << k << " block " << i;
      }
      EXPECT_EQ(runs[r][k].total_leakage, runs[0][k].total_leakage);
    }
  }
}

TEST(ScenarioBatch, ConvergenceMasksDropEasyScenariosEarly) {
  // One chunk holding scenarios with very different convergence speeds: the
  // cold corner converges in fewer Picard iterations than the hot one, so
  // the mask must retire it early (saved scenario-iterations > 0) without
  // perturbing anyone's trajectory.
  CosimOptions opts;
  opts.backend = ThermalBackend::Spectral;
  opts.tol = 1e-5;  // tight enough that iteration counts spread out
  ScenarioBatch batch(tech(), small_plan(), opts);
  batch.add_vf_corner(tech().vdd * 0.7, 0.4);   // cold: fast convergence
  batch.add_nominal();
  batch.add_vf_corner(tech().vdd * 1.15, 1.0);  // hot: slow convergence
  const auto results = batch.solve_all();
  ASSERT_EQ(results.size(), 3u);
  int min_it = results[0].iterations, max_it = results[0].iterations;
  for (const auto& r : results) {
    ASSERT_TRUE(r.converged);
    min_it = std::min(min_it, r.iterations);
    max_it = std::max(max_it, r.iterations);
  }
  ASSERT_LT(min_it, max_it) << "test needs scenarios with different speeds";

  const auto& stats = batch.stats();
  EXPECT_EQ(stats.scenarios, 3);
  // All three rode one chunk, so the blocked sweeps ran to the slowest
  // scenario's count and the masks saved the difference.
  EXPECT_EQ(stats.batched_matvecs, max_it);
  EXPECT_EQ(stats.picard_iterations_total,
            results[0].iterations + results[1].iterations + results[2].iterations);
  EXPECT_EQ(stats.masked_iterations_saved,
            3LL * max_it - stats.picard_iterations_total);
  EXPECT_GT(stats.masked_iterations_saved, 0);

  // Masking never perturbs a trajectory: still bitwise-sequential.
  for (std::size_t k = 0; k < results.size(); ++k) {
    expect_bitwise_equal(results[k], reference_solve(batch, k, small_plan(), opts), k);
  }
}

TEST(ScenarioBatch, DenseAndMatrixFreeAgreeWithPackageResistance) {
  // The boundary fold under batching: dense carries r_package inside the
  // matrix, matrix-free folds r * sum(P) per blocked iteration. Both must
  // agree with each other (tightly) and with their own sequential reference
  // (bitwise).
  CosimOptions base;
  base.backend = ThermalBackend::Spectral;
  base.r_package = 0.4;
  CosimOptions dense = base;
  dense.influence = InfluenceMode::Dense;
  CosimOptions mfree = base;
  mfree.influence = InfluenceMode::MatrixFree;

  auto bd = mixed_batch(dense);
  auto bf = mixed_batch(mfree);
  EXPECT_FALSE(bd.matrix_free());
  EXPECT_TRUE(bf.matrix_free());
  const auto rd = bd.solve_all();
  const auto rf = bf.solve_all();
  ASSERT_EQ(rd.size(), rf.size());
  for (std::size_t k = 0; k < rd.size(); ++k) {
    expect_bitwise_equal(rd[k], reference_solve(bd, k, small_plan(), dense), k);
    expect_bitwise_equal(rf[k], reference_solve(bf, k, small_plan(), mfree), k);
    for (std::size_t i = 0; i < rd[k].temperatures.size(); ++i) {
      EXPECT_NEAR(rf[k].temperatures[i], rd[k].temperatures[i], 1e-9);
    }
  }
}

TEST(ScenarioBatch, NonConvergedExitsMatchSequentialOnBothInfluencePaths) {
  // The exits that do not converge: max-iterations survivors and a runaway
  // scenario share one chunk, with convergence tracing on, and each must
  // match its standalone solve bitwise — residual history and diagnostics
  // included — on the dense and the matrix-free path.
  for (const InfluenceMode mode : {InfluenceMode::Dense, InfluenceMode::MatrixFree}) {
    CosimOptions opts;
    opts.backend = ThermalBackend::Spectral;
    opts.influence = mode;
    opts.max_iterations = 1;
    opts.trace.convergence = true;
    ScenarioBatch batch(tech(), small_plan(), opts);
    batch.add_nominal();
    batch.add_variation_samples(VariationModel{0.03}, 2, /*base_seed=*/5);
    const auto nominal = batch.scenario_powers(0);
    std::vector<double> hot(nominal.begin(), nominal.end());
    for (double& p : hot) p *= 100.0;  // far past the runaway rise limit
    const std::size_t runaway = batch.add_scenario(hot);

    const auto results = batch.solve_all();
    ASSERT_EQ(results.size(), 4u);
    for (std::size_t k = 0; k < results.size(); ++k) {
      const ScenarioResult& r = results[k];
      EXPECT_FALSE(r.converged) << "scenario " << k;
      EXPECT_EQ(r.runaway, k == runaway) << "scenario " << k;
      if (k != runaway) {
        EXPECT_EQ(r.iterations, opts.max_iterations) << "scenario " << k;
      }
      EXPECT_EQ(r.picard_residuals.size(), static_cast<std::size_t>(r.iterations));
      ASSERT_TRUE(r.diagnostics.has_value()) << "scenario " << k;
      EXPECT_EQ(r.diagnostics->solver, "ScenarioBatch");
      EXPECT_EQ(r.diagnostics->stage, "scenario " + std::to_string(k) +
                                          (k == runaway ? ": runaway" : ": max-iterations"));
      expect_bitwise_equal(r, reference_solve(batch, k, small_plan(), opts), k);
    }
    EXPECT_EQ(batch.trace().active_per_sweep.size(),
              static_cast<std::size_t>(batch.stats().batched_matvecs));
  }
}

TEST(ScenarioBatch, MixedExitsAtEveryChunkSizeMatchSequentialBitwise) {
  // One pool of scenarios whose exits fall at different sweeps of a chunk:
  // converged, runaway (from sweep 1 up), a non-finite residual (an
  // overflowing VT0 multiplier) and max-iterations survivors, at two V/f
  // levels, with leakage scales far from 1 and dVT0 = +0.0 and -0.0 on some
  // blocks. Each sweep's leakage and each exit sweep run as one batched
  // evaluation over every scenario they hold; whatever the chunk size, each
  // result must be bitwise its standalone solve.
  CosimOptions opts;
  opts.backend = ThermalBackend::Spectral;
  opts.influence = InfluenceMode::MatrixFree;
  opts.tol = 1e-6;
  opts.max_iterations = 12;
  opts.trace.convergence = true;
  constexpr int kScenarios = 70;
  const double scales[] = {1.0, 3e4, 6e4, 1e5, 2e5, 4e5, 1e6, 3e6, 1e8};
  const VariationModel var{0.03};
  const auto make_batch = [&](int chunk) {
    ScenarioBatchOptions bopts;
    bopts.chunk = chunk;
    ScenarioBatch batch(tech(), small_plan(), opts, bopts);
    const int low = batch.add_vf_level(tech().vdd * 0.85, 0.7);
    const std::size_t n = batch.block_count();
    for (int s = 0; s < kScenarios; ++s) {
      const int level = s % 2 == 0 ? 0 : low;
      std::vector<double> powers(n);
      for (std::size_t j = 0; j < n; ++j) {
        powers[j] = small_plan().blocks()[j].p_dynamic * batch.level_dynamic_scale(level);
      }
      const auto dvt0 = var.sample_scenario_delta_vt0(n, 77, static_cast<std::uint64_t>(s));
      std::vector<LeakageAdjust> adjust(n);
      for (std::size_t j = 0; j < n; ++j) {
        adjust[j].scale = scales[static_cast<std::size_t>(s) % std::size(scales)];
        adjust[j].delta_vt0 = j % 3 == 0 ? 0.0 : j % 3 == 1 ? -0.0 : dvt0[j];
      }
      if (s % 23 == 7) adjust[4].delta_vt0 = -60.0;  // exp(60 V / nVT) overflows
      batch.add_scenario(std::move(powers), std::move(adjust), level);
    }
    return batch;
  };

  const auto pool = make_batch(64);
  std::vector<CosimResult> want;
  for (std::size_t k = 0; k < kScenarios; ++k) {
    want.push_back(reference_solve(pool, k, small_plan(), opts));
  }
  // The pool holds what it claims: every exit kind, at several sweeps.
  std::set<int> converged_at, runaway_at, survivors_at, non_finite_at;
  for (const CosimResult& r : want) {
    if (r.converged) {
      converged_at.insert(r.iterations);
    } else if (r.runaway) {
      runaway_at.insert(r.iterations);
    } else if (!std::isfinite(r.max_delta_last)) {
      non_finite_at.insert(r.iterations);
    } else {
      survivors_at.insert(r.iterations);
    }
  }
  EXPECT_GE(converged_at.size(), 2u);
  EXPECT_GE(runaway_at.size(), 3u);
  EXPECT_EQ(non_finite_at, std::set<int>{1});
  EXPECT_EQ(survivors_at, std::set<int>{opts.max_iterations});

  for (const int chunk : {1, 3, 64, 65}) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    auto batch = make_batch(chunk);
    const auto results = batch.solve_all();
    ASSERT_EQ(results.size(), want.size());
    for (std::size_t k = 0; k < results.size(); ++k) {
      if (!std::isnan(want[k].max_delta_last)) {
        expect_bitwise_equal(results[k], want[k], k);
        EXPECT_EQ(results[k].contraction, want[k].contraction) << "scenario " << k;
        continue;
      }
      // A NaN residual is NaN on both sides (its payload may differ);
      // every other field must still match bit for bit.
      const ScenarioResult& got = results[k];
      EXPECT_TRUE(std::isnan(got.max_delta_last)) << "scenario " << k;
      ASSERT_EQ(got.picard_residuals.size(), want[k].picard_residuals.size()) << "scenario " << k;
      for (const double r : got.picard_residuals) EXPECT_TRUE(std::isnan(r)) << "scenario " << k;
      EXPECT_EQ(got.converged, want[k].converged) << "scenario " << k;
      EXPECT_EQ(got.runaway, want[k].runaway) << "scenario " << k;
      EXPECT_EQ(got.iterations, want[k].iterations) << "scenario " << k;
      ASSERT_EQ(got.temperatures.size(), want[k].blocks.size()) << "scenario " << k;
      for (std::size_t i = 0; i < got.temperatures.size(); ++i) {
        EXPECT_EQ(got.temperatures[i], want[k].blocks[i].temperature) << "scenario " << k;
      }
      EXPECT_EQ(got.total_dynamic, want[k].total_dynamic) << "scenario " << k;
      EXPECT_EQ(got.total_leakage, want[k].total_leakage) << "scenario " << k;
      ASSERT_TRUE(got.diagnostics.has_value()) << "scenario " << k;
      EXPECT_EQ(got.diagnostics->stage, "scenario " + std::to_string(k) + ": non-finite residual");
      EXPECT_EQ(got.diagnostics->worst, want[k].diagnostics->worst) << "scenario " << k;
    }
  }
}

TEST(ScenarioBatch, ContractionMatchesSequentialBitwise) {
  // The exit residual ratio comes from per-scenario relaxation state, so
  // batching cannot change it.
  CosimOptions opts;
  opts.backend = ThermalBackend::Spectral;
  auto batch = mixed_batch(opts, {.chunk = 4});
  const auto results = batch.solve_all();
  for (std::size_t k = 0; k < results.size(); ++k) {
    ASSERT_TRUE(results[k].converged) << "scenario " << k;
    EXPECT_LT(results[k].contraction, 1.0) << "scenario " << k;
    EXPECT_EQ(results[k].contraction, reference_solve(batch, k, small_plan(), opts).contraction)
        << "scenario " << k;
  }
}

TEST(ScenarioBatch, VariationDrawsAreBatchSizeIndependent) {
  // Queueing more Monte Carlo samples must never change the earlier ones:
  // sample s draws from Rng::stream(base_seed, s) regardless of batch size.
  CosimOptions opts;
  opts.backend = ThermalBackend::Spectral;
  ScenarioBatch small(tech(), small_plan(), opts);
  ScenarioBatch large(tech(), small_plan(), opts);
  small.add_variation_samples(VariationModel{0.03}, 3, /*base_seed=*/11);
  large.add_variation_samples(VariationModel{0.03}, 24, /*base_seed=*/11);
  const auto rs = small.solve_all();
  const auto rl = large.solve_all();
  for (std::size_t k = 0; k < rs.size(); ++k) {
    const auto adj_s = small.scenario_adjust(k);
    const auto adj_l = large.scenario_adjust(k);
    for (std::size_t j = 0; j < adj_s.size(); ++j) {
      EXPECT_EQ(adj_s[j].delta_vt0, adj_l[j].delta_vt0);
    }
    for (std::size_t i = 0; i < rs[k].temperatures.size(); ++i) {
      EXPECT_EQ(rs[k].temperatures[i], rl[k].temperatures[i]);
    }
    EXPECT_EQ(rs[k].total_leakage, rl[k].total_leakage);
  }
}

TEST(ScenarioBatch, VfLevelsScaleDynamicPowerThroughThePowerModel) {
  CosimOptions opts;
  ScenarioBatch batch(tech(), small_plan(), opts);
  // Level 0 is implicit and exactly transparent.
  EXPECT_EQ(batch.level_count(), 1);
  EXPECT_EQ(batch.level_dynamic_scale(0), 1.0);
  EXPECT_EQ(batch.add_vf_level(tech().vdd, 1.0), 0);  // exact match reuses it

  const int low = batch.add_vf_level(tech().vdd * 0.8, 0.5);
  EXPECT_EQ(low, 1);
  // P ~ alpha f C V^2: the scale is exactly (V/V0)^2 * f_scale.
  EXPECT_NEAR(batch.level_dynamic_scale(low), 0.8 * 0.8 * 0.5, 1e-12);
  // Lower supply raises the effective threshold (DIBL): less leaky tech.
  EXPECT_GT(batch.level_technology(low).vt0_n, tech().vt0_n);

  // Same corner twice resolves to the same level.
  EXPECT_EQ(batch.add_vf_level(tech().vdd * 0.8, 0.5), low);
  const std::size_t k = batch.add_vf_corner(tech().vdd * 0.8, 0.5);
  EXPECT_EQ(batch.scenario_level(k), low);
  const auto powers = batch.scenario_powers(k);
  const auto plan = small_plan();
  const auto& nominal = plan.blocks();
  for (std::size_t i = 0; i < powers.size(); ++i) {
    EXPECT_EQ(powers[i], nominal[i].p_dynamic * batch.level_dynamic_scale(low));
  }
}

TEST(ScenarioBatch, CostStatsMergeBatchCountersOntoBackend) {
  CosimOptions opts;
  opts.backend = ThermalBackend::Spectral;
  auto batch = mixed_batch(opts);
  EXPECT_EQ(batch.stats().scenarios, 0);
  (void)batch.solve_all();
  // The batch counters and the backend's own land side by side under
  // backend/ when both contribute to one registry.
  telemetry::Registry reg;
  telemetry::contribute(reg, batch.backend().cost_stats());
  telemetry::contribute(reg, batch.stats());
  EXPECT_EQ(reg.counter("backend/scenarios"), 9);
  EXPECT_GT(reg.counter("backend/batched_matvecs"), 0);
  EXPECT_GE(reg.counter("backend/picard_iterations_total"),
            reg.counter("backend/batched_matvecs"));
  EXPECT_GE(reg.counter("backend/masked_iterations_saved"), 0);
  EXPECT_GT(reg.counter("backend/modes"), 0);
}

TEST(ScenarioBatch, RejectsBadInput) {
  CosimOptions opts;
  ScenarioBatchOptions bad;
  bad.chunk = 0;
  EXPECT_THROW(ScenarioBatch(tech(), small_plan(), opts, bad), PreconditionError);
  ScenarioBatch batch(tech(), small_plan(), opts);
  EXPECT_THROW(batch.add_scenario(std::vector<double>(4, 0.1)), PreconditionError);
  EXPECT_THROW(batch.add_nominal(3), PreconditionError);
  EXPECT_THROW(batch.add_vf_level(-1.0, 1.0), PreconditionError);
  EXPECT_THROW((void)batch.scenario_powers(0), PreconditionError);
  EXPECT_THROW(for_each_chunk(4, 0, [](std::size_t, std::size_t) {}), PreconditionError);
  // Non-finite powers and adjustments never enter the Picard loop.
  std::vector<double> powers(batch.block_count(), 0.1);
  powers[2] = std::nan("");
  EXPECT_THROW(batch.add_scenario(powers), PreconditionError);
  powers[2] = 0.1;
  std::vector<LeakageAdjust> adjust(batch.block_count());
  adjust[5].scale = std::numeric_limits<double>::infinity();
  EXPECT_THROW(batch.add_scenario(powers, adjust), PreconditionError);
  adjust[5] = {1.0, std::nan("")};
  EXPECT_THROW(batch.add_scenario(powers, adjust), PreconditionError);
  EXPECT_EQ(batch.size(), 0u);
}

TEST(ScenarioBatch, ForEachChunkCoversTheRangeInOrder) {
  std::vector<std::pair<std::size_t, std::size_t>> seen;
  for_each_chunk(10, 4, [&](std::size_t b, std::size_t e) { seen.emplace_back(b, e); });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<std::size_t, std::size_t>{0, 4}));
  EXPECT_EQ(seen[1], (std::pair<std::size_t, std::size_t>{4, 8}));
  EXPECT_EQ(seen[2], (std::pair<std::size_t, std::size_t>{8, 10}));
  seen.clear();
  for_each_chunk(0, 4, [&](std::size_t b, std::size_t e) { seen.emplace_back(b, e); });
  EXPECT_TRUE(seen.empty());
}

}  // namespace
}  // namespace ptherm::core
