// Tests for the transient electro-thermal co-simulation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cosim.hpp"
#include "core/transient.hpp"
#include "floorplan/generators.hpp"

namespace ptherm::core {
namespace {

using device::Technology;

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

floorplan::Floorplan small_plan(double p_total = 3.0) {
  Rng rng(77);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = p_total;
  cfg.gates_per_mm2 = 1e5;
  return floorplan::make_uniform_grid(tech(), die_1mm(), 2, 2, cfg, rng);
}

TransientCosimOptions fast_opts() {
  TransientCosimOptions opts;
  opts.fdm.nx = 16;
  opts.fdm.ny = 16;
  opts.fdm.nz = 10;
  opts.dt = 2e-4;
  opts.t_stop = 12e-3;
  return opts;
}

ActivityProfile constant_activity() {
  return [](std::size_t, double) { return 1.0; };
}

TEST(TransientCosim, HeatsMonotonicallyUnderConstantPower) {
  const auto fp = small_plan();
  const auto r = solve_transient_cosim(tech(), fp, constant_activity(), fast_opts());
  ASSERT_GT(r.times.size(), 10u);
  for (std::size_t k = 1; k < r.times.size(); ++k) {
    for (std::size_t i = 0; i < r.block_temps[k].size(); ++i) {
      EXPECT_GE(r.block_temps[k][i], r.block_temps[k - 1][i] - 1e-9)
          << "step " << k << " block " << i;
    }
  }
  EXPECT_GT(r.peak_temperature(), die_1mm().t_sink + 1.0);
}

TEST(TransientCosim, ApproachesSteadyCosimResult) {
  // Long transient under constant activity must land on the steady
  // concurrent solve (FDM backend, same grid).
  const auto fp = small_plan();
  auto opts = fast_opts();
  opts.t_stop = 60e-3;  // >> die time constant (~1.3 ms) and block scale
  const auto r = solve_transient_cosim(tech(), fp, constant_activity(), opts);

  CosimOptions sopts;
  sopts.backend = ThermalBackend::Fdm;
  sopts.fdm = opts.fdm;
  ElectroThermalSolver steady(tech(), fp, sopts);
  const auto s = steady.solve();
  ASSERT_TRUE(s.converged);
  for (std::size_t i = 0; i < s.blocks.size(); ++i) {
    EXPECT_NEAR(r.block_temps.back()[i], s.blocks[i].temperature, 0.2)
        << "block " << i;
  }
}

TEST(TransientCosim, LeakageGrowsAsDieHeats) {
  const auto fp = small_plan(5.0);
  const auto r = solve_transient_cosim(tech(), fp, constant_activity(), fast_opts());
  EXPECT_GT(r.leakage_power.back(), r.leakage_power.front());
}

TEST(TransientCosim, PowerStepShowsThermalLag) {
  // Activity steps from 0.2 to 1.0 at t = 4 ms: power jumps instantly, the
  // temperature follows with the substrate's time constant.
  const auto fp = small_plan(4.0);
  auto opts = fast_opts();
  opts.t_stop = 16e-3;
  ActivityProfile step = [](std::size_t, double t) { return t < 4e-3 ? 0.2 : 1.0; };
  const auto r = solve_transient_cosim(tech(), fp, step, opts);

  // Find the step index.
  std::size_t k_step = 0;
  for (std::size_t k = 1; k < r.times.size(); ++k) {
    if (r.dynamic_power[k] > 2.0 * r.dynamic_power[k - 1]) {
      k_step = k;
      break;
    }
  }
  ASSERT_GT(k_step, 0u);
  // Dynamic power is discontinuous; temperature is not: one step after the
  // jump the block has covered only a fraction of its eventual excursion.
  const double t_before = r.block_temps[k_step - 1][0];
  const double t_after = r.block_temps[k_step][0];
  const double t_final = r.block_temps.back()[0];
  ASSERT_GT(t_final, t_before + 1.0);
  EXPECT_LT(t_after - t_before, 0.5 * (t_final - t_before));
  EXPECT_GT(t_final, t_after + 1.0);
}

TEST(TransientCosim, CoolingPhaseDecays) {
  const auto fp = small_plan(4.0);
  ActivityProfile pulse = [](std::size_t, double t) { return t < 6e-3 ? 1.0 : 0.0; };
  for (const auto backend : {ThermalBackend::Fdm, ThermalBackend::Spectral}) {
    auto opts = fast_opts();
    opts.backend = backend;
    opts.t_stop = 16e-3;
    const auto r = solve_transient_cosim(tech(), fp, pulse, opts);
    const double peak = r.peak_temperature();
    const double final_t = r.block_temps.back()[0];
    EXPECT_GT(peak, die_1mm().t_sink + 1.0) << static_cast<int>(backend);
    EXPECT_LT(final_t, peak - 0.5) << static_cast<int>(backend);
  }
}

TEST(TransientCosim, RecordEveryThinsTheTrace) {
  const auto fp = small_plan();
  auto opts = fast_opts();
  const auto dense = solve_transient_cosim(tech(), fp, constant_activity(), opts);
  opts.record_every = 5;
  const auto sparse = solve_transient_cosim(tech(), fp, constant_activity(), opts);
  EXPECT_LT(sparse.times.size(), dense.times.size());
  // Same final state regardless of recording cadence.
  EXPECT_NEAR(sparse.block_temps.back()[0], dense.block_temps.back()[0], 1e-9);
}

TEST(TransientCosim, RejectsBadConfiguration) {
  const auto fp = small_plan();
  auto opts = fast_opts();
  opts.dt = 0.0;
  EXPECT_THROW(solve_transient_cosim(tech(), fp, constant_activity(), opts),
               PreconditionError);
  opts = fast_opts();
  EXPECT_THROW(solve_transient_cosim(tech(), fp, ActivityProfile{}, opts),
               PreconditionError);
  // 3e9 steps: past INT_MAX, refused before anything runs.
  opts = fast_opts();
  opts.backend = ThermalBackend::Spectral;
  opts.spectral.modes_x = 2;
  opts.spectral.modes_y = 2;
  opts.dt = 1e-9;
  opts.t_stop = 3.0;
  EXPECT_THROW(solve_transient_cosim(tech(), fp, constant_activity(), opts),
               PreconditionError);
}

TEST(TransientCosim, SingleStepRunIsAccepted) {
  // t_stop == dt is one legitimate step, not a configuration error.
  const auto fp = small_plan();
  auto opts = fast_opts();
  opts.t_stop = opts.dt;
  const auto r = solve_transient_cosim(tech(), fp, constant_activity(), opts);
  ASSERT_EQ(r.times.size(), 2u);  // the initial record plus the one step
  EXPECT_DOUBLE_EQ(r.times[0], 0.0);
  EXPECT_DOUBLE_EQ(r.times[1], opts.dt);
  EXPECT_GT(r.block_temps[1][0], r.block_temps[0][0]);
}

TEST(TransientCosim, StepCountIsExactOnRepresentativeGrids) {
  // t_stop / dt drifts off the integer in floating point for these grids;
  // the step count must neither drop the final step nor append a spurious
  // near-zero one, and the last record must land exactly on t_stop.
  const auto fp = small_plan();
  auto opts = fast_opts();
  opts.fdm.nx = 8;
  opts.fdm.ny = 8;
  opts.fdm.nz = 4;
  for (const auto& [t_stop, dt, want_steps] : {std::tuple{12e-3, 2e-4, 60},
                                               std::tuple{6e-3, 1e-4, 60},
                                               std::tuple{12.5e-4, 1e-4, 13}}) {
    opts.dt = dt;
    opts.t_stop = t_stop;
    const auto r = solve_transient_cosim(tech(), fp, constant_activity(), opts);
    EXPECT_EQ(r.times.size(), static_cast<std::size_t>(want_steps) + 1)
        << "t_stop " << t_stop << " dt " << dt;
    EXPECT_DOUBLE_EQ(r.times.back(), t_stop);
  }
}

TEST(TransientCosim, SpectralBackendRunsAndSettlesOnItsSteadySolve) {
  // The spectral transient backend end to end: monotone heating under
  // constant power, and the long run lands on the spectral steady cosim
  // (same backend, so no cross-model tolerance is involved).
  const auto fp = small_plan();
  auto opts = fast_opts();
  opts.backend = ThermalBackend::Spectral;
  opts.t_stop = 60e-3;
  const auto r = solve_transient_cosim(tech(), fp, constant_activity(), opts);
  ASSERT_GT(r.times.size(), 10u);
  for (std::size_t k = 1; k < r.times.size(); ++k) {
    for (std::size_t i = 0; i < r.block_temps[k].size(); ++i) {
      EXPECT_GE(r.block_temps[k][i], r.block_temps[k - 1][i] - 1e-9)
          << "step " << k << " block " << i;
    }
  }
  CosimOptions sopts;
  sopts.backend = ThermalBackend::Spectral;
  ElectroThermalSolver steady(tech(), fp, sopts);
  const auto s = steady.solve();
  ASSERT_TRUE(s.converged);
  for (std::size_t i = 0; i < s.blocks.size(); ++i) {
    EXPECT_NEAR(r.block_temps.back()[i], s.blocks[i].temperature, 0.2) << "block " << i;
  }
  // The generic iteration counter counts one exact mode-space update per
  // step on this backend, and the cost counters expose the step total.
  const int steps = static_cast<int>(r.times.size()) - 1;
  EXPECT_EQ(r.total_cg_iterations, steps);
  EXPECT_EQ(r.backend_stats.transient_steps, steps);
  EXPECT_EQ(r.backend_stats.cg_iterations, 0);
  EXPECT_GT(r.backend_stats.modes, 0);
}

TEST(TransientCosim, SpectralTrajectoryTracksTheFdmTrajectory) {
  // Cross-backend trajectory agreement at the co-simulation level. The two
  // readbacks differ by the FDM top-layer cell-centre depth (dz/2) and the
  // reference's O(dt) backward-Euler error, so the band here is the loose
  // cosim-level one; the 2% matched-depth bar lives in
  // test_thermal_spectral.cpp where depth is controlled.
  const auto fp = small_plan();
  TransientCosimOptions fdm_opts;
  fdm_opts.backend = ThermalBackend::Fdm;
  fdm_opts.fdm.nx = 24;
  fdm_opts.fdm.ny = 24;
  fdm_opts.fdm.nz = 12;
  fdm_opts.dt = 1e-4;
  fdm_opts.t_stop = 8e-3;
  auto sp_opts = fdm_opts;
  sp_opts.backend = ThermalBackend::Spectral;
  const auto f = solve_transient_cosim(tech(), fp, constant_activity(), fdm_opts);
  const auto s = solve_transient_cosim(tech(), fp, constant_activity(), sp_opts);
  ASSERT_EQ(f.times.size(), s.times.size());
  const double sink = die_1mm().t_sink;
  for (std::size_t k = 1; k < f.times.size(); ++k) {
    if (f.times[k] < 1e-3) continue;  // skip the backward-Euler-dominated start
    for (std::size_t i = 0; i < f.block_temps[k].size(); ++i) {
      const double rise_f = f.block_temps[k][i] - sink;
      const double rise_s = s.block_temps[k][i] - sink;
      EXPECT_NEAR(rise_s, rise_f, 0.10 * rise_f)
          << "t = " << f.times[k] << " block " << i;
    }
  }
  // Total leakage trajectories must agree too (the electro-thermal feedback
  // sees near-identical temperatures).
  EXPECT_NEAR(s.leakage_power.back(), f.leakage_power.back(),
              0.10 * f.leakage_power.back());
}

// ------------------------------------------------ power-update epoch hook

TEST(TransientCosimHook, UnitEpochHookMatchesTheActivityPathBitwise) {
  // The activity-profile overload is specified as "exactly the hook overload
  // with the default power model": with power_update_every == 1 the two must
  // produce bit-identical trajectories on both transient-capable backends.
  const auto fp = small_plan();
  const auto& blocks = fp.blocks();
  const auto technology = tech();
  for (ThermalBackend backend : {ThermalBackend::Fdm, ThermalBackend::Spectral}) {
    auto opts = fast_opts();
    opts.backend = backend;
    opts.t_stop = 4e-3;
    const auto via_activity = solve_transient_cosim(technology, fp, constant_activity(), opts);
    const PowerUpdateHook hook = [&](long long, double, std::span<const double> temps,
                                     std::span<double> p_dyn, std::span<double> p_leak) {
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        p_dyn[i] = blocks[i].p_dynamic;  // constant activity 1.0
        p_leak[i] = blocks[i].leakage_power(technology, temps[i], opts.vb);
      }
    };
    const auto via_hook = solve_transient_cosim(technology, fp, hook, opts);
    ASSERT_EQ(via_hook.times.size(), via_activity.times.size());
    for (std::size_t k = 0; k < via_hook.times.size(); ++k) {
      EXPECT_EQ(via_hook.times[k], via_activity.times[k]);
      EXPECT_EQ(via_hook.leakage_power[k], via_activity.leakage_power[k]);
      EXPECT_EQ(via_hook.dynamic_power[k], via_activity.dynamic_power[k]);
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        EXPECT_EQ(via_hook.block_temps[k][i], via_activity.block_temps[k][i])
            << "backend " << static_cast<int>(backend) << " t " << via_hook.times[k];
      }
    }
  }
}

TEST(TransientCosimHook, EpochHeldPowersMatchPerStepWhenPowersAreConstant) {
  // With genuinely constant powers (no leakage content, constant activity)
  // holding them over 4-step epochs must not change the recorded
  // temperatures at all: the same sources drive every step either way. The
  // interior-step readback skip, the backends' changed-power caches and, on
  // the spectral backend, the folding of each 4-step epoch into one exact
  // 4*dt step must all be invisible (the fold's rounding-level difference in
  // the rise stays below the ulp of the absolute temperature here; the
  // general tolerance contract is FoldedRunMatchesPerStepRun below).
  Rng rng(12);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 3.0;
  cfg.gates_per_mm2 = 0.0;  // leakage-free: powers are truly constant
  const auto fp = floorplan::make_uniform_grid(tech(), die_1mm(), 2, 2, cfg, rng);
  for (ThermalBackend backend : {ThermalBackend::Fdm, ThermalBackend::Spectral}) {
    auto opts = fast_opts();
    opts.backend = backend;
    opts.t_stop = 4.8e-3;    // 24 steps
    opts.record_every = 4;   // records land on epoch boundaries of both runs
    const auto per_step = solve_transient_cosim(tech(), fp, constant_activity(), opts);
    opts.power_update_every = 4;
    const auto per_epoch = solve_transient_cosim(tech(), fp, constant_activity(), opts);
    ASSERT_EQ(per_epoch.times.size(), per_step.times.size());
    for (std::size_t k = 0; k < per_epoch.times.size(); ++k) {
      for (std::size_t i = 0; i < fp.blocks().size(); ++i) {
        EXPECT_EQ(per_epoch.block_temps[k][i], per_step.block_temps[k][i])
            << "backend " << static_cast<int>(backend) << " t " << per_epoch.times[k];
      }
    }
    // The epoch run ingested the unchanged powers once; the per-step run's
    // backend saw the same thing (the caches key on values, not call
    // cadence). FDM served every step; spectral folded each 4-step epoch
    // into one backend step.
    EXPECT_EQ(per_epoch.backend_stats.transient_steps,
              backend == ThermalBackend::Spectral ? 6 : 24);
    EXPECT_EQ(per_epoch.backend_stats.transient_power_updates, 1);
    EXPECT_EQ(per_step.backend_stats.transient_power_updates, 1);
  }
}

TEST(TransientCosimHook, HookSeesEpochBoundariesAndItsPowersAreHeld) {
  const auto fp = small_plan();
  auto opts = fast_opts();
  opts.backend = ThermalBackend::Spectral;
  opts.dt = 1e-4;
  opts.t_stop = 3e-3;          // 30 steps
  opts.power_update_every = 10;  // 3 epochs
  opts.record_every = 10;
  std::vector<long long> epochs_seen;
  std::vector<double> times_seen;
  double first_temp = -1.0;
  const PowerUpdateHook hook = [&](long long epoch, double t, std::span<const double> temps,
                                   std::span<double> p_dyn, std::span<double> p_leak) {
    epochs_seen.push_back(epoch);
    times_seen.push_back(t);
    if (first_temp < 0.0) first_temp = temps[0];
    for (std::size_t i = 0; i < p_dyn.size(); ++i) {
      p_dyn[i] = 0.5 + 0.25 * static_cast<double>(epoch);  // distinct per epoch
      p_leak[i] = 0.01;
    }
  };
  const auto r = solve_transient_cosim(tech(), fp, hook, opts);
  ASSERT_EQ(epochs_seen.size(), 3u);
  EXPECT_EQ(epochs_seen, (std::vector<long long>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(times_seen[0], 0.0);
  EXPECT_DOUBLE_EQ(times_seen[1], 1e-3);
  EXPECT_DOUBLE_EQ(times_seen[2], 2e-3);
  EXPECT_DOUBLE_EQ(first_temp, die_1mm().t_sink);  // epoch 0 starts at the sink
  // Recorded totals are the epoch's held powers (4 blocks each).
  ASSERT_EQ(r.dynamic_power.size(), 4u);  // t = 0 plus the 3 epoch-end records
  EXPECT_DOUBLE_EQ(r.dynamic_power[0], 4 * 0.5);
  EXPECT_DOUBLE_EQ(r.dynamic_power[1], 4 * 0.5);
  EXPECT_DOUBLE_EQ(r.dynamic_power[2], 4 * 0.75);
  EXPECT_DOUBLE_EQ(r.dynamic_power[3], 4 * 1.0);
  EXPECT_DOUBLE_EQ(r.leakage_power[3], 4 * 0.01);
}

// ------------------------------------------------ held-power step folding

/// The three conduction set-ups the fold must be exact on: the classic
/// single die, a die + TIM + copper sandwich (layered modal integrator) and
/// the single die over an RC package network (the case rise is folded too).
std::vector<std::pair<const char*, std::optional<thermal::DieStack>>> fold_stacks() {
  const thermal::Die d = die_1mm();
  const thermal::StackLayer die{"die", d.thickness, d.k_si, d.cv_si};
  thermal::BoundarySpec pkg;
  pkg.kind = thermal::BoundaryKind::RcNetwork;
  pkg.rc.emplace(std::vector<thermal::ThermalRc>{{0.5, 2e-3}, {1.5, 0.05}});
  return {{"single die", std::nullopt},
          {"die+tim+cu", thermal::DieStack({die,
                                            {"tim", 25e-6, 4.0, 2.2e6},
                                            {"spreader", 500e-6, 390.0, 3.4e6}})},
          {"die+rc package", thermal::DieStack({die}, pkg)}};
}

/// A folded run (records every 10 steps, so every 10-step epoch is one
/// segment) against the per-step run of the same held-power schedule
/// (records every step, so no segment spans more than one step). Leakage
/// is fed back from the temperatures at each epoch boundary and the
/// activity changes every epoch, so both the powers and the field move.
std::pair<TransientCosimResult, TransientCosimResult> folded_and_per_step(
    std::uint64_t seed, TransientCosimOptions opts) {
  Rng rng(seed);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 8.0;
  cfg.gates_per_mm2 = 1e5;
  const auto fp = floorplan::make_uniform_grid(tech(), die_1mm(), 6, 6, cfg, rng);
  const auto& blocks = fp.blocks();
  const auto technology = tech();
  const PowerUpdateHook hook = [&](long long epoch, double, std::span<const double> temps,
                                   std::span<double> p_dyn, std::span<double> p_leak) {
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const double activity = (epoch + static_cast<long long>(i)) % 3 == 0 ? 1.4 : 0.3;
      p_dyn[i] = blocks[i].p_dynamic * activity;
      p_leak[i] = blocks[i].leakage_power(technology, temps[i], opts.vb);
    }
  };
  opts.power_update_every = 10;
  opts.record_every = 10;
  auto folded = solve_transient_cosim(technology, fp, hook, opts);
  opts.record_every = 1;
  auto per_step = solve_transient_cosim(technology, fp, hook, opts);
  return {std::move(folded), std::move(per_step)};
}

TEST(TransientCosimFold, SpectralFoldedRunMatchesPerStepRunToRounding) {
  // The tolerance contract of folding: the spectral update is exact for
  // piecewise-constant power, so one 10*dt step equals ten dt steps to
  // rounding. Every shared record must agree to 1e-10 K while the folded run
  // makes a tenth of the backend step calls.
  for (const auto& [label, stack] : fold_stacks()) {
    for (std::uint64_t seed : {1ULL, 17ULL, 2718281ULL}) {
      TransientCosimOptions opts;
      opts.backend = ThermalBackend::Spectral;
      opts.spectral.modes_x = 16;
      opts.spectral.modes_y = 16;
      opts.dt = 1e-4;
      opts.t_stop = 0.2;  // 2000 steps, 200 epochs
      opts.stack = stack;
      const auto [folded, per_step] = folded_and_per_step(seed, opts);
      ASSERT_EQ(per_step.times.size(), 2001u) << label;
      ASSERT_EQ(folded.times.size(), 201u) << label;
      EXPECT_EQ(per_step.backend_stats.transient_steps, 2000) << label;
      EXPECT_EQ(folded.backend_stats.transient_steps, 200) << label;
      EXPECT_EQ(folded.backend_stats.transient_power_updates,
                per_step.backend_stats.transient_power_updates)
          << label;
      double worst = 0.0;
      for (std::size_t k = 0; k < folded.times.size(); ++k) {
        const std::size_t j = 10 * k;
        ASSERT_EQ(folded.times[k], per_step.times[j]) << label;
        for (std::size_t i = 0; i < folded.block_temps[k].size(); ++i) {
          worst = std::max(worst,
                           std::abs(folded.block_temps[k][i] - per_step.block_temps[j][i]));
        }
        EXPECT_NEAR(folded.case_rise[k], per_step.case_rise[j], 1e-10) << label;
      }
      EXPECT_LE(worst, 1e-10) << label << " seed " << seed;
      // The run heated: the contract is not vacuously met by a cold die.
      EXPECT_GT(folded.peak_temperature(), die_1mm().t_sink + 1.0) << label;
    }
  }
}

TEST(TransientCosimFold, FdmNeverFoldsAndStaysBitwise) {
  // Backward Euler does not compose, so the FDM backend keeps one backend
  // step per grid step whatever the record cadence: the pair is bitwise
  // equal and makes the same number of step calls.
  for (const auto& [label, stack] : fold_stacks()) {
    TransientCosimOptions opts;
    opts.backend = ThermalBackend::Fdm;
    opts.fdm.nx = 12;
    opts.fdm.ny = 12;
    opts.fdm.nz = 12;
    opts.dt = 1e-4;
    opts.t_stop = 2e-2;  // 200 steps, 20 epochs
    opts.stack = stack;
    const auto [folded, per_step] = folded_and_per_step(1, opts);
    EXPECT_EQ(folded.backend_stats.transient_steps, 200) << label;
    EXPECT_EQ(per_step.backend_stats.transient_steps, 200) << label;
    EXPECT_EQ(folded.total_cg_iterations, per_step.total_cg_iterations) << label;
    ASSERT_EQ(folded.times.size(), 21u) << label;
    for (std::size_t k = 0; k < folded.times.size(); ++k) {
      const std::size_t j = 10 * k;
      EXPECT_EQ(folded.case_rise[k], per_step.case_rise[j]) << label;
      for (std::size_t i = 0; i < folded.block_temps[k].size(); ++i) {
        EXPECT_EQ(folded.block_temps[k][i], per_step.block_temps[j][i])
            << label << " t " << folded.times[k] << " block " << i;
      }
    }
  }
}

TEST(TransientCosimFold, ConvergenceTraceKeepsOneEntryPerGridStep) {
  // A folded segment reports its backend step's work on its first grid step
  // and zero on each folded one: the trace still has one entry per grid
  // step and still sums to the run total.
  const auto fp = small_plan();
  auto opts = fast_opts();
  opts.backend = ThermalBackend::Spectral;
  opts.t_stop = 4.8e-3;  // 24 steps
  opts.power_update_every = 4;
  opts.record_every = 6;  // segments end at 4, 6, 8, 12, 16, 18, 20, 24
  opts.trace.convergence = true;
  const auto r = solve_transient_cosim(tech(), fp, constant_activity(), opts);
  EXPECT_EQ(r.backend_stats.transient_steps, 8);
  ASSERT_EQ(r.step_inner_iterations.size(), 24u);
  const std::vector<int> want = {1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0,
                                 1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 0};
  EXPECT_EQ(r.step_inner_iterations, want);
  EXPECT_EQ(r.total_cg_iterations, 8);
  // Records land every 6 grid steps, whatever the segmentation.
  ASSERT_EQ(r.times.size(), 5u);
  EXPECT_EQ(r.times[1], 6 * opts.dt);
  EXPECT_EQ(r.times.back(), opts.t_stop);
}

TEST(TransientCosimHook, RejectsBadEpochConfigurationAndNullHook) {
  const auto fp = small_plan();
  auto opts = fast_opts();
  opts.power_update_every = 0;
  EXPECT_THROW(solve_transient_cosim(tech(), fp, constant_activity(), opts),
               PreconditionError);
  opts = fast_opts();
  EXPECT_THROW(solve_transient_cosim(tech(), fp, PowerUpdateHook{}, opts),
               PreconditionError);
}

}  // namespace
}  // namespace ptherm::core
