// Runtime-thermal-management tests: sensor imperfection models, V/f
// actuation (dynamic V^2 f scaling and voltage-dependent leakage), the
// shipped policies, bitwise run determinism, the epoch cost counters, and
// the closed-loop policy matrix — on both transient-capable backends the
// uncontrolled run must exceed the temperature cap while threshold and PID
// throttling keep the die under it with the leakage-temperature feedback
// live.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cosim.hpp"
#include "floorplan/generators.hpp"
#include "rtm/actuator.hpp"
#include "rtm/policy.hpp"
#include "rtm/sensor.hpp"
#include "rtm/simulator.hpp"
#include "rtm/trace.hpp"

namespace ptherm::rtm {
namespace {

using core::ThermalBackend;

device::Technology tech() { return device::Technology::cmos012(); }

thermal::Die die_1mm() {
  thermal::Die d;
  d.width = 1e-3;
  d.height = 1e-3;
  d.thickness = 350e-6;
  d.k_si = 148.0;
  d.t_sink = 328.15;  // 55 C
  return d;
}

floorplan::Floorplan quad_plan(double p_total) {
  Rng rng(99);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = p_total;
  cfg.gates_per_mm2 = 3e5;
  return floorplan::make_uniform_grid(tech(), die_1mm(), 2, 2, cfg, rng);
}

VfLadder test_ladder() { return VfLadder::uniform(tech().vdd, 2e9, 4, 0.8, 0.45); }

// ------------------------------------------------------------------ sensor

TEST(SensorBank, IdealSensorIsTheIdentity) {
  SensorBank sensors(3);
  const std::vector<double> temps = {330.0, 345.5, 351.25};
  const auto sensed = sensors.sample(temps);
  ASSERT_EQ(sensed.size(), temps.size());
  for (std::size_t i = 0; i < temps.size(); ++i) EXPECT_DOUBLE_EQ(sensed[i], temps[i]);
}

TEST(SensorBank, QuantizationSnapsToTheAnchorGrid) {
  SensorOptions opts;
  opts.quantization = 0.5;
  opts.t_anchor = 300.0;
  SensorBank sensors(2, opts);
  const std::vector<double> temps = {300.20, 301.80};
  const auto sensed = sensors.sample(temps);
  EXPECT_DOUBLE_EQ(sensed[0], 300.0);
  EXPECT_DOUBLE_EQ(sensed[1], 302.0);
}

TEST(SensorBank, LatencyDelaysReadingsByWholeEpochs) {
  SensorOptions opts;
  opts.latency = 2;
  SensorBank sensors(1, opts);
  const auto read = [&](double t) {
    const std::vector<double> temps = {t};
    return sensors.sample(temps)[0];
  };
  EXPECT_DOUBLE_EQ(read(310.0), 310.0);  // no history yet: oldest available
  EXPECT_DOUBLE_EQ(read(320.0), 310.0);
  EXPECT_DOUBLE_EQ(read(330.0), 310.0);  // ring full: exactly 2 epochs ago
  EXPECT_DOUBLE_EQ(read(340.0), 320.0);
  EXPECT_DOUBLE_EQ(read(350.0), 330.0);
}

TEST(SensorBank, NoiseIsSeedDeterministicAndResetRepeats) {
  SensorOptions opts;
  opts.noise_sigma = 0.8;
  opts.seed = 1234;
  SensorBank a(4, opts);
  SensorBank b(4, opts);
  const std::vector<double> temps = {330.0, 331.0, 332.0, 333.0};
  const auto ra = a.sample(temps);
  std::vector<double> first(ra.begin(), ra.end());
  const auto rb = b.sample(temps);
  for (std::size_t i = 0; i < temps.size(); ++i) {
    EXPECT_EQ(first[i], rb[i]);            // identical streams, bitwise
    EXPECT_NE(first[i], temps[i]);         // but actually noisy
    EXPECT_NEAR(first[i], temps[i], 6.0);  // and sanely scaled (~sigma)
  }
  a.sample(temps);
  a.reset();
  const auto again = a.sample(temps);
  for (std::size_t i = 0; i < temps.size(); ++i) EXPECT_EQ(again[i], first[i]);
}

// ---------------------------------------------------------------- actuator

TEST(VfLadder, ValidatesOrderingAndExposesSpeedFractions) {
  EXPECT_THROW((void)VfLadder({}), PreconditionError);
  EXPECT_THROW((void)VfLadder({{1.2, 2e9}, {1.2, 2e9}}), PreconditionError);  // equal f
  EXPECT_THROW((void)VfLadder({{1.0, 2e9}, {1.2, 1e9}}), PreconditionError);  // V rises
  const auto ladder = VfLadder::uniform(1.2, 2e9, 4, 0.75, 0.4);
  ASSERT_EQ(ladder.level_count(), 4);
  EXPECT_DOUBLE_EQ(ladder.at(0).voltage, 1.2);
  EXPECT_DOUBLE_EQ(ladder.at(0).frequency, 2e9);
  EXPECT_DOUBLE_EQ(ladder.at(3).voltage, 0.9);
  EXPECT_DOUBLE_EQ(ladder.at(3).frequency, 0.8e9);
  const auto speed = ladder.speed_fractions();
  ASSERT_EQ(speed.size(), 4u);
  EXPECT_DOUBLE_EQ(speed.front(), 1.0);
  EXPECT_DOUBLE_EQ(speed.back(), 0.4);
}

TEST(Actuator, DynamicPowerFollowsTheVSquaredFLaw) {
  const auto fp = quad_plan(8.0);
  Actuator actuator(tech(), fp, test_ladder());
  const double p_nom = fp.blocks()[0].p_dynamic;
  EXPECT_DOUBLE_EQ(actuator.dynamic_power(0, 1.0), p_nom);
  EXPECT_DOUBLE_EQ(actuator.dynamic_power(0, 0.3), 0.3 * p_nom);
  for (int l = 0; l < actuator.ladder().level_count(); ++l) {
    const auto& op = actuator.ladder().at(l);
    const double v_ratio = op.voltage / actuator.ladder().at(0).voltage;
    const double f_ratio = op.frequency / actuator.ladder().at(0).frequency;
    // The scale comes out of power::transient_power, which is alpha f C V^2
    // exactly, so the match is to rounding.
    EXPECT_NEAR(actuator.dynamic_scale(l), v_ratio * v_ratio * f_ratio, 1e-12);
  }
  ASSERT_TRUE(actuator.set_level(0, 3));
  EXPECT_DOUBLE_EQ(actuator.dynamic_power(0, 1.0), p_nom * actuator.dynamic_scale(3));
  EXPECT_DOUBLE_EQ(actuator.throughput_scale(0), 0.45);
}

TEST(Actuator, LeakageDropsWithSupplyVoltageAndGrowsWithTemperature) {
  const auto fp = quad_plan(8.0);
  Actuator actuator(tech(), fp, test_ladder());
  const double hot = 380.0;
  const double nominal = actuator.leakage_power(0, hot);
  EXPECT_GT(nominal, 0.0);
  // Throttled: lower VDD means less DIBL and a smaller output swing, so the
  // same silicon leaks measurably less — the feedback the RTM loop keeps.
  actuator.set_level(0, 3);
  const double throttled = actuator.leakage_power(0, hot);
  EXPECT_LT(throttled, 0.8 * nominal);
  // And leakage is exponential-ish in temperature at any level.
  EXPECT_GT(actuator.leakage_power(0, hot), 2.0 * actuator.leakage_power(0, 340.0));
}

TEST(Actuator, LeakageIsTheBlockWalkAtTheLevelSupply) {
  std::vector<floorplan::Block> blocks;
  std::optional<Actuator> actuator;
  {
    const auto fp = quad_plan(8.0);
    blocks = fp.blocks();
    actuator.emplace(tech(), fp, test_ladder());
  }  // the source floorplan is gone: the actuator must not refer to it
  const VfLadder& ladder = actuator->ladder();
  for (int l = 0; l < ladder.level_count(); ++l) {
    const auto level_tech = device::at_supply(tech(), ladder.at(l).voltage);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      actuator->set_level(i, l);
      for (const double temp : {330.0, 380.0}) {
        for (const double vb : {-0.2, 0.0}) {
          EXPECT_EQ(actuator->leakage_power(i, temp, vb),
                    blocks[i].leakage_power(level_tech, temp, vb))
              << "block " << i << ", level " << l;
        }
      }
    }
  }
}

TEST(Actuator, SetLevelClampsAndReportsChanges) {
  const auto fp = quad_plan(8.0);
  Actuator actuator(tech(), fp, test_ladder());
  EXPECT_FALSE(actuator.set_level(0, 0));    // already there
  EXPECT_TRUE(actuator.set_level(0, 99));    // clamped to the slowest level
  EXPECT_EQ(actuator.level(0), 3);
  EXPECT_FALSE(actuator.set_level(0, 7));    // clamps to the same level: no-op
  EXPECT_TRUE(actuator.set_level(0, -5));    // clamped back to fastest
  EXPECT_EQ(actuator.level(0), 0);
  actuator.set_level(1, 2);
  actuator.reset();
  EXPECT_EQ(actuator.level(1), 0);
}

// ---------------------------------------------------------------- policies

PolicyContext test_context(int levels = 4) {
  PolicyContext ctx;
  ctx.temperature_cap = 368.15;  // 95 C
  ctx.t_sink = 328.15;
  ctx.epoch_duration = 1e-3;
  ctx.level_count = levels;
  ctx.level_speed.resize(static_cast<std::size_t>(levels));
  for (int l = 0; l < levels; ++l) {
    ctx.level_speed[static_cast<std::size_t>(l)] =
        1.0 - 0.6 * static_cast<double>(l) / (levels - 1);
  }
  return ctx;
}

TEST(ThresholdPolicy, ThrottlesAboveTriggerAndReleasesBelowHysteresis) {
  ThresholdPolicyOptions opts;
  opts.trigger_margin = 5.0;
  opts.release_margin = 15.0;
  ThresholdPolicy policy(opts);
  policy.reset(test_context(), 3);
  std::vector<int> levels = {0, 1, 1};
  // cap 368.15: trigger at 363.15, release at 353.15.
  const std::vector<double> temps = {364.0, 358.0, 350.0};
  const std::vector<double> activity = {1.0, 1.0, 1.0};
  PolicyInput in;
  in.temps = temps;
  in.activity = activity;
  policy.control(in, levels);
  EXPECT_EQ(levels[0], 1);  // hot: one step slower
  EXPECT_EQ(levels[1], 1);  // inside the hysteresis band: hold
  EXPECT_EQ(levels[2], 0);  // cool: one step faster
}

TEST(ThresholdPolicy, RejectsAnEmptyHysteresisBand) {
  ThresholdPolicyOptions opts;
  opts.trigger_margin = 5.0;
  opts.release_margin = 5.0;
  EXPECT_THROW((void)ThresholdPolicy(opts), PreconditionError);
}

TEST(PidPolicy, RunsFastWithHeadroomAndThrottlesWhenHot) {
  PidPolicy policy;
  policy.reset(test_context(), 2);
  std::vector<int> levels = {0, 0};
  const std::vector<double> activity = {1.0, 1.0};
  // Block 0 far below the setpoint, block 1 far above the cap.
  const std::vector<double> temps = {330.0, 390.0};
  PolicyInput in;
  in.temps = temps;
  in.activity = activity;
  policy.control(in, levels);
  EXPECT_EQ(levels[0], 0);  // full speed
  EXPECT_GT(levels[1], 0);  // throttled
  // Sustained overheat integrates toward the slowest level.
  for (int epoch = 0; epoch < 50; ++epoch) {
    in.epoch = epoch + 1;
    policy.control(in, levels);
  }
  EXPECT_EQ(levels[1], 3);
  // And a long cool-down winds the integral back up to full speed.
  const std::vector<double> cool = {330.0, 330.0};
  in.temps = cool;
  for (int epoch = 0; epoch < 200; ++epoch) {
    in.epoch = epoch + 51;
    policy.control(in, levels);
  }
  EXPECT_EQ(levels[1], 0);
}

TEST(Policy, ResetValidatesTheContext) {
  NoopPolicy policy;
  PolicyContext bad = test_context();
  bad.temperature_cap = bad.t_sink;  // cap at the sink: nothing to regulate
  EXPECT_THROW(policy.reset(bad, 4), PreconditionError);
  PolicyContext mismatched = test_context();
  mismatched.level_speed.pop_back();
  EXPECT_THROW(policy.reset(mismatched, 4), PreconditionError);
}

// ------------------------------------------------------------- closed loop

struct RtmSetup {
  floorplan::Floorplan fp;
  WorkloadTrace trace;
  RtmOptions opts;
};

/// Sustained near-full activity on a 2x2 array, sized so the uncontrolled
/// die settles above the cap while the ladder floor sits well below it.
RtmSetup regulation_setup(ThermalBackend backend) {
  RtmSetup s{quad_plan(18.0), WorkloadTrace(4, 1e-3), {}};
  BurstPattern pat;
  pat.period = 8e-3;
  pat.duty = 1.0;  // always on: the sustained-overload scenario
  pat.high = 1.0;
  s.trace = make_burst_trace(4, 60, 1e-3, pat);  // 60 ms >> the ~0.55 ms tau
  s.opts.backend = backend;
  s.opts.dt = 1e-4;
  s.opts.steps_per_epoch = 2;  // 0.2 ms control period
  s.opts.temperature_cap = 368.15;  // 95 C
  s.opts.spectral.modes_x = 32;
  s.opts.spectral.modes_y = 32;
  s.opts.fdm.nx = 16;
  s.opts.fdm.ny = 16;
  s.opts.fdm.nz = 8;
  s.opts.record_every = 10;
  return s;
}

class RtmBackendMatrix : public ::testing::TestWithParam<ThermalBackend> {};

TEST_P(RtmBackendMatrix, PolicyMatrixRegulatesUnderTheCap) {
  const auto setup = regulation_setup(GetParam());
  const double cap = setup.opts.temperature_cap;

  NoopPolicy noop;
  Actuator a_noop(tech(), setup.fp, test_ladder());
  const auto r_noop = run_rtm(tech(), setup.fp, setup.trace, noop, a_noop, setup.opts);

  ThresholdPolicyOptions thr_opts;
  thr_opts.trigger_margin = 6.0;
  thr_opts.release_margin = 14.0;
  ThresholdPolicy threshold(thr_opts);
  Actuator a_thr(tech(), setup.fp, test_ladder());
  const auto r_thr = run_rtm(tech(), setup.fp, setup.trace, threshold, a_thr, setup.opts);

  PidPolicyOptions pid_opts;
  pid_opts.setpoint_margin = 8.0;
  PidPolicy pid(pid_opts);
  Actuator a_pid(tech(), setup.fp, test_ladder());
  const auto r_pid = run_rtm(tech(), setup.fp, setup.trace, pid, a_pid, setup.opts);

  // The uncontrolled run overshoots the cap and stays there...
  EXPECT_GT(r_noop.metrics.peak_temperature, cap + 2.0);
  EXPECT_GT(r_noop.metrics.time_over_cap, 0.02);
  EXPECT_DOUBLE_EQ(r_noop.metrics.throughput_fraction, 1.0);
  EXPECT_EQ(r_noop.metrics.interventions, 0);
  // ...while both closed-loop policies keep the die under it, at a
  // throughput cost.
  for (const auto* r : {&r_thr, &r_pid}) {
    EXPECT_LE(r->metrics.peak_temperature, cap);
    EXPECT_DOUBLE_EQ(r->metrics.time_over_cap, 0.0);
    EXPECT_GT(r->metrics.interventions, 0);
    EXPECT_LT(r->metrics.throughput_fraction, 1.0);
    EXPECT_GT(r->metrics.throughput_fraction, 0.3);
    EXPECT_LT(r->metrics.energy, r_noop.metrics.energy);
  }
  // Leakage-temperature feedback is live: the throttled runs spend less
  // energy than the dynamic-power scale alone explains (their leakage fell
  // with both VDD and temperature). Sanity-check the magnitude instead of
  // the mechanism here; the Actuator tests pin the mechanism.
  EXPECT_GT(r_noop.metrics.peak_temperature, r_thr.metrics.peak_temperature + 3.0);
}

TEST_P(RtmBackendMatrix, RunsAreBitwiseDeterministic) {
  auto setup = regulation_setup(GetParam());
  setup.opts.sensor.noise_sigma = 0.4;  // exercise the stochastic path too
  setup.opts.sensor.quantization = 0.25;
  setup.opts.sensor.latency = 1;

  ThresholdPolicy policy_a;
  Actuator actuator_a(tech(), setup.fp, test_ladder());
  const auto a = run_rtm(tech(), setup.fp, setup.trace, policy_a, actuator_a, setup.opts);
  ThresholdPolicy policy_b;
  Actuator actuator_b(tech(), setup.fp, test_ladder());
  const auto b = run_rtm(tech(), setup.fp, setup.trace, policy_b, actuator_b, setup.opts);

  EXPECT_EQ(a.metrics.peak_temperature, b.metrics.peak_temperature);
  EXPECT_EQ(a.metrics.avg_temperature, b.metrics.avg_temperature);
  EXPECT_EQ(a.metrics.time_over_cap, b.metrics.time_over_cap);
  EXPECT_EQ(a.metrics.energy, b.metrics.energy);
  EXPECT_EQ(a.metrics.work_requested, b.metrics.work_requested);
  EXPECT_EQ(a.metrics.work_delivered, b.metrics.work_delivered);
  EXPECT_EQ(a.metrics.interventions, b.metrics.interventions);
  EXPECT_EQ(a.metrics.epochs, b.metrics.epochs);
  EXPECT_EQ(a.metrics.steps, b.metrics.steps);
  ASSERT_EQ(a.final_temps.size(), b.final_temps.size());
  for (std::size_t i = 0; i < a.final_temps.size(); ++i) {
    EXPECT_EQ(a.final_temps[i], b.final_temps[i]);
  }
  ASSERT_EQ(a.times.size(), b.times.size());
  for (std::size_t k = 0; k < a.times.size(); ++k) {
    EXPECT_EQ(a.peak_temps[k], b.peak_temps[k]);
    EXPECT_EQ(a.total_power[k], b.total_power[k]);
  }
  // And the same seed with a different policy object of the same kind is
  // the point: determinism comes from (trace, policy, seed), not object
  // identity. A different seed must actually change the noisy run.
  auto other = setup;
  other.opts.sensor.seed = setup.opts.sensor.seed + 1;
  ThresholdPolicy policy_c;
  Actuator actuator_c(tech(), setup.fp, test_ladder());
  const auto c = run_rtm(tech(), setup.fp, setup.trace, policy_c, actuator_c, other.opts);
  EXPECT_NE(a.metrics.avg_temperature, c.metrics.avg_temperature);
}

TEST_P(RtmBackendMatrix, EpochCountersExposeTheCheapInteriorSteps) {
  auto setup = regulation_setup(GetParam());
  setup.opts.steps_per_epoch = 5;
  // Activity moves every control epoch (trace sampled at the epoch period),
  // so the backend must ingest new powers exactly once per epoch — and
  // never on the 4 interior steps of each epoch.
  RandomWalkPattern pat;
  Rng rng(5);
  const double epoch_dt = setup.opts.dt * setup.opts.steps_per_epoch;
  setup.trace = make_random_walk_trace(4, 60, epoch_dt, pat, rng);
  NoopPolicy noop;
  Actuator actuator(tech(), setup.fp, test_ladder());
  const auto r = run_rtm(tech(), setup.fp, setup.trace, noop, actuator, setup.opts);
  const auto& stats = r.metrics.backend_stats;
  EXPECT_EQ(r.metrics.epochs, 60);
  EXPECT_EQ(r.metrics.steps, r.metrics.epochs * setup.opts.steps_per_epoch);
  // Spectral folds each held-power epoch into one exact backend step; FDM
  // (backward Euler does not compose) steps every time-grid step.
  EXPECT_EQ(stats.transient_steps,
            GetParam() == ThermalBackend::Spectral ? r.metrics.epochs : r.metrics.steps);
  EXPECT_EQ(stats.transient_power_updates, r.metrics.epochs);
}

INSTANTIATE_TEST_SUITE_P(TransientBackends, RtmBackendMatrix,
                         ::testing::Values(ThermalBackend::Fdm, ThermalBackend::Spectral),
                         [](const ::testing::TestParamInfo<ThermalBackend>& info) {
                           return info.param == ThermalBackend::Fdm ? "Fdm" : "Spectral";
                         });

TEST(RunRtm, ValidatesItsContracts) {
  const auto fp = quad_plan(8.0);
  NoopPolicy noop;
  Actuator actuator(tech(), fp, test_ladder());
  BurstPattern pat;
  const auto trace = make_burst_trace(4, 10, 1e-3, pat);
  RtmOptions opts;
  opts.temperature_cap = 368.15;

  RtmOptions bad_cap = opts;
  bad_cap.temperature_cap = die_1mm().t_sink;  // cap at the sink
  EXPECT_THROW((void)run_rtm(tech(), fp, trace, noop, actuator, bad_cap), PreconditionError);

  const auto narrow = make_burst_trace(3, 10, 1e-3, pat);  // wrong block count
  EXPECT_THROW((void)run_rtm(tech(), fp, narrow, noop, actuator, opts), PreconditionError);

  RtmOptions steady_only = opts;
  steady_only.backend = ThermalBackend::Analytic;  // cannot integrate in time
  EXPECT_THROW((void)run_rtm(tech(), fp, trace, noop, actuator, steady_only),
               PreconditionError);

  // Two samples of 2e5 s at dt = 1e-4: 4e9 plant steps, more than an int
  // counts. Refused up front; nothing per step is allocated.
  const auto long_trace = make_burst_trace(4, 2, 2e5, pat);
  EXPECT_THROW((void)run_rtm(tech(), fp, long_trace, noop, actuator, opts),
               PreconditionError);
}

TEST(ThermalConfig, EachCallerKeepsItsDefaultBackend) {
  EXPECT_EQ(core::CosimOptions{}.backend, ThermalBackend::Analytic);
  EXPECT_EQ(core::TransientCosimOptions{}.backend, ThermalBackend::Fdm);
  EXPECT_EQ(RtmOptions{}.backend, ThermalBackend::Spectral);

  // run_rtm hands its ThermalConfig to the plant in one assignment; every
  // field must survive it.
  RtmOptions rtm_opts;
  rtm_opts.spectral.modes_x = 24;
  rtm_opts.spectral.modes_y = 40;
  rtm_opts.stack = thermal::DieStack::single(die_1mm());
  rtm_opts.trace.convergence = true;
  core::TransientCosimOptions plant;
  static_cast<core::ThermalConfig&>(plant) = rtm_opts;
  EXPECT_EQ(plant.backend, ThermalBackend::Spectral);
  EXPECT_EQ(plant.spectral.modes_x, 24);
  EXPECT_EQ(plant.spectral.modes_y, 40);
  EXPECT_TRUE(plant.stack.has_value());
  EXPECT_TRUE(plant.trace.convergence);
}

}  // namespace
}  // namespace ptherm::rtm
