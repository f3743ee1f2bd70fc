#include "rtm/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hpp"

namespace ptherm::rtm {

RtmResult run_rtm(const device::Technology& tech, const floorplan::Floorplan& fp,
                  const WorkloadTrace& trace, Policy& policy, Actuator& actuator,
                  const RtmOptions& opts) {
  const std::size_t n = fp.blocks().size();
  PTHERM_REQUIRE(n > 0, "run_rtm: empty floorplan");
  PTHERM_REQUIRE(trace.block_count() == n, "run_rtm: trace block count mismatch");
  PTHERM_REQUIRE(trace.sample_count() > 0, "run_rtm: empty trace");
  PTHERM_REQUIRE(actuator.block_count() == n, "run_rtm: actuator block count mismatch");
  PTHERM_REQUIRE(opts.dt > 0.0, "run_rtm: dt must be positive");
  PTHERM_REQUIRE(opts.steps_per_epoch >= 1, "run_rtm: steps_per_epoch must be >= 1");
  PTHERM_REQUIRE(opts.record_every >= 0, "run_rtm: record_every must be >= 0");
  PTHERM_REQUIRE(opts.temperature_cap > fp.die().t_sink,
                 "run_rtm: temperature cap must exceed the sink temperature");
  TELEMETRY_SPAN("rtm/run");

  const double epoch_dt = opts.dt * static_cast<double>(opts.steps_per_epoch);
  const long long epochs =
      std::max<long long>(1, std::llround(trace.duration() / epoch_dt));

  PolicyContext ctx;
  ctx.temperature_cap = opts.temperature_cap;
  ctx.t_sink = fp.die().t_sink;
  ctx.epoch_duration = epoch_dt;
  ctx.level_count = actuator.ladder().level_count();
  ctx.level_speed = actuator.ladder().speed_fractions();
  policy.reset(ctx, n);
  actuator.reset();
  SensorBank sensors(n, [&] {
    SensorOptions s = opts.sensor;
    if (s.t_anchor == 0.0) s.t_anchor = fp.die().t_sink;
    return s;
  }());

  RtmResult result;
  RtmMetrics& m = result.metrics;
  std::vector<int> levels(n, 0);
  std::vector<double> activity(n, 0.0);
  double temp_time_integral = 0.0;

  // The whole control loop lives in the cosim's power-update hook: the
  // plant integrates between hook calls, the hook closes the loop.
  const core::PowerUpdateHook hook = [&](long long epoch, double t,
                                         std::span<const double> temps,
                                         std::span<double> p_dyn,
                                         std::span<double> p_leak) {
    // ceil(t_stop / dt) in the cosim can round one ulp high and append a
    // ~zero-length trailing step whose boundary would fire a spurious
    // (epochs+1)-th hook call; leaving the spans untouched keeps the last
    // epoch's powers for that sliver and keeps every metric weighted by
    // exactly `epochs` control periods.
    if (epoch >= epochs) return;
    TELEMETRY_SPAN("rtm/epoch");
    // Sense (imperfect view), decide, actuate.
    const std::span<const double> sensed = sensors.sample(temps);
    for (std::size_t i = 0; i < n; ++i) activity[i] = trace.activity_at(i, t);
    PolicyInput in;
    in.epoch = epoch;
    in.t = t;
    in.temps = sensed;
    in.activity = activity;
    policy.control(in, levels);
    double epoch_power = 0.0;
    double throttled = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      levels[i] = std::clamp(levels[i], 0, ctx.level_count - 1);
      if (actuator.set_level(i, levels[i])) ++m.interventions;
      p_dyn[i] = actuator.dynamic_power(i, activity[i]);
    }
    // Physics at the actual operating point: dynamic power through the
    // V^2 f scale, leakage at each level's supply voltage and the TRUE block
    // temperature — the electro-thermal feedback the policy is implicitly
    // fighting.
    actuator.leakage_power(temps, opts.vb, p_leak);
    for (std::size_t i = 0; i < n; ++i) {
      epoch_power += p_dyn[i] + p_leak[i];
      m.work_requested += activity[i] * epoch_dt;
      m.work_delivered += activity[i] * actuator.throughput_scale(i) * epoch_dt;
      if (levels[i] != 0) throttled += 1.0;
    }
    // Metrics on the true temperatures at the epoch boundary.
    double peak = 0.0;
    double mean = 0.0;
    for (double temp : temps) {
      peak = std::max(peak, temp);
      mean += temp;
    }
    mean /= static_cast<double>(n);
    m.peak_temperature = std::max(m.peak_temperature, peak);
    temp_time_integral += mean * epoch_dt;
    if (peak > opts.temperature_cap) m.time_over_cap += epoch_dt;
    m.energy += epoch_power * epoch_dt;
    ++m.epochs;
    if (opts.record_every > 0 && epoch % opts.record_every == 0) {
      result.times.push_back(t);
      result.peak_temps.push_back(peak);
      result.total_power.push_back(epoch_power);
      result.throttled_fraction.push_back(throttled / static_cast<double>(n));
    }
  };

  core::TransientCosimOptions cosim;
  static_cast<core::ThermalConfig&>(cosim) = opts;
  cosim.dt = opts.dt;
  cosim.t_stop = static_cast<double>(epochs) * epoch_dt;
  cosim.vb = opts.vb;
  cosim.power_update_every = opts.steps_per_epoch;
  // The hook sees every epoch boundary; the inner result only needs the
  // final instant, so record as sparsely as the validator allows (clamped:
  // a multi-billion-step trace must not wrap the int and start recording
  // dense rows — the final step is always recorded regardless).
  cosim.record_every = static_cast<int>(
      std::min<long long>(epochs * opts.steps_per_epoch,
                          std::numeric_limits<int>::max()));
  auto transient = core::solve_transient_cosim(tech, fp, hook, cosim);

  result.final_temps = transient.block_temps.back();
  result.step_inner_iterations = std::move(transient.step_inner_iterations);
  for (double temp : result.final_temps) {
    m.peak_temperature = std::max(m.peak_temperature, temp);
  }
  // Normalize by the epochs the hook actually served (== `epochs` unless the
  // core grid logic ever changes), so the metrics stay self-consistent.
  m.avg_temperature = temp_time_integral / (static_cast<double>(m.epochs) * epoch_dt);
  m.throughput_fraction = m.work_requested > 0.0 ? m.work_delivered / m.work_requested : 1.0;
  m.steps = m.epochs * opts.steps_per_epoch;
  m.backend_stats = transient.backend_stats;
  return result;
}

}  // namespace ptherm::rtm
