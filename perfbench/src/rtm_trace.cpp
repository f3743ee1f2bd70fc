// rtm_trace_100k: one closed-loop runtime-thermal-management run per
// operation — threshold DVFS over a 36-block die, 10 000 control epochs of
// 10 spectral transient steps each (100 000 steps). No influence apply at
// all: time goes to the transient step, the per-epoch readback, the
// actuator's leakage walk, the sensors and the policy.
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/cosim.hpp"
#include "core/transient.hpp"
#include "floorplan/compiled_leakage.hpp"
#include "floorplan/generators.hpp"
#include "harness.hpp"
#include "rtm/actuator.hpp"
#include "rtm/policy.hpp"
#include "rtm/sensor.hpp"
#include "rtm/simulator.hpp"
#include "rtm/trace.hpp"

namespace perfbench {
namespace {

using namespace ptherm;

constexpr std::size_t kTraceSamples = 500;  // 10 s of 20 ms samples
constexpr double kSampleDt = 20e-3;
constexpr long long kEpochs = 10000;
constexpr int kStepsPerEpoch = 10;

thermal::Die die_1mm() {
  thermal::Die d;
  d.width = 1e-3;
  d.height = 1e-3;
  d.thickness = 350e-6;
  d.k_si = 148.0;
  d.t_sink = 328.15;  // 55 C
  return d;
}

floorplan::Floorplan make_plan(const device::Technology& tech, std::uint64_t seed) {
  Rng rng(sub_seed(seed, 1));
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 16.0;
  cfg.gates_per_mm2 = 1e5;
  return floorplan::make_uniform_grid(tech, die_1mm(), 6, 6, cfg, rng);
}

/// Bursty demand: every block cycles between 1.4x and 0.2x activity with a
/// 50 ms period and 40 % duty, each block at its own seeded phase, with
/// +-10 % seeded jitter on every sample.
rtm::WorkloadTrace make_trace(std::size_t blocks, std::uint64_t seed) {
  Rng rng(sub_seed(seed, 4));
  std::vector<double> phase(blocks);
  for (auto& p : phase) p = rng.uniform();
  rtm::WorkloadTrace trace(blocks, kSampleDt);
  std::vector<double> row(blocks);
  constexpr double kPeriod = 50e-3;
  for (std::size_t s = 0; s < kTraceSamples; ++s) {
    const double t = static_cast<double>(s) * kSampleDt;
    for (std::size_t b = 0; b < blocks; ++b) {
      const double x = t / kPeriod + phase[b];
      const bool high = x - std::floor(x) < 0.4;
      row[b] = (high ? 1.4 : 0.2) * rng.uniform(0.9, 1.1);
    }
    trace.append(row);
  }
  return trace;
}

rtm::RtmOptions options(std::uint64_t seed) {
  rtm::RtmOptions opts;
  opts.backend = core::ThermalBackend::Spectral;
  opts.spectral.modes_x = 32;
  opts.spectral.modes_y = 32;
  opts.dt = 1e-4;
  opts.steps_per_epoch = kStepsPerEpoch;
  opts.temperature_cap = 368.15;  // 95 C
  opts.sensor.noise_sigma = 0.3;
  opts.sensor.quantization = 0.25;
  opts.sensor.latency = 1;
  opts.sensor.seed = sub_seed(seed, 3);
  return opts;
}

rtm::VfLadder ladder(const device::Technology& tech) {
  return rtm::VfLadder::uniform(tech.vdd, 2e9, 5, 0.8, 0.4);
}

/// Policy decorator: times every control() call of the wrapped policy, each
/// inside a benchmark-side span.
class TimingPolicy final : public rtm::Policy {
 public:
  explicit TimingPolicy(rtm::Policy& inner) : inner_(inner) {}

  [[nodiscard]] std::string_view name() const noexcept override { return inner_.name(); }
  void reset(const rtm::PolicyContext& ctx, std::size_t block_count) override {
    Policy::reset(ctx, block_count);
    inner_.reset(ctx, block_count);
  }
  void control(const rtm::PolicyInput& in, std::span<int> levels) override {
    const telemetry::Span span("perfbench/rtm.policy");
    const auto t0 = Clock::now();
    inner_.control(in, levels);
    busy_ += seconds_since(t0);
    ++calls_;
  }
  [[nodiscard]] double mean_us() const { return calls_ > 0 ? 1e6 * busy_ / calls_ : 0.0; }

 private:
  rtm::Policy& inner_;
  double busy_ = 0.0;
  long long calls_ = 0;
};

/// Policy decorator of the untraced run: runs a host probe every
/// kProbeEvery epochs, so that an RTM run, which takes over a second, is
/// costed against the host's speed during it and not only at its ends.
class ProbingPolicy final : public rtm::Policy {
 public:
  static constexpr long long kProbeEvery = 500;  // 20 probes, under 1 % of a run

  ProbingPolicy(rtm::Policy& inner, ProbeLog& log) : inner_(inner), log_(log) {}

  [[nodiscard]] std::string_view name() const noexcept override { return inner_.name(); }
  void reset(const rtm::PolicyContext& ctx, std::size_t block_count) override {
    Policy::reset(ctx, block_count);
    inner_.reset(ctx, block_count);
  }
  void control(const rtm::PolicyInput& in, std::span<int> levels) override {
    if (in.epoch % kProbeEvery == kProbeEvery / 2) log_.probe();
    inner_.control(in, levels);
  }

 private:
  rtm::Policy& inner_;
  ProbeLog& log_;
};

void check_physics(Report& report, long long op, const rtm::RtmResult& r, double t_sink) {
  if (r.metrics.epochs != kEpochs || r.metrics.steps != kEpochs * kStepsPerEpoch) {
    report.fail(op, "RTM run served " + std::to_string(r.metrics.epochs) + " epochs / " +
                        std::to_string(r.metrics.steps) + " steps");
  }
  for (double t : r.final_temps) {
    if (!std::isfinite(t) || t < t_sink || t > t_sink + 300.0) {
      report.fail(op, "final temperature outside [sink, sink + 300 K]");
      return;
    }
  }
}

void check_repeat(Report& report, long long op, const rtm::RtmResult& r,
                  const rtm::RtmResult& first) {
  expect_same(report, op, "interventions", static_cast<double>(r.metrics.interventions),
              static_cast<double>(first.metrics.interventions));
  expect_same(report, op, "peak_temperature", r.metrics.peak_temperature,
              first.metrics.peak_temperature);
  for (std::size_t i = 0; i < r.final_temps.size(); ++i) {
    expect_same(report, op, "final temperature", r.final_temps[i], first.final_temps[i]);
  }
}

void add_reference(Report& report, const rtm::RtmResult& r) {
  report.reference("peak_temperature", r.metrics.peak_temperature);
  report.reference("avg_temperature", r.metrics.avg_temperature);
  for (std::size_t i = 0; i < r.final_temps.size(); ++i) {
    report.reference("final_block_" + std::to_string(i), r.final_temps[i]);
  }
}

/// The plant alone: the same transient grid as run_rtm, driven by a hook
/// that writes the trace's requested dynamic powers each epoch — no
/// sensing, no policy, no leakage.
core::TransientCosimResult run_plant(const device::Technology& tech,
                                     const floorplan::Floorplan& fp,
                                     const rtm::WorkloadTrace& trace,
                                     const rtm::RtmOptions& rtm_opts) {
  const auto& blocks = fp.blocks();
  const core::PowerUpdateHook hook = [&](long long, double t, std::span<const double>,
                                         std::span<double> p_dyn, std::span<double> p_leak) {
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      p_dyn[i] = blocks[i].p_dynamic * trace.activity_at(i, t);
      p_leak[i] = 0.0;
    }
  };
  core::TransientCosimOptions opts;
  opts.backend = rtm_opts.backend;
  opts.spectral = rtm_opts.spectral;
  opts.dt = rtm_opts.dt;
  opts.t_stop = static_cast<double>(kEpochs * kStepsPerEpoch) * rtm_opts.dt;
  opts.power_update_every = kStepsPerEpoch;
  opts.record_every = static_cast<int>(kEpochs * kStepsPerEpoch);
  return core::solve_transient_cosim(tech, fp, hook, opts);
}

}  // namespace

void run_rtm_trace(const RunConfig& cfg, Report& report) {
  const auto tech = device::Technology::cmos012();
  const auto fp = make_plan(tech, cfg.seed);
  const double t_sink = fp.die().t_sink;
  const auto trace = make_trace(fp.blocks().size(), cfg.seed);
  const auto opts = options(cfg.seed);

  const auto make = [&] { return std::make_unique<rtm::Actuator>(tech, fp, ladder(tech)); };
  Samples setups;
  const auto actuator = timed_setup(make, setups, 1, 1, 0.0);
  rtm::ThresholdPolicy policy;

  const rtm::RtmResult first = rtm::run_rtm(tech, fp, trace, policy, *actuator, opts);
  report.attempt();
  check_physics(report, 0, first, t_sink);

  // The reference check runs after the timed part: re-solving the reference
  // seed's inputs must not show up in peak_rss_mb.
  const auto check_reference = [&] {
    if (cfg.reference_seed == cfg.seed) {
      add_reference(report, first);
    } else {
      const auto ref_fp = make_plan(tech, cfg.reference_seed);
      rtm::Actuator ref_actuator(tech, ref_fp, ladder(tech));
      rtm::ThresholdPolicy ref_policy;
      const auto r = rtm::run_rtm(tech, ref_fp, make_trace(ref_fp.blocks().size(),
                                                           cfg.reference_seed),
                                  ref_policy, ref_actuator, options(cfg.reference_seed));
      report.attempt();
      check_physics(report, -1, r, t_sink);
      add_reference(report, r);
    }
  };

  long long op = 0;
  const auto check = [&](const rtm::RtmResult& r) {
    report.attempt();
    check_repeat(report, ++op, r, first);
  };

  if (!cfg.trace) {
    ProbeLog inside;
    ProbingPolicy probing(policy, inside);
    const LoopSamples ops = closed_loop(
        cfg.seconds, 3, [&] { return rtm::run_rtm(tech, fp, trace, probing, *actuator, opts); },
        check, &inside);
    report_end_to_end(report, ops);
    timed_setup(make, setups, 20, 1000000, 1.0);
    report_setup(report, setups);
    check_reference();
    return;
  }

  // Per-layer split: replays once per round of traced_split, at the state
  // the first run ended in. The plant replays whole; the transient step and
  // readback replay on a plant backend built the way run_rtm builds it, one
  // replayed epoch being one step with freshly changed powers and nine steps
  // under held powers.
  core::CosimOptions backend_opts;
  backend_opts.backend = opts.backend;
  backend_opts.spectral = opts.spectral;
  const auto backend = core::make_thermal_backend(fp.die(), backend_opts);
  const auto state = backend->make_transient_state();
  const std::size_t n = fp.blocks().size();
  const auto& temps = first.final_temps;
  const auto sources_a = fp.heat_sources(tech, temps);
  auto sources_b = sources_a;
  for (auto& s : sources_b) s.power *= 1.01;
  bool use_a = false;
  std::vector<thermal::SurfaceSample> centres(n);
  for (std::size_t i = 0; i < n; ++i) {
    centres[i] = {fp.blocks()[i].rect.cx(), fp.blocks()[i].rect.cy()};
  }
  std::vector<double> rises(n);
  std::vector<floorplan::CompiledBlockLeakage> compiled_leakage;
  for (const auto& b : fp.blocks()) compiled_leakage.emplace_back(b);
  rtm::SensorOptions sensor_opts = opts.sensor;
  sensor_opts.t_anchor = t_sink;
  rtm::SensorBank sensors(n, sensor_opts);

  Replay plant("perfbench/core.plant");
  Replay epoch_steps("perfbench/thermal.transient_epoch");
  Replay readback("perfbench/thermal.readback");
  Replay compiled("perfbench/floorplan.leakage_compiled");
  Replay walk("perfbench/floorplan.leakage_walk");
  Replay actuator_leakage("perfbench/rtm.actuator_leakage");
  Replay sensor("perfbench/rtm.sensor");
  TimingPolicy timed_policy(policy);

  TraceSession session;
  const SplitSamples split = traced_split(
      session, cfg.seconds, 3,
      [&] {
        const telemetry::Span span("perfbench/rtm.run");
        return rtm::run_rtm(tech, fp, trace, timed_policy, *actuator, opts);
      },
      check,
      [&] {
        plant.run([&] { keep(run_plant(tech, fp, trace, opts).peak_temperature()); });
        epoch_steps.run([&] {
          use_a = !use_a;  // the powers change at every epoch boundary
          const auto& sources = use_a ? sources_a : sources_b;
          for (int s = 0; s < kStepsPerEpoch; ++s) {
            backend->step_transient(*state, opts.dt, sources);
          }
        });
        readback.run([&] {
          state->surface_rises(centres, rises);
          keep(rises[0]);
        });
        compiled.run([&] {
          double p = 0.0;
          for (std::size_t i = 0; i < n; ++i) p += compiled_leakage[i].leakage_power(tech, temps[i]);
          keep(p);
        });
        walk.run([&] {
          double p = 0.0;
          for (std::size_t i = 0; i < n; ++i) p += fp.blocks()[i].leakage_power(tech, temps[i]);
          keep(p);
        });
        actuator_leakage.run([&] {
          double p = 0.0;
          for (std::size_t i = 0; i < n; ++i) p += actuator->leakage_power(i, temps[i], opts.vb);
          keep(p);
        });
        sensor.run([&] { keep(sensors.sample(temps)[0]); });
      });
  session.write(cfg.trace_out, report);

  const auto& stats = first.metrics.backend_stats;
  const auto epochs = static_cast<double>(first.metrics.epochs);
  report.metric("thermal.transient_step_us", epoch_steps.us() / kStepsPerEpoch, "us");
  report.metric("thermal.readback_us", readback.us(), "us");
  report.count("thermal.transient_steps", stats.transient_steps);
  report.count("thermal.transient_power_updates", stats.transient_power_updates);
  report.count("thermal.modes", stats.modes);
  report.metric("core.plant_s", plant.us() * 1e-6, "s");
  report.metric("floorplan.leakage_compiled_us", compiled.us(), "us");
  report.metric("floorplan.leakage_walk_us", walk.us(), "us");
  // The actuator evaluates every block's leakage once per epoch through the
  // interpretive Block walk.
  report.metric("floorplan.leakage_share",
                paired_share(split, [&](std::size_t k) {
                  return actuator_leakage.seconds(k) * epochs;
                }),
                "frac");
  report.metric("rtm.control_share",
                paired_share(split, [&](std::size_t k) {
                  return split.untraced[k] - plant.seconds(k);
                }),
                "frac");
  report.metric("rtm.actuator_leakage_us", actuator_leakage.us(), "us");
  report.metric("rtm.policy_us", timed_policy.mean_us(), "us");
  report.metric("rtm.sensor_us", sensor.us(), "us");
  report.count("rtm.epochs", first.metrics.epochs);
  report.count("rtm.interventions", first.metrics.interventions);
  report.metric("rtm.sim_steps_per_s",
                static_cast<double>(first.metrics.steps) / split.untraced.median(), "1/s");
  report_split(report, split, 1.0);
  check_reference();
}

}  // namespace perfbench
