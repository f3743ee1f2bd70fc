// spice_selfheat_sweep: one sweep of electro-thermal DC solves per
// operation — a row of near-threshold NMOS devices, each on its own
// footprint of a small, poorly cooled die (analytic backend, so the
// device-to-device coupling is a real dense InfluenceApply), solved at a
// ladder of heat-sink temperatures from self-consistent operating points to
// flagged thermal runaway. The only workload that reaches the SPICE Newton
// loop, its recovery ladder and the dense influence operator.
#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "device/mosfet.hpp"
#include "harness.hpp"
#include "spice/circuit.hpp"
#include "spice/electrothermal.hpp"
#include "thermal/backend.hpp"

namespace perfbench {
namespace {

using namespace ptherm;

constexpr int kDevices = 8;
/// Heat-sink temperatures of one sweep [K], and whether each is expected to
/// run away. The loop gain R * dP/dT crosses 1 near 302 K on this circuit;
/// the seed's +-2 % jitter moves that by about a kelvin, so every point
/// keeps its verdict on every seed.
constexpr std::array<double, 5> kSinks = {270.0, 280.0, 290.0, 320.0, 330.0};
constexpr std::array<bool, 5> kRunaway = {false, false, false, true, true};

thermal::Die make_die(double t_sink) {
  thermal::Die d;
  d.width = 100e-6;
  d.height = 100e-6;
  d.thickness = 300e-6;
  d.k_si = 4.0;
  d.t_sink = t_sink;
  return d;
}

/// The seeded part of the inputs: per-device channel width and load.
struct DeviceParams {
  double width = 0.0;  ///< [m]
  double load = 0.0;   ///< drain load [ohm]
};

std::vector<DeviceParams> make_params(std::uint64_t seed) {
  Rng rng(sub_seed(seed, 5));
  std::vector<DeviceParams> params(kDevices);
  for (auto& p : params) {
    p.width = 60e-6 * rng.uniform(0.98, 1.02);
    p.load = 1.0 * rng.uniform(0.98, 1.02);
  }
  return params;
}

/// What a sweep solves against: the circuit, its device footprints and one
/// thermal backend per sink temperature.
struct Setup {
  spice::Circuit circuit;
  std::vector<spice::DeviceFootprint> footprints;
  std::vector<thermal::AnalyticImagesBackend> backends;
};

/// kDevices near-threshold NMOS in parallel branches — each drain hangs off
/// the supply through its own load, all gates share one bias — on a 4 x 2
/// grid of 10 um footprints around the die centre.
std::unique_ptr<Setup> make_setup(const std::vector<DeviceParams>& params) {
  const auto tech = device::Technology::cmos012();
  auto s = std::make_unique<Setup>();
  auto& ckt = s->circuit;
  const auto vdd = ckt.node("vdd");
  const auto gate = ckt.node("gate");
  ckt.add_vsource("VDD", vdd, spice::Circuit::ground(), tech.vdd);
  ckt.add_vsource("VG", gate, spice::Circuit::ground(), 0.30);
  for (int d = 0; d < kDevices; ++d) {
    const std::string id = std::to_string(d);
    const auto drain = ckt.node("d" + id);
    ckt.add_resistor("RL" + id, vdd, drain, params[d].load);
    ckt.add_mosfet("M" + id, drain, gate, spice::Circuit::ground(), spice::Circuit::ground(),
                   device::MosModel(tech, device::MosType::Nmos, params[d].width, tech.l_drawn));
    const double cx = 50e-6 + 20e-6 * ((d % 4) - 1.5);
    const double cy = 50e-6 + 20e-6 * ((d / 4) - 0.5);
    s->footprints.push_back({"M" + id, cx, cy, 10e-6, 10e-6});
  }
  s->backends.reserve(kSinks.size());
  for (double t : kSinks) s->backends.emplace_back(make_die(t));
  return s;
}

spice::ElectroThermalDcOptions options(double t_sink) {
  spice::ElectroThermalDcOptions opts;
  opts.t_sink = t_sink;
  opts.dc.temp = t_sink;
  return opts;
}

using Sweep = std::vector<spice::ElectroThermalDcSolution>;

Sweep run_sweep(const Setup& s) {
  Sweep out;
  out.reserve(kSinks.size());
  for (std::size_t p = 0; p < kSinks.size(); ++p) {
    out.push_back(spice::solve_electrothermal_dc(s.circuit, s.backends[p], s.footprints,
                                                 options(kSinks[p])));
  }
  return out;
}

void check_physics(Report& report, long long op, const Sweep& sweep) {
  for (std::size_t p = 0; p < sweep.size(); ++p) {
    const auto& s = sweep[p];
    if (s.runaway != kRunaway[p] || s.converged == kRunaway[p]) {
      report.fail(op, "sink " + std::to_string(kSinks[p]) + " K: expected " +
                          (kRunaway[p] ? "flagged runaway" : "a converged operating point"));
    }
    if (!s.runaway) {
      for (double t : s.device_temperatures) {
        if (!std::isfinite(t) || t < kSinks[p] || t > kSinks[p] + 400.0) {
          report.fail(op, "device temperature outside [sink, sink + 400 K]");
        }
      }
    }
  }
}

void check_repeat(Report& report, long long op, const Sweep& sweep, const Sweep& first) {
  for (std::size_t p = 0; p < sweep.size(); ++p) {
    expect_same(report, op, "outer_iterations", sweep[p].outer_iterations,
                first[p].outer_iterations);
    expect_same(report, op, "max_temperature", sweep[p].max_temperature,
                first[p].max_temperature);
  }
}

void add_reference(Report& report, const Sweep& sweep) {
  for (std::size_t p = 0; p < sweep.size(); ++p) {
    const std::string key = "sink_" + std::to_string(static_cast<int>(kSinks[p]));
    report.reference(key + "_runaway", sweep[p].runaway ? 1.0 : 0.0);
    if (sweep[p].runaway) continue;  // divergent iterates are not a physical state
    for (std::size_t d = 0; d < sweep[p].device_temperatures.size(); ++d) {
      report.reference(key + "_device_" + std::to_string(d), sweep[p].device_temperatures[d]);
    }
  }
}

}  // namespace

void run_spice_sweep(const RunConfig& cfg, Report& report) {
  const auto params = make_params(cfg.seed);

  const auto make = [&] { return make_setup(params); };
  Samples setups;
  const auto setup = timed_setup(make, setups, 1, 1, 0.0);
  const Setup& in = *setup;

  const Sweep first = run_sweep(in);
  report.attempt();
  check_physics(report, 0, first);

  // The reference check runs after the timed part: re-solving the reference
  // seed's inputs must not show up in peak_rss_mb.
  const auto check_reference = [&] {
    if (cfg.reference_seed == cfg.seed) {
      add_reference(report, first);
    } else {
      const auto sweep = run_sweep(*make_setup(make_params(cfg.reference_seed)));
      report.attempt();
      check_physics(report, -1, sweep);
      add_reference(report, sweep);
    }
  };

  long long op = 0;
  const auto sweep = [&] { return run_sweep(in); };
  const auto check = [&](const Sweep& s) {
    report.attempt();
    check_repeat(report, ++op, s, first);
  };

  if (!cfg.trace) {
    const LoopSamples ops = closed_loop(cfg.seconds, 5, sweep, check);
    report_end_to_end(report, ops);
    timed_setup(make, setups, 20, 1000000, 1.0);
    report_setup(report, setups);
    check_reference();
    return;
  }

  // Per-layer split. The dense device-to-device operator, as
  // solve_electrothermal_dc resolves it, is replayed once per round on the
  // first point's exit powers. The inner DC solves are not replayed: their
  // time is the library's own `spice/solve_dc` spans inside the traced
  // sweeps' `spice/electrothermal_dc` spans.
  std::vector<thermal::HeatSource> sources;
  std::vector<thermal::SurfaceSample> samples;
  for (const auto& f : in.footprints) {
    sources.push_back({f.cx, f.cy, f.w, f.l, 0.0});
    samples.push_back({f.cx, f.cy});
  }
  const auto influence = thermal::resolve_influence_apply(in.backends[0], sources, samples);
  std::vector<double> rises(sources.size());
  long long outer = 0;
  long long newton_iterations = 0;
  long long homotopy_steps = 0;
  for (const auto& sol : first) {
    outer += sol.outer_iterations;
    newton_iterations += sol.dc.report.newton_iterations;
    homotopy_steps += sol.dc.report.homotopy_steps;
  }
  Replay apply("perfbench/thermal.apply");

  TraceSession session;
  const SplitSamples split = traced_split(
      session, cfg.seconds, 5,
      [&] {
        const telemetry::Span span("perfbench/spice.sweep");
        return run_sweep(in);
      },
      check,
      [&] {
        apply.run([&] {
          influence->apply(first[0].device_powers, rises);
          keep(rises[0]);
        });
      });
  const SpanSum dc = session.sum("spice/solve_dc", "spice/electrothermal_dc");
  const SpanSum et = session.sum("spice/electrothermal_dc", nullptr);
  session.write(cfg.trace_out, report);

  report.metric("thermal.apply_us", apply.us(), "us");
  report.metric("thermal.apply_share",
                paired_share(split, [&](std::size_t k) {
                  return apply.seconds(k) * static_cast<double>(outer);
                }),
                "frac");
  report.metric("spice.dc_solve_us", 1e6 * dc.seconds / static_cast<double>(dc.count), "us");
  report.count("spice.newton_iterations", newton_iterations);
  report.count("spice.homotopy_steps", homotopy_steps);
  report.count("spice.outer_iterations", outer);
  report.metric("spice.newton_share", dc.seconds / et.seconds, "frac");
  report_split(report, split, static_cast<double>(kSinks.size()));
  check_reference();
}

}  // namespace perfbench
