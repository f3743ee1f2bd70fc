// Speed study S7 (electro-thermal SPICE): the device-level self-heating
// solve — an outer T <- t_sink + R * P(T) fixed point wrapped around the
// recovery-ladder DC Newton, alone and as a sink sweep — plus the ladder
// itself on circuits that exercise each rung. The counters pin the solver trajectory:
// a future change that "speeds up" a solve by taking more Newton iterations
// or extra homotopy rungs shows up as a counter regression, not a silent
// convergence change.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "device/mosfet.hpp"
#include "spice/circuit.hpp"
#include "spice/dc.hpp"
#include "spice/electrothermal.hpp"
#include "thermal/backend.hpp"
#include "telemetry_env.hpp"  // PTHERM_TELEMETRY=1 installs a span tracer

namespace {

using namespace ptherm;
using device::MosModel;
using device::MosType;
using device::Technology;

Technology tech() { return Technology::cmos012(); }

/// Inverter chain: n stages between vdd and ground, each output loading the
/// next gate — the plain-ladder workhorse circuit.
spice::Circuit inverter_chain(int n) {
  spice::Circuit ckt;
  const Technology t = tech();
  const auto vdd = ckt.node("vdd");
  ckt.add_vsource("VDD", vdd, spice::Circuit::ground(), t.vdd);
  auto in = ckt.node("in");
  ckt.add_vsource("VIN", in, spice::Circuit::ground(), 0.0);
  for (int i = 0; i < n; ++i) {
    const auto out = ckt.node("s" + std::to_string(i));
    ckt.add_mosfet("MN" + std::to_string(i), out, in, spice::Circuit::ground(),
                   spice::Circuit::ground(), MosModel(t, MosType::Nmos, 0.32e-6, t.l_drawn));
    ckt.add_mosfet("MP" + std::to_string(i), out, in, vdd, vdd,
                   MosModel(t, MosType::Pmos, 0.8e-6, t.l_drawn));
    in = out;
  }
  return ckt;
}

/// Cross-coupled inverter latch: at a starved iteration budget the plain
/// gmin ladder fails around the metastable point and source stepping
/// carries the solve — the full escalation path.
spice::Circuit latch() {
  spice::Circuit ckt;
  const Technology t = tech();
  const double wn = 0.32e-6;
  const auto vdd = ckt.node("vdd");
  const auto q = ckt.node("q");
  const auto qb = ckt.node("qb");
  ckt.add_vsource("VDD", vdd, spice::Circuit::ground(), t.vdd);
  ckt.add_mosfet("MN1", q, qb, spice::Circuit::ground(), spice::Circuit::ground(),
                 MosModel(t, MosType::Nmos, wn, t.l_drawn));
  ckt.add_mosfet("MP1", q, qb, vdd, vdd, MosModel(t, MosType::Pmos, 2.5 * wn, t.l_drawn));
  ckt.add_mosfet("MN2", qb, q, spice::Circuit::ground(), spice::Circuit::ground(),
                 MosModel(t, MosType::Nmos, wn, t.l_drawn));
  ckt.add_mosfet("MP2", qb, q, vdd, vdd, MosModel(t, MosType::Pmos, 2.5 * wn, t.l_drawn));
  return ckt;
}

/// A small, poorly cooled die (100 um square, 300 um to a 300 K sink,
/// k_si = 4): near-threshold devices on it self-heat by tens of kelvin.
thermal::Die hot_die() {
  thermal::Die die;
  die.width = 100e-6;
  die.height = 100e-6;
  die.thickness = 300e-6;
  die.k_si = 4.0;
  die.t_sink = 300.0;
  return die;
}

void record_report(benchmark::State& state, const spice::SolveReport& report) {
  state.counters["newton_iterations"] = static_cast<double>(report.newton_iterations);
  state.counters["homotopy_steps"] = static_cast<double>(report.homotopy_steps);
  state.counters["rungs"] = static_cast<double>(report.rungs.size());
  state.counters["converged"] = report.converged ? 1.0 : 0.0;
}

void BM_DcInverterChain(benchmark::State& state) {
  const auto ckt = inverter_chain(static_cast<int>(state.range(0)));
  spice::DcSolution last;
  for (auto _ : state) {
    last = spice::solve_dc(ckt);
    benchmark::DoNotOptimize(last);
  }
  record_report(state, last.report);
}
BENCHMARK(BM_DcInverterChain)->Arg(4)->Arg(16)->Unit(benchmark::kMicrosecond);

void BM_DcRecoveryLadderLatch(benchmark::State& state) {
  // Budget tight enough that the plain ladder fails and source stepping
  // carries the solve — the full escalation path, timed.
  const auto ckt = latch();
  spice::DcOptions opts;
  opts.max_iterations = 6;
  spice::DcSolution last;
  for (auto _ : state) {
    last = spice::solve_dc(ckt, opts);
    benchmark::DoNotOptimize(last);
  }
  record_report(state, last.report);
}
BENCHMARK(BM_DcRecoveryLadderLatch)->Unit(benchmark::kMicrosecond);

void BM_DcSelfHeating(benchmark::State& state) {
  // The PR-9 headline: per-device self-heating closed through the thermal
  // backend's influence seam, outer fixed point around the DC solve. One
  // wide near-threshold NMOS on a poorly-cooled die, ~27 K of self-heating.
  const thermal::Die die = hot_die();
  thermal::AnalyticImagesBackend backend(die);

  spice::Circuit ckt;
  const Technology t = tech();
  const auto vdd = ckt.node("vdd");
  const auto gate = ckt.node("gate");
  ckt.add_vsource("VDD", vdd, spice::Circuit::ground(), t.vdd);
  ckt.add_vsource("VG", gate, spice::Circuit::ground(), 0.30);
  ckt.add_mosfet("MHOT", vdd, gate, spice::Circuit::ground(), spice::Circuit::ground(),
                 MosModel(t, MosType::Nmos, 200e-6, t.l_drawn));
  const std::vector<spice::DeviceFootprint> footprints = {
      {"MHOT", 50e-6, 50e-6, 10e-6, 10e-6}};

  spice::ElectroThermalDcOptions opts;
  opts.t_sink = die.t_sink;
  opts.dc.temp = die.t_sink;

  spice::ElectroThermalDcSolution last;
  for (auto _ : state) {
    last = spice::solve_electrothermal_dc(ckt, backend, footprints, opts);
    benchmark::DoNotOptimize(last);
  }
  state.counters["newton_iterations"] =
      static_cast<double>(last.dc.report.newton_iterations);
  state.counters["homotopy_steps"] = static_cast<double>(last.dc.report.homotopy_steps);
  state.counters["outer_iterations"] = static_cast<double>(last.outer_iterations);
  state.counters["inner_newton_iterations"] = static_cast<double>(last.inner_newton_iterations);
  state.counters["converged"] = last.converged ? 1.0 : 0.0;
}
BENCHMARK(BM_DcSelfHeating)->Unit(benchmark::kMillisecond);

void BM_ElectroThermalSinkSweep(benchmark::State& state) {
  // One sweep of five sinks (270/280/290 K converge, 320/330 K run away) on
  // eight near-threshold NMOS in parallel branches, each on its own 10 um
  // footprint of hot_die(): prepared = 0 calls
  // solve_electrothermal_dc per sink (R rebuilt, every sink started cold),
  // prepared = 1 runs ElectroThermalDc::sweep_sinks (R built once per
  // sweep, each sink warm-started from the last converged one).
  // influence_columns counts the unit-source columns built per sweep.
  const bool prepared = state.range(0) == 1;
  const thermal::AnalyticImagesBackend backend(hot_die());

  spice::Circuit ckt;
  const Technology t = tech();
  const auto vdd = ckt.node("vdd");
  const auto gate = ckt.node("gate");
  ckt.add_vsource("VDD", vdd, spice::Circuit::ground(), t.vdd);
  ckt.add_vsource("VG", gate, spice::Circuit::ground(), 0.30);
  std::vector<spice::DeviceFootprint> footprints;
  for (int d = 0; d < 8; ++d) {
    const std::string id = std::to_string(d);
    const auto drain = ckt.node("d" + id);
    ckt.add_resistor("RL" + id, vdd, drain, 1.0);
    ckt.add_mosfet("M" + id, drain, gate, spice::Circuit::ground(), spice::Circuit::ground(),
                   MosModel(t, MosType::Nmos, 60e-6, t.l_drawn));
    footprints.push_back({"M" + id, 50e-6 + 20e-6 * ((d % 4) - 1.5),
                          50e-6 + 20e-6 * ((d / 4) - 0.5), 10e-6, 10e-6});
  }
  const std::vector<double> sinks = {270.0, 280.0, 290.0, 320.0, 330.0};
  const auto options = [](double t_sink) {
    spice::ElectroThermalDcOptions opts;
    opts.t_sink = t_sink;
    opts.dc.temp = t_sink;
    return opts;
  };

  std::vector<spice::ElectroThermalDcSolution> last;
  for (auto _ : state) {
    if (prepared) {
      const spice::ElectroThermalDc et(ckt, backend, footprints);
      last = et.sweep_sinks(sinks, options(sinks[0]));
    } else {
      last.clear();
      for (double t_sink : sinks) {
        last.push_back(spice::solve_electrothermal_dc(ckt, backend, footprints, options(t_sink)));
      }
    }
    benchmark::DoNotOptimize(last);
  }
  long long outer = 0;
  long long newton = 0;
  long long inner_newton = 0;
  long long runaway = 0;
  for (const auto& sol : last) {
    outer += sol.outer_iterations;
    newton += sol.dc.report.newton_iterations;
    inner_newton += sol.inner_newton_iterations;
    runaway += sol.runaway ? 1 : 0;
  }
  state.counters["influence_columns"] =
      static_cast<double>(backend.cost_stats().influence_columns) /
      static_cast<double>(state.iterations());
  state.counters["outer_iterations"] = static_cast<double>(outer);
  state.counters["newton_iterations"] = static_cast<double>(newton);
  state.counters["inner_newton_iterations"] = static_cast<double>(inner_newton);
  state.counters["runaway_sinks"] = static_cast<double>(runaway);
}
BENCHMARK(BM_ElectroThermalSinkSweep)
    ->ArgName("prepared")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
