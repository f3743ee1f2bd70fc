// Tests for the electro-thermal SPICE coupling (spice/electrothermal.hpp):
// per-device self-heating closed through the thermal backend's
// influence-apply seam, runaway flagged-not-clamped at the device level
// (mirroring the block-level cosim policy), footprint mapping from the
// floorplan, the dense/matrix-free influence boundary, and the structured
// non-convergence diagnostics carried by the cosim and scenario-batch paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/cosim.hpp"
#include "core/scenario_batch.hpp"
#include "device/mosfet.hpp"
#include "floorplan/generators.hpp"
#include "spice/circuit.hpp"
#include "spice/electrothermal.hpp"
#include "thermal/backend.hpp"

namespace ptherm::spice {
namespace {

using device::MosModel;
using device::MosType;
using device::Technology;
using thermal::Die;
using thermal::HeatSource;
using thermal::SurfaceSample;

Technology tech() { return Technology::cmos012(); }

/// A small, poorly-cooled die: 100 um x 100 um, 300 um to the sink, with the
/// conductivity knocked down so a single wide device's subthreshold power
/// produces tens of kelvin of self-heating.
Die hot_die(double t_sink) {
  Die d;
  d.width = 100e-6;
  d.height = 100e-6;
  d.thickness = 300e-6;
  d.k_si = 4.0;
  d.t_sink = t_sink;
  return d;
}

/// One 200 um wide NMOS biased just below threshold (vgs = 0.30 V): its
/// subthreshold current roughly doubles every ~15 K, so the loop gain
/// R * dP/dT crosses 1 somewhere between a 300 K and a 325 K sink.
Circuit wide_device_circuit() {
  Circuit ckt;
  const Technology t = tech();
  const auto vdd = ckt.node("vdd");
  const auto gate = ckt.node("gate");
  ckt.add_vsource("VDD", vdd, Circuit::ground(), t.vdd);
  ckt.add_vsource("VG", gate, Circuit::ground(), 0.30);
  ckt.add_mosfet("MHOT", vdd, gate, Circuit::ground(), Circuit::ground(),
                 MosModel(t, MosType::Nmos, 200e-6, t.l_drawn));
  return ckt;
}

std::vector<DeviceFootprint> center_footprint() {
  return {{"MHOT", 50e-6, 50e-6, 10e-6, 10e-6}};
}

ElectroThermalDcOptions et_opts(double t_sink) {
  ElectroThermalDcOptions opts;
  opts.t_sink = t_sink;
  opts.dc.temp = t_sink;  // unheated devices and the T iterate both start here
  return opts;
}

// ---------------------------------------------------------------------------
// The coupled solve: self-heating raises the device temperature, the report
// carries the per-device exit temperatures, and the electrical solution is
// consistent with them.

TEST(ElectroThermalDc, SelfHeatingConvergesAboveSink) {
  const double t_sink = 300.0;
  thermal::AnalyticImagesBackend backend(hot_die(t_sink));
  const auto fps = center_footprint();
  const auto ckt = wide_device_circuit();
  const auto sol = solve_electrothermal_dc(ckt, backend, fps, et_opts(t_sink));

  EXPECT_TRUE(sol.converged);
  EXPECT_FALSE(sol.runaway);
  ASSERT_EQ(sol.device_temperatures.size(), 1u);
  // Genuine self-heating: tens of kelvin above the sink, not noise.
  EXPECT_GT(sol.device_temperatures[0], t_sink + 10.0);
  EXPECT_LT(sol.device_temperatures[0], t_sink + 100.0);
  EXPECT_DOUBLE_EQ(sol.max_temperature, sol.device_temperatures[0]);
  EXPECT_GT(sol.device_powers[0], 0.0);

  // The electrical solution's report must agree on what temperature the
  // device was actually evaluated at.
  ASSERT_TRUE(sol.dc.converged);
  EXPECT_DOUBLE_EQ(sol.dc.report.device_temperatures.at("MHOT"), sol.device_temperatures[0]);

  // Consistency of the fixed point: T = t_sink + R * P(T) to the outer
  // tolerance, with R taken from the backend directly.
  const HeatSource src{50e-6, 50e-6, 10e-6, 10e-6, sol.device_powers[0]};
  const SurfaceSample at{50e-6, 50e-6};
  const double rise = backend.surface_rises({src}, std::span(&at, 1))[0];
  EXPECT_NEAR(sol.device_temperatures[0], t_sink + rise, 1e-2);
}

TEST(ElectroThermalDc, HotSinkRunsAwayFlaggedNotClamped) {
  const double t_sink = 325.0;
  thermal::AnalyticImagesBackend backend(hot_die(t_sink));
  const auto fps = center_footprint();
  const auto ckt = wide_device_circuit();
  const auto sol = solve_electrothermal_dc(ckt, backend, fps, et_opts(t_sink));

  EXPECT_TRUE(sol.runaway);
  EXPECT_FALSE(sol.converged);
  // Flagged, never clamped: the reported state is the divergent iterate,
  // far beyond the rise limit that triggered the flag.
  EXPECT_GT(sol.max_temperature, t_sink + et_opts(t_sink).runaway_rise_limit);
  // It must stop promptly, not burn the full outer budget on a divergence.
  EXPECT_LT(sol.outer_iterations, et_opts(t_sink).max_outer_iterations);
}

TEST(ElectroThermalDc, ColdSinkSameCircuitDoesNotFlag) {
  // Same circuit, same die, only the sink differs: runaway is a property of
  // the physics (loop gain), not of the detector.
  const double t_sink = 300.0;
  thermal::AnalyticImagesBackend backend(hot_die(t_sink));
  const auto fps = center_footprint();
  const auto ckt = wide_device_circuit();
  const auto sol = solve_electrothermal_dc(ckt, backend, fps, et_opts(t_sink));
  EXPECT_TRUE(sol.converged);
  EXPECT_FALSE(sol.runaway);
}

TEST(ElectroThermalDc, ContractionReadsTheLoopGain) {
  // Exit residual ratio r_k / r_{k-1}: below 1 on the cold sink that
  // converges, at least 1 on the hot sink that runs away.
  const auto fps = center_footprint();
  const auto ckt = wide_device_circuit();
  thermal::AnalyticImagesBackend cold(hot_die(300.0));
  const auto sc = solve_electrothermal_dc(ckt, cold, fps, et_opts(300.0));
  ASSERT_TRUE(sc.converged);
  EXPECT_LT(sc.contraction, 1.0);
  thermal::AnalyticImagesBackend hot(hot_die(325.0));
  const auto sh = solve_electrothermal_dc(ckt, hot, fps, et_opts(325.0));
  ASSERT_TRUE(sh.runaway);
  EXPECT_GE(sh.contraction, 1.0);
}

TEST(ElectroThermalDc, UnfootprintedDevicesStayAtAmbient) {
  const double t_sink = 300.0;
  thermal::AnalyticImagesBackend backend(hot_die(t_sink));
  Circuit ckt;
  const Technology t = tech();
  const auto vdd = ckt.node("vdd");
  const auto gate = ckt.node("gate");
  const auto mid = ckt.node("mid");
  ckt.add_vsource("VDD", vdd, Circuit::ground(), t.vdd);
  ckt.add_vsource("VG", gate, Circuit::ground(), 0.30);
  ckt.add_mosfet("MHOT", mid, gate, Circuit::ground(), Circuit::ground(),
                 MosModel(t, MosType::Nmos, 200e-6, t.l_drawn));
  ckt.add_mosfet("MCOLD", vdd, gate, mid, Circuit::ground(),
                 MosModel(t, MosType::Nmos, 200e-6, t.l_drawn));
  const auto fps = center_footprint();  // MHOT only
  const auto sol = solve_electrothermal_dc(ckt, backend, fps, et_opts(t_sink));
  ASSERT_TRUE(sol.dc.converged);
  EXPECT_DOUBLE_EQ(sol.dc.report.device_temperatures.at("MCOLD"), t_sink);
  EXPECT_GE(sol.dc.report.device_temperatures.at("MHOT"), t_sink);
}

// ---------------------------------------------------------------------------
// Sink sweeps over a row of devices: the prepared solve (ElectroThermalDc),
// its sweep entry, and the per-call solve_electrothermal_dc.

/// A row of near-threshold NMOS in parallel branches: each drain hangs off
/// the supply through its own ~1 ohm load, all gates share one 0.30 V bias,
/// on a 4 x 2 grid of 10 um footprints around the centre of hot_die. Widths
/// and loads carry a +-2 % jitter drawn from `seed`.
struct DeviceRow {
  Circuit circuit;
  std::vector<DeviceFootprint> footprints;
};

DeviceRow device_row(std::uint64_t seed) {
  Rng rng(seed);
  const Technology t = tech();
  DeviceRow row;
  auto& ckt = row.circuit;
  const auto vdd = ckt.node("vdd");
  const auto gate = ckt.node("gate");
  ckt.add_vsource("VDD", vdd, Circuit::ground(), t.vdd);
  ckt.add_vsource("VG", gate, Circuit::ground(), 0.30);
  for (int d = 0; d < 8; ++d) {
    const std::string id = std::to_string(d);
    const auto drain = ckt.node("d" + id);
    ckt.add_resistor("RL" + id, vdd, drain, rng.uniform(0.98, 1.02));
    ckt.add_mosfet("M" + id, drain, gate, Circuit::ground(), Circuit::ground(),
                   MosModel(t, MosType::Nmos, 60e-6 * rng.uniform(0.98, 1.02), t.l_drawn));
    row.footprints.push_back({"M" + id, 50e-6 + 20e-6 * ((d % 4) - 1.5),
                              50e-6 + 20e-6 * ((d / 4) - 0.5), 10e-6, 10e-6});
  }
  return row;
}

TEST(ElectroThermalDc, InnerNewtonIterationsCoverEveryInnerSolve) {
  // Every outer iteration runs at least one Newton iteration, and the exit
  // re-solve adds its own: the sum over the call bounds the outer count and
  // the exit re-solve's report from above.
  const double t_sink = 300.0;
  thermal::AnalyticImagesBackend backend(hot_die(t_sink));
  const auto sol = solve_electrothermal_dc(wide_device_circuit(), backend, center_footprint(),
                                           et_opts(t_sink));
  ASSERT_TRUE(sol.converged);
  EXPECT_GE(sol.inner_newton_iterations, sol.outer_iterations);
  EXPECT_GT(sol.inner_newton_iterations, sol.dc.report.newton_iterations);

  const auto row = device_row(1);
  const ElectroThermalDc prepared(row.circuit, backend, row.footprints);
  for (const auto& point : prepared.sweep_sinks(std::vector<double>{270.0, 280.0, 290.0},
                                                et_opts(270.0))) {
    ASSERT_TRUE(point.converged);
    EXPECT_GE(point.inner_newton_iterations, point.outer_iterations);
  }
}

TEST(ElectroThermalSweep, DeviceTemperaturesAreMonotoneInSinkTemperature) {
  // Leakage power grows with temperature, so a hotter sink can only raise
  // the fixed point: every converged device temperature is non-decreasing
  // in the sink temperature, and once a sink runs away every hotter one
  // does too (the loop gain crosses 1 near 302 K on this row).
  for (const std::uint64_t seed : {1u, 7u, 2718281u}) {
    const auto row = device_row(seed);
    Rng rng(seed + 1);
    std::vector<double> sinks = {320.0, 330.0};
    for (int k = 0; k < 5; ++k) sinks.push_back(rng.uniform(260.0, 292.0));
    std::ranges::sort(sinks);
    const thermal::AnalyticImagesBackend backend(hot_die(300.0));
    const ElectroThermalDc prepared(row.circuit, backend, row.footprints);
    const ElectroThermalDcSolution* prev = nullptr;
    std::vector<ElectroThermalDcSolution> sols;
    sols.reserve(sinks.size());
    for (const double t_sink : sinks) {
      sols.push_back(prepared.solve(et_opts(t_sink)));
      const auto& sol = sols.back();
      EXPECT_NE(sol.converged, sol.runaway) << "seed " << seed << ", sink " << t_sink;
      if (prev != nullptr && prev->runaway) {
        EXPECT_TRUE(sol.runaway) << "seed " << seed << ", sink " << t_sink;
      }
      if (prev != nullptr && prev->converged && sol.converged) {
        for (std::size_t d = 0; d < sol.device_temperatures.size(); ++d) {
          EXPECT_GE(sol.device_temperatures[d], prev->device_temperatures[d])
              << "seed " << seed << ", sink " << t_sink << ", device " << d;
        }
      }
      prev = &sol;
    }
    EXPECT_TRUE(sols.front().converged) << "seed " << seed;
    EXPECT_TRUE(sols.back().runaway) << "seed " << seed;
  }
}

TEST(ElectroThermalSweep, SweepEntryAgreesWithPerCallSolves) {
  // The sweep builds R once and warm-starts each sink from the last
  // converged one; per-call solving rebuilds R and starts cold. Both must
  // reach the same verdicts and, where converged, the same temperatures to
  // the outer loop's tolerance.
  const std::vector<double> sinks = {270.0, 280.0, 290.0, 320.0, 330.0};
  const auto row = device_row(1);
  const auto opts = et_opts(300.0);

  const thermal::AnalyticImagesBackend per_call_backend(hot_die(300.0));
  std::vector<ElectroThermalDcSolution> per_call;
  for (const double t_sink : sinks) {
    per_call.push_back(solve_electrothermal_dc(row.circuit, per_call_backend, row.footprints,
                                               et_opts(t_sink)));
  }
  const thermal::AnalyticImagesBackend sweep_backend(hot_die(300.0));
  const ElectroThermalDc prepared(row.circuit, sweep_backend, row.footprints);
  const auto swept = prepared.sweep_sinks(sinks, opts);

  // One influence build for the sweep, one per call otherwise.
  EXPECT_EQ(sweep_backend.cost_stats().influence_columns,
            static_cast<long long>(row.footprints.size()));
  EXPECT_EQ(per_call_backend.cost_stats().influence_columns,
            static_cast<long long>(sinks.size() * row.footprints.size()));

  ASSERT_EQ(swept.size(), sinks.size());
  for (std::size_t p = 0; p < sinks.size(); ++p) {
    EXPECT_EQ(swept[p].runaway, per_call[p].runaway) << "sink " << sinks[p];
    EXPECT_EQ(swept[p].converged, per_call[p].converged) << "sink " << sinks[p];
    if (!per_call[p].converged) continue;
    ASSERT_EQ(swept[p].device_temperatures.size(), per_call[p].device_temperatures.size());
    for (std::size_t d = 0; d < swept[p].device_temperatures.size(); ++d) {
      EXPECT_NEAR(swept[p].device_temperatures[d], per_call[p].device_temperatures[d],
                  10.0 * opts.temp_tol)
          << "sink " << sinks[p] << ", device " << d;
    }
    EXPECT_DOUBLE_EQ(swept[p].dc.report.device_temperatures.at("M0"),
                     swept[p].device_temperatures[0]);
  }
  EXPECT_TRUE(per_call[3].runaway);  // the sweep crosses the runaway threshold

  // The prepared cold solve is the per-call solve: one loop body.
  const auto cold = prepared.solve(et_opts(sinks[1]));
  EXPECT_EQ(cold.outer_iterations, per_call[1].outer_iterations);
  for (std::size_t d = 0; d < cold.device_temperatures.size(); ++d) {
    EXPECT_EQ(cold.device_temperatures[d], per_call[1].device_temperatures[d]) << "device " << d;
  }
}

// ---------------------------------------------------------------------------
// Input validation: the outer loop's settings mirror core::validate's checks
// on CosimOptions, and every footprint names a distinct device.

/// Whether solve_electrothermal_dc rejects options edited by `edit`.
template <class Edit>
void expect_rejected(Edit edit) {
  thermal::AnalyticImagesBackend backend(hot_die(300.0));
  const auto ckt = wide_device_circuit();
  const auto fps = center_footprint();
  auto opts = et_opts(300.0);
  edit(opts);
  EXPECT_THROW(validate(opts), PreconditionError);
  EXPECT_THROW((void)solve_electrothermal_dc(ckt, backend, fps, opts), PreconditionError);
}

TEST(ElectroThermalDcValidation, DefaultOptionsAreValid) {
  EXPECT_NO_THROW(validate(ElectroThermalDcOptions{}));
  EXPECT_NO_THROW(validate(et_opts(300.0)));
}

TEST(ElectroThermalDcValidation, RejectsDampingOutsideUnitInterval) {
  for (const double d : {0.0, -0.5, 1.5, std::nan("")}) {
    expect_rejected([d](ElectroThermalDcOptions& o) { o.damping = d; });
  }
}

TEST(ElectroThermalDcValidation, RejectsNonPositiveTempTol) {
  for (const double tol : {0.0, -1e-3, std::nan("")}) {
    expect_rejected([tol](ElectroThermalDcOptions& o) { o.temp_tol = tol; });
  }
}

TEST(ElectroThermalDcValidation, RejectsZeroOuterIterations) {
  expect_rejected([](ElectroThermalDcOptions& o) { o.max_outer_iterations = 0; });
  expect_rejected([](ElectroThermalDcOptions& o) { o.max_outer_iterations = -3; });
}

TEST(ElectroThermalDcValidation, RejectsNonPositiveRunawayRiseLimit) {
  expect_rejected([](ElectroThermalDcOptions& o) { o.runaway_rise_limit = 0.0; });
  expect_rejected([](ElectroThermalDcOptions& o) { o.runaway_rise_limit = -10.0; });
}

TEST(ElectroThermalDcValidation, RejectsZeroRunawayStreak) {
  // A streak of 0 read as diverging after the first outer step, flagging
  // every solve as runaway.
  expect_rejected([](ElectroThermalDcOptions& o) { o.runaway_streak = 0; });
  expect_rejected([](ElectroThermalDcOptions& o) { o.runaway_streak = -1; });
}

TEST(ElectroThermalDcValidation, RejectsNonFiniteSink) {
  for (const double t : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    expect_rejected([t](ElectroThermalDcOptions& o) { o.t_sink = t; });
  }
}

TEST(ElectroThermalDcValidation, RejectsTwoFootprintsForOneDevice) {
  // The device's power would be injected at both footprints.
  thermal::AnalyticImagesBackend backend(hot_die(300.0));
  const auto ckt = wide_device_circuit();
  std::vector<DeviceFootprint> fps;
  fps.push_back({"MHOT", 30e-6, 50e-6, 10e-6, 10e-6});
  fps.push_back({"MHOT", 70e-6, 50e-6, 10e-6, 10e-6});
  const auto opts = et_opts(300.0);
  EXPECT_THROW((void)solve_electrothermal_dc(ckt, backend, fps, opts), PreconditionError);
}

// ---------------------------------------------------------------------------
// Footprint mapping from the floorplan.

TEST(ElectroThermalDc, FootprintForMapsBlockRect) {
  Rng rng(21);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 2.0;
  cfg.gates_per_mm2 = 50e3;
  Die d;
  const auto fp = floorplan::make_uniform_grid(tech(), d, 2, 2, cfg, rng);
  const auto& block = fp.blocks().front();
  const auto foot = footprint_for("M7", block);
  EXPECT_EQ(foot.device, "M7");
  EXPECT_DOUBLE_EQ(foot.cx, block.rect.cx());
  EXPECT_DOUBLE_EQ(foot.cy, block.rect.cy());
  EXPECT_DOUBLE_EQ(foot.w, block.rect.w);
  EXPECT_DOUBLE_EQ(foot.l, block.rect.h);
}

// ---------------------------------------------------------------------------
// The influence-apply seam the coupling resolves its backend through.

TEST(InfluenceSeam, DenseApplyMatchesExplicitMultiply) {
  thermal::AnalyticImagesBackend backend(hot_die(300.0));
  const std::vector<HeatSource> sources = {{30e-6, 30e-6, 10e-6, 10e-6, 0.0},
                                           {70e-6, 60e-6, 8e-6, 12e-6, 0.0}};
  const std::vector<SurfaceSample> samples = {{30e-6, 30e-6}, {70e-6, 60e-6}};
  auto r = backend.build_influence(sources, samples);
  ASSERT_EQ(r.rows(), 2u);
  ASSERT_EQ(r.cols(), 2u);

  const std::vector<double> powers = {0.125, 0.75};
  std::vector<double> expected(2, 0.0);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) expected[i] += r(i, j) * powers[j];
  }

  thermal::DenseInfluenceApply apply(std::move(r));
  EXPECT_EQ(apply.kind(), "dense");
  ASSERT_EQ(apply.size(), 2u);
  std::vector<double> rises(2, 0.0);
  apply.apply(powers, rises);
  EXPECT_DOUBLE_EQ(rises[0], expected[0]);
  EXPECT_DOUBLE_EQ(rises[1], expected[1]);
}

TEST(InfluenceSeam, ResolvePicksMatrixFreeOnlyWhenSupported) {
  const std::vector<HeatSource> sources = {{30e-6, 30e-6, 10e-6, 10e-6, 0.0}};
  const std::vector<SurfaceSample> samples = {{30e-6, 30e-6}};

  thermal::AnalyticImagesBackend analytic(hot_die(300.0));
  ASSERT_FALSE(analytic.supports_matrix_free_influence());
  const auto dense = thermal::resolve_influence_apply(analytic, sources, samples);
  EXPECT_EQ(dense->kind(), "dense");

  thermal::SpectralBackend spectral(hot_die(300.0));
  ASSERT_TRUE(spectral.supports_matrix_free_influence());
  const auto free = thermal::resolve_influence_apply(spectral, sources, samples);
  EXPECT_NE(free->kind(), "dense");

  // Both must implement the same operator to their respective accuracy.
  const std::vector<double> powers = {1.0};
  std::vector<double> a(1, 0.0), b(1, 0.0);
  dense->apply(powers, a);
  free->apply(powers, b);
  EXPECT_GT(a[0], 0.0);
  EXPECT_NEAR(a[0], b[0], 0.05 * a[0] + 1e-9);
}

// ---------------------------------------------------------------------------
// Structured non-convergence diagnostics on the cosim paths (the same
// SolveDiagnostics record the SPICE stack attaches to ConvergenceFailure).

Die die_1mm() {
  Die d;
  d.width = 1e-3;
  d.height = 1e-3;
  d.thickness = 350e-6;
  d.k_si = 148.0;
  d.t_sink = 318.15;
  return d;
}

floorplan::Floorplan unstable_plan() {
  Rng rng(4);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 40.0;
  cfg.gates_per_mm2 = 5e8;
  return floorplan::make_uniform_grid(tech(), die_1mm(), 2, 2, cfg, rng);
}

TEST(CosimDiagnostics, RunawayCarriesStructuredContext) {
  core::CosimOptions opts;
  opts.runaway_rise_limit = 200.0;
  const auto plan = unstable_plan();
  core::ElectroThermalSolver solver(tech(), plan, opts);
  const auto r = solver.solve();
  ASSERT_TRUE(r.runaway);
  ASSERT_TRUE(r.diagnostics.has_value());
  EXPECT_EQ(r.diagnostics->solver, "ElectroThermalSolver");
  EXPECT_EQ(r.diagnostics->stage, "runaway");
  EXPECT_EQ(r.diagnostics->iterations, r.iterations);
  // The worst offender is a real block of the plan, by name.
  bool found = false;
  for (const auto& b : plan.blocks()) found = found || (b.name == r.diagnostics->worst);
  EXPECT_TRUE(found) << "worst=" << r.diagnostics->worst;
  EXPECT_FALSE(r.diagnostics->summary().empty());
}

TEST(CosimDiagnostics, ConvergedSolveCarriesNone) {
  Rng rng(21);
  floorplan::GeneratorConfig cfg;
  cfg.total_dynamic_power = 2.0;
  cfg.gates_per_mm2 = 50e3;
  const auto fp = floorplan::make_uniform_grid(tech(), die_1mm(), 2, 2, cfg, rng);
  core::ElectroThermalSolver solver(tech(), fp, {});
  const auto r = solver.solve();
  ASSERT_TRUE(r.converged);
  EXPECT_FALSE(r.diagnostics.has_value());
}

TEST(CosimDiagnostics, ScenarioBatchNamesTheScenario) {
  core::CosimOptions opts;
  opts.runaway_rise_limit = 200.0;
  core::ScenarioBatch batch(tech(), unstable_plan(), opts);
  batch.add_nominal();
  const auto results = batch.solve_all();
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].runaway);
  ASSERT_TRUE(results[0].diagnostics.has_value());
  EXPECT_EQ(results[0].diagnostics->solver, "ScenarioBatch");
  EXPECT_NE(results[0].diagnostics->stage.find("scenario 0"), std::string::npos);
  EXPECT_NE(results[0].diagnostics->stage.find("runaway"), std::string::npos);
  EXPECT_FALSE(results[0].diagnostics->worst.empty());
}

}  // namespace
}  // namespace ptherm::spice
